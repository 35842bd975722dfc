open Types

(* The switch-level subgraph. Built once and never written after, so
   one value is shared read-only by every path graph stamped from the
   same body, across domains included. *)
type sub = {
  (* Symmetric adjacency: sw -> (out, peer, peer_in). The refs are
     written only while the table is built. *)
  adj : (switch_id, (port * switch_id * port) list ref) Hashtbl.t;
  (* The subgraph's cables — the controller's link → subscribed-pair
     repair index keys on this set. *)
  links : Link_set.t;
  (* The wire edge list, each cable once as (lower end, higher end),
     sorted. [Some] when built by [body]: sorted once, shared by every
     stamp. A graph rebuilt from the wire or merged sorts its own on
     [to_wire]; hosts seldom send one on. *)
  edges : (link_end * link_end) list option;
}

type t = {
  src : host_id;
  dst : host_id;
  src_loc : link_end;
  dst_loc : link_end;
  primary : Path.t;
  backup : Path.t option;
  sub : sub;
}

let src t = t.src

let dst t = t.dst

let primary t = t.primary

let backup t = t.backup

let switch_count t = Hashtbl.length t.sub.adj

let switches t = Hashtbl.fold (fun sw _ acc -> Switch_set.add sw acc) t.sub.adj Switch_set.empty

let adjacency t sw =
  match Hashtbl.find_opt t.sub.adj sw with
  | Some l -> !l
  | None -> []

let link_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.sub.adj 0 / 2

let links t = t.sub.links

let contains_link t key =
  let a, b = Link_key.ends key in
  List.exists (fun (out, peer, peer_in) -> out = a.port && peer = b.sw && peer_in = b.port)
    (adjacency t a.sw)

let[@dumbnet.hot] add_edge adj a b =
  let entry sw =
    match Hashtbl.find_opt adj sw with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace adj sw l;
      l
  in
  let la = entry a.sw and lb = entry b.sw in
  let forward = (a.port, b.sw, b.port) in
  if not (List.mem forward !la) then begin
    la := forward :: !la;
    lb := (b.port, a.sw, a.port) :: !lb
  end

(* The order of wire edges, on ints: lower end, then higher end, each
   by (switch, port) — what [compare] gives, without its generic walk. *)
let[@dumbnet.hot] compare_edge ((a, b) : link_end * link_end) ((c, d) : link_end * link_end) =
  if a.sw <> c.sw then Int.compare a.sw c.sw
  else if a.port <> c.port then Int.compare a.port c.port
  else if b.sw <> d.sw then Int.compare b.sw d.sw
  else Int.compare b.port d.port

(* The wire edge list of an adjacency table: every cable once, lower
   end first, sorted. *)
let[@dumbnet.hot] edges_of_adj adj =
  Hashtbl.fold
    (fun sw l acc ->
      List.fold_left
        (fun acc (out, peer, peer_in) ->
          if sw < peer || (sw = peer && out < peer_in) then
            ({ sw; port = out }, { sw = peer; port = peer_in }) :: acc
          else acc)
        acc !l)
    adj []
  |> List.sort compare_edge

let[@dumbnet.hot] links_of_adj adj =
  Hashtbl.fold
    (fun sw l acc ->
      List.fold_left
        (fun acc (out, peer, peer_in) ->
          Link_set.add (Link_key.make { sw; port = out } { sw = peer; port = peer_in }) acc)
        acc !l)
    adj Link_set.empty

(* One Algorithm 1 window: every switch x with da(x) + db(x) <= budget,
   scanned over the two id-indexed tables side by side. *)
let[@dumbnet.hot] window_vertices ~budget da db acc =
  let acc = ref acc in
  for x = 0 to min (Array.length da) (Array.length db) - 1 do
    let dxa = da.(x) and dxb = db.(x) in
    if dxa >= 0 && dxb >= 0 && dxa + dxb <= budget then acc := Switch_set.add x !acc
  done;
  !acc

let default_s = 2

let default_eps = 1

type body = {
  route : switch_id list;
  backup_route : switch_id list option;  (* only when it differs from [route] *)
  b_sub : sub;
}

let[@dumbnet.hot] body ?(s = default_s) ?(eps = default_eps) ?rng ?dist g ~src_sw ~dst_sw =
  if s <= 0 then invalid_arg "Pathgraph.body: s must be positive";
  if eps < 0 then invalid_arg "Pathgraph.body: eps must be non-negative";
  let snap = Graph.adjacency g in
  let graph_adj = Adjacency.fn snap in
  (* All BFS runs go through [dist_from]: by default a fresh array-BFS
     over the snapshot, but a caller (the controller) can supply
     memoized tables shared across queries — the results are identical
     because BFS distances are unique. *)
  let dist_from =
    match dist with
    | Some f -> f
    | None -> fun ~from -> Adjacency.bfs_distances snap ~from
  in
  let primary_route =
    if src_sw = dst_sw then Some [ src_sw ]
    else
      Routing.route_via_distances ?rng graph_adj ~src:src_sw ~dst:dst_sw
        (Adjacency.distance (dist_from ~from:dst_sw))
  in
  match primary_route with
  | None -> None
  | Some route ->
    let arr = Array.of_list route in
    let len = Array.length arr in
    (* Algorithm 1: slide a window of s hops along the primary path with
       stride s/2; keep every switch x with dist(a,x) + dist(x,b) <= s + eps. *)
    let vertices = ref Switch_set.empty in
    let add_route r = List.iter (fun v -> vertices := Switch_set.add v !vertices) r in
    add_route route;
    let stride = max 1 (s / 2) in
    let i = ref 0 in
    while !i < len - 1 do
      let b_idx = min (!i + s) (len - 1) in
      vertices :=
        window_vertices ~budget:(b_idx - !i + eps)
          (dist_from ~from:arr.(!i))
          (dist_from ~from:arr.(b_idx))
          !vertices;
      i := !i + stride
    done;
    (* Backup route: the shortest route that avoids the primary's cables
       unless unavoidable. *)
    let backup_route =
      match Routing.backup_route snap ~primary:route ~src:src_sw ~dst:dst_sw with
      | Some r when r <> route ->
        add_route r;
        Some r
      | Some _ | None -> None
    in
    (* Induced subgraph on the collected vertex set. *)
    let adj = Hashtbl.create 64 in
    Switch_set.iter
      (fun sw ->
        List.iter
          (fun (out, peer, peer_in) ->
            if Switch_set.mem peer !vertices then
              add_edge adj { sw; port = out } { sw = peer; port = peer_in })
          (graph_adj sw))
      !vertices;
    (* Make sure isolated single-switch subgraphs still appear. *)
    Switch_set.iter (fun sw -> if not (Hashtbl.mem adj sw) then Hashtbl.replace adj sw (ref [])) !vertices;
    Some
      {
        route;
        backup_route;
        b_sub = { adj; links = links_of_adj adj; edges = Some (edges_of_adj adj) };
      }

let[@dumbnet.hot] stamp_at g b ~src ~src_loc ~dst ~dst_loc =
  let adj = Adjacency.fn (Graph.adjacency g) in
  let path route = Path.of_route ~adj ~src ~src_loc ~dst ~dst_loc route in
  match path b.route with
  | None -> None
  | Some primary ->
    Some
      {
        src;
        dst;
        src_loc;
        dst_loc;
        primary;
        backup = Option.bind b.backup_route path;
        sub = b.b_sub;
      }

let[@dumbnet.hot] stamp g b ~src ~dst =
  match (Graph.host_location g src, Graph.host_location g dst) with
  | None, _ | _, None -> None
  | Some src_loc, Some dst_loc -> stamp_at g b ~src ~src_loc ~dst ~dst_loc

let generate ?s ?eps ?rng ?dist g ~src ~dst =
  match (Graph.host_location g src, Graph.host_location g dst) with
  | None, _ | _, None -> None
  | Some src_loc, Some dst_loc ->
    Option.bind (body ?s ?eps ?rng ?dist g ~src_sw:src_loc.sw ~dst_sw:dst_loc.sw) (fun b ->
        stamp_at g b ~src ~src_loc ~dst ~dst_loc)

let adjacency_avoiding t avoid sw =
  List.filter
    (fun (out, peer, peer_in) ->
      not
        (Link_set.mem
           (Link_key.make { sw; port = out } { sw = peer; port = peer_in })
           avoid))
    (adjacency t sw)

let effective_adjacency t = function
  | None -> adjacency t
  | Some avoid -> if Link_set.is_empty avoid then adjacency t else adjacency_avoiding t avoid

let find_route ?rng ?avoid t =
  let adj = effective_adjacency t avoid in
  match Routing.shortest_route ?rng adj ~src:t.src_loc.sw ~dst:t.dst_loc.sw with
  | None -> None
  | Some route ->
    Path.of_route ~adj ~src:t.src ~src_loc:t.src_loc ~dst:t.dst ~dst_loc:t.dst_loc route

(* The subgraph minus [avoid], packed as a CSR snapshot: ascending
   switch id, each list in port order. *)
let snapshot t avoid =
  let adj = effective_adjacency t avoid in
  let by_port (a, _, _) (b, _, _) = Int.compare a b in
  Hashtbl.fold (fun sw _ acc -> sw :: acc) t.sub.adj []
  |> List.sort Int.compare
  |> List.map (fun sw -> (sw, List.sort by_port (adj sw)))
  |> Adjacency.build ~generation:0

let k_routes ?rng ?avoid t ~k =
  let snap = snapshot t avoid in
  let adj = Adjacency.fn snap in
  Adjacency.k_shortest_routes ?rng snap ~src:t.src_loc.sw ~dst:t.dst_loc.sw ~k
  |> List.filter_map (fun route ->
         Path.of_route ~adj ~src:t.src ~src_loc:t.src_loc ~dst:t.dst ~dst_loc:t.dst_loc route)

let reversed t =
  let swapped =
    { t with src = t.dst; dst = t.src; src_loc = t.dst_loc; dst_loc = t.src_loc }
  in
  match find_route swapped with
  | None -> None
  | Some primary ->
    let backup =
      match t.backup with
      | None -> None
      | Some _ ->
        (* Prefer a reverse route that dodges the reverse primary's links. *)
        let adj = adjacency swapped in
        let weight = Routing.penalize (List.map fst primary.Path.hops) in
        (match
           Routing.weighted_route ~weight adj ~src:swapped.src_loc.sw ~dst:swapped.dst_loc.sw
         with
        | Some route when route <> List.map fst primary.Path.hops ->
          Path.of_route ~adj ~src:swapped.src ~src_loc:swapped.src_loc ~dst:swapped.dst
            ~dst_loc:swapped.dst_loc route
        | Some _ | None -> None)
    in
    Some { swapped with primary; backup }

let count_paths t ~max_len ~cap =
  let adj = adjacency t in
  let count = ref 0 in
  let visited = Hashtbl.create 32 in
  let rec dfs sw depth =
    if !count < cap then begin
      if sw = t.dst_loc.sw then incr count
      else if depth < max_len then begin
        Hashtbl.replace visited sw ();
        List.iter
          (fun (_, peer, _) -> if not (Hashtbl.mem visited peer) then dfs peer (depth + 1))
          (adj sw);
        Hashtbl.remove visited sw
      end
    end
  in
  dfs t.src_loc.sw 1;
  !count

type wire = {
  w_src : host_id;
  w_dst : host_id;
  w_src_loc : link_end;
  w_dst_loc : link_end;
  w_primary : Path.t;
  w_backup : Path.t option;
  w_edges : (link_end * link_end) list;
}

let to_wire t =
  {
    w_src = t.src;
    w_dst = t.dst;
    w_src_loc = t.src_loc;
    w_dst_loc = t.dst_loc;
    w_primary = t.primary;
    w_backup = t.backup;
    w_edges =
      (match t.sub.edges with
      | Some e -> e
      | None -> edges_of_adj t.sub.adj);
  }

let of_wire w =
  let adj = Hashtbl.create 64 in
  List.iter (fun (a, b) -> add_edge adj a b) w.w_edges;
  (* Endpoints must exist even if they have no switch-switch edges. *)
  List.iter
    (fun sw -> if not (Hashtbl.mem adj sw) then Hashtbl.replace adj sw (ref []))
    [ w.w_src_loc.sw; w.w_dst_loc.sw ];
  {
    src = w.w_src;
    dst = w.w_dst;
    src_loc = w.w_src_loc;
    dst_loc = w.w_dst_loc;
    primary = w.w_primary;
    backup = w.w_backup;
    sub = { adj; links = links_of_adj adj; edges = None };
  }

type compact = {
  c_src : host_id;
  c_dst : host_id;
  c_src_sw : switch_id;
  c_src_port : port;
  c_dst_sw : switch_id;
  c_dst_port : port;
  c_primary_sw : int array;
  c_primary_tags : Tag_arena.handle;
  c_backup_sw : int array;  (* [||] when there is no backup path *)
  c_backup_tags : Tag_arena.handle;  (* -1 when there is no backup path *)
  c_edges : int array;  (* a.sw, a.port, b.sw, b.port per cable, canonical order *)
}

let compact_src c = c.c_src

let compact_dst c = c.c_dst

let compact_switch_count c =
  (* Endpoint switches always appear; every other stored switch carries
     at least one edge. Count distinct ids over edges + endpoints. *)
  let seen = Hashtbl.create 32 in
  Hashtbl.replace seen c.c_src_sw ();
  Hashtbl.replace seen c.c_dst_sw ();
  let quads = Array.length c.c_edges / 4 in
  for i = 0 to quads - 1 do
    Hashtbl.replace seen c.c_edges.((i * 4) + 0) ();
    Hashtbl.replace seen c.c_edges.((i * 4) + 2) ()
  done;
  Hashtbl.length seen

let compact_links c =
  let quads = Array.length c.c_edges / 4 in
  List.init quads (fun i ->
      Link_key.make
        { sw = c.c_edges.((i * 4) + 0); port = c.c_edges.((i * 4) + 1) }
        { sw = c.c_edges.((i * 4) + 2); port = c.c_edges.((i * 4) + 3) })

let to_compact arena w =
  let path_arrays (p : Path.t) =
    (Array.of_list (List.map fst p.Path.hops), Tag_arena.intern arena (Path.tags p))
  in
  let primary_sw, primary_tags = path_arrays w.w_primary in
  let backup_sw, backup_tags =
    match w.w_backup with
    | None -> ([||], -1)
    | Some p -> path_arrays p
  in
  let edges = Array.make (4 * List.length w.w_edges) 0 in
  List.iteri
    (fun i (a, b) ->
      edges.((i * 4) + 0) <- a.sw;
      edges.((i * 4) + 1) <- a.port;
      edges.((i * 4) + 2) <- b.sw;
      edges.((i * 4) + 3) <- b.port)
    w.w_edges;
  {
    c_src = w.w_src;
    c_dst = w.w_dst;
    c_src_sw = w.w_src_loc.sw;
    c_src_port = w.w_src_loc.port;
    c_dst_sw = w.w_dst_loc.sw;
    c_dst_port = w.w_dst_loc.port;
    c_primary_sw = primary_sw;
    c_primary_tags = primary_tags;
    c_backup_sw = backup_sw;
    c_backup_tags = backup_tags;
    c_edges = edges;
  }

let of_compact arena c =
  let path sws tags_h =
    let tags = Tag_arena.get arena tags_h in
    if List.length tags <> Array.length sws then
      invalid_arg "Pathgraph.of_compact: tag stack length mismatch";
    {
      Path.src = c.c_src;
      hops = List.map2 (fun sw tag -> (sw, tag)) (Array.to_list sws) tags;
      dst = c.c_dst;
    }
  in
  let quads = Array.length c.c_edges / 4 in
  let edges =
    List.init quads (fun i ->
        ( { sw = c.c_edges.((i * 4) + 0); port = c.c_edges.((i * 4) + 1) },
          { sw = c.c_edges.((i * 4) + 2); port = c.c_edges.((i * 4) + 3) } ))
  in
  of_wire
    {
      w_src = c.c_src;
      w_dst = c.c_dst;
      w_src_loc = { sw = c.c_src_sw; port = c.c_src_port };
      w_dst_loc = { sw = c.c_dst_sw; port = c.c_dst_port };
      w_primary = path c.c_primary_sw c.c_primary_tags;
      w_backup =
        (if c.c_backup_tags < 0 then None else Some (path c.c_backup_sw c.c_backup_tags));
      w_edges = edges;
    }

let merge a b =
  if a.src <> b.src || a.dst <> b.dst then invalid_arg "Pathgraph.merge: different endpoints";
  let adj = Hashtbl.create 64 in
  let add_all t =
    Hashtbl.iter
      (fun sw l ->
        if not (Hashtbl.mem adj sw) then Hashtbl.replace adj sw (ref []);
        List.iter
          (fun (out, peer, peer_in) ->
            add_edge adj { sw; port = out } { sw = peer; port = peer_in })
          !l)
      t.sub.adj
  in
  add_all a;
  add_all b;
  { a with sub = { adj; links = Link_set.union a.sub.links b.sub.links; edges = None } }

let pp ppf t =
  Format.fprintf ppf "pathgraph H%d->H%d: primary=%a backup=%s switches=%d links=%d" t.src t.dst
    Path.pp t.primary
    (match t.backup with
    | Some p -> Format.asprintf "%a" Path.pp p
    | None -> "none")
    (switch_count t) (link_count t)
