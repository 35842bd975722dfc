open Types

(* The switch-level subgraph, packed. Built once and never written
   after, so one value is shared read-only by every path graph stamped
   from the same body, across domains included, and by the push
   ledger, which keeps [cables] by reference. *)
type sub = {
  (* a.sw a.port b.sw b.port per cable, lower end (by switch, then
     port) first, sorted and distinct: the wire's edge order. *)
  cables : int array;
  switches : switch_id array;  (* ascending, distinct *)
  csr : Adjacency.t;  (* over [switches], each row in port order *)
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

let[@dumbnet.hot] sub_of ~switches cables =
  { cables; switches; csr = Adjacency.of_cables ~switches cables }

let[@dumbnet.hot] src t = t.src

let[@dumbnet.hot] dst t = t.dst

let[@dumbnet.hot] src_loc t = t.src_loc

let[@dumbnet.hot] dst_loc t = t.dst_loc

let[@dumbnet.hot] primary t = t.primary

let[@dumbnet.hot] backup t = t.backup

let switch_count t = Array.length t.sub.switches

let switches t = Array.fold_left (fun acc sw -> Switch_set.add sw acc) Switch_set.empty t.sub.switches

let adjacency t sw = Adjacency.neighbors t.sub.csr sw

let[@dumbnet.hot] link_count t = Array.length t.sub.cables / 4

(* Record [i] of [x] against record [j] of [y], both of [stride]
   ints, lexicographically: for cables (stride 4), wire order. *)
let[@dumbnet.hot] compare_record ~stride (x : int array) i (y : int array) j =
  let rec go k =
    if k = stride then 0
    else
      let c = Int.compare x.((stride * i) + k) y.((stride * j) + k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

let contains_link t key =
  let a, b = Link_key.ends key in
  let probe = [| a.sw; a.port; b.sw; b.port |] in
  let cables = t.sub.cables in
  let lo = ref 0 and hi = ref ((Array.length cables / 4) - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_record ~stride:4 cables mid probe 0 in
    if c = 0 then found := true else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

let[@dumbnet.hot] iter_cables t f =
  let c = t.sub.cables in
  for i = 0 to (Array.length c / 4) - 1 do
    f c.(4 * i) c.((4 * i) + 1) c.((4 * i) + 2) c.((4 * i) + 3)
  done

let links t =
  let acc = ref Link_set.empty in
  iter_cables t (fun a pa b pb ->
      acc := Link_set.add (Link_key.make { sw = a; port = pa } { sw = b; port = pb }) !acc);
  !acc

(* One Algorithm 1 window: mark every switch x with da(x) + db(x) <=
   budget, scanned over the two id-indexed tables side by side. *)
let[@dumbnet.hot] mark_window ~budget da db mark =
  for x = 0 to min (min (Array.length da) (Array.length db)) (Bytes.length mark) - 1 do
    let dxa = da.(x) and dxb = db.(x) in
    if dxa >= 0 && dxb >= 0 && dxa + dxb <= budget then Bytes.set mark x '\001'
  done

(* The marked switch ids, ascending. *)
let[@dumbnet.hot] marked mark =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) mark;
  let ids = Array.make !n 0 in
  let k = ref 0 in
  Bytes.iteri
    (fun sw c ->
      if c <> '\000' then begin
        ids.(!k) <- sw;
        incr k
      end)
    mark;
  ids

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
      Routing.route_via_distances ?rng (Adjacency.fn snap) ~src:src_sw ~dst:dst_sw
        (Adjacency.distance (dist_from ~from:dst_sw))
  in
  match primary_route with
  | None -> None
  | Some route ->
    let arr = Array.of_list route in
    let len = Array.length arr in
    (* Algorithm 1: slide a window of s hops along the primary path with
       stride s/2; keep every switch x with dist(a,x) + dist(x,b) <= s + eps.
       The kept switches are marked in a byte map indexed by switch id. *)
    let mark = Bytes.make (max (Adjacency.id_bound snap) (max src_sw dst_sw + 1)) '\000' in
    let add_route r = List.iter (fun v -> Bytes.set mark v '\001') r in
    add_route route;
    let stride = max 1 (s / 2) in
    let i = ref 0 in
    while !i < len - 1 do
      let b_idx = min (!i + s) (len - 1) in
      mark_window ~budget:(b_idx - !i + eps)
        (dist_from ~from:arr.(!i))
        (dist_from ~from:arr.(b_idx))
        mark;
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
    (* The induced subgraph on the marked switches, its cables already
       in wire order. *)
    Some { route; backup_route; b_sub = sub_of ~switches:(marked mark) (Adjacency.induced snap mark) }

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

(* The subgraph's CSR, or with [avoid] a CSR of the cables left. *)
let csr_avoiding t = function
  | Some avoid when not (Link_set.is_empty avoid) ->
    let kept = ref [] in
    iter_cables t (fun a pa b pb ->
        if not (Link_set.mem (Link_key.make { sw = a; port = pa } { sw = b; port = pb }) avoid) then
          kept := pb :: b :: pa :: a :: !kept);
    let cables = Array.of_list (List.rev !kept) in
    if Array.length cables = Array.length t.sub.cables then t.sub.csr
    else Adjacency.of_cables ~switches:t.sub.switches cables
  | Some _ | None -> t.sub.csr

let k_routes ?rng ?avoid t ~k =
  let csr = csr_avoiding t avoid in
  Adjacency.k_shortest_routes ?rng csr ~src:t.src_loc.sw ~dst:t.dst_loc.sw ~k
  |> List.filter_map (fun route ->
         Path.of_route_toward ~toward:(Adjacency.lowest_port_toward csr) ~src:t.src
           ~src_loc:t.src_loc ~dst:t.dst ~dst_loc:t.dst_loc route)

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
  let c = t.sub.cables in
  let rec edges i acc =
    if i < 0 then acc
    else
      edges (i - 1)
        (({ sw = c.(4 * i); port = c.((4 * i) + 1) }, { sw = c.((4 * i) + 2); port = c.((4 * i) + 3) })
        :: acc)
  in
  {
    w_src = t.src;
    w_dst = t.dst;
    w_src_loc = t.src_loc;
    w_dst_loc = t.dst_loc;
    w_primary = t.primary;
    w_backup = t.backup;
    w_edges = edges (link_count t - 1) [];
  }

(* The distinct ids of [extra] and of every cable end, ascending. *)
let[@dumbnet.hot] switches_of cables extra =
  let ends = List.init (Array.length cables / 2) (fun i -> cables.(2 * i)) in
  Array.of_list (List.sort_uniq Int.compare (extra @ ends))

let[@dumbnet.hot] of_wire w =
  (* Canonical cables whatever the sender listed: each end order, in any
     order, duplicated. A port cabled to itself is no cable. *)
  let keys =
    List.filter_map
      (fun (a, b) -> if a.sw = b.sw && a.port = b.port then None else Some (Link_key.make a b))
      w.w_edges
    |> List.sort_uniq Link_key.compare
  in
  let cables = Array.make (4 * List.length keys) 0 in
  List.iteri
    (fun i key ->
      let a, b = Link_key.ends key in
      cables.(4 * i) <- a.sw;
      cables.((4 * i) + 1) <- a.port;
      cables.((4 * i) + 2) <- b.sw;
      cables.((4 * i) + 3) <- b.port)
    keys;
  {
    src = w.w_src;
    dst = w.w_dst;
    src_loc = w.w_src_loc;
    dst_loc = w.w_dst_loc;
    primary = w.w_primary;
    backup = w.w_backup;
    sub = sub_of ~switches:(switches_of cables [ w.w_src_loc.sw; w.w_dst_loc.sw ]) cables;
  }

let equal_end (a : link_end) (b : link_end) = a.sw = b.sw && a.port = b.port

let equal a b =
  a.src = b.src && a.dst = b.dst && equal_end a.src_loc b.src_loc && equal_end a.dst_loc b.dst_loc
  && Path.equal a.primary b.primary
  && Option.equal Path.equal a.backup b.backup
  && (a.sub == b.sub
     || Array.length a.sub.cables = Array.length b.sub.cables
        && Array.for_all2 Int.equal a.sub.cables b.sub.cables)

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
  c_cables : int array;  (* the graph's own cable array, shared *)
}

let compact_src c = c.c_src

let compact_dst c = c.c_dst

let compact_cables c = c.c_cables

let compact_switch_count c = Array.length (switches_of c.c_cables [ c.c_src_sw; c.c_dst_sw ])

let to_compact arena t =
  let path_arrays (p : Path.t) =
    (Array.of_list (List.map fst p.Path.hops), Tag_arena.intern arena (Path.tags p))
  in
  let primary_sw, primary_tags = path_arrays t.primary in
  let backup_sw, backup_tags =
    match t.backup with
    | None -> ([||], -1)
    | Some p -> path_arrays p
  in
  {
    c_src = t.src;
    c_dst = t.dst;
    c_src_sw = t.src_loc.sw;
    c_src_port = t.src_loc.port;
    c_dst_sw = t.dst_loc.sw;
    c_dst_port = t.dst_loc.port;
    c_primary_sw = primary_sw;
    c_primary_tags = primary_tags;
    c_backup_sw = backup_sw;
    c_backup_tags = backup_tags;
    c_cables = t.sub.cables;
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
  {
    src = c.c_src;
    dst = c.c_dst;
    src_loc = { sw = c.c_src_sw; port = c.c_src_port };
    dst_loc = { sw = c.c_dst_sw; port = c.c_dst_port };
    primary = path c.c_primary_sw c.c_primary_tags;
    backup = (if c.c_backup_tags < 0 then None else Some (path c.c_backup_sw c.c_backup_tags));
    sub = sub_of ~switches:(switches_of c.c_cables [ c.c_src_sw; c.c_dst_sw ]) c.c_cables;
  }

(* The sorted union of two sorted, distinct arrays of [stride]-int
   records; [None] when it is [x] itself, so no array is built. *)
let union ~stride (x : int array) (y : int array) =
  let nx = Array.length x / stride and ny = Array.length y / stride in
  (* [emit] gets the array and record index of each union record. *)
  let walk emit =
    let i = ref 0 and j = ref 0 in
    while !i < nx || !j < ny do
      if !j >= ny then begin
        emit x !i;
        incr i
      end
      else if !i >= nx then begin
        emit y !j;
        incr j
      end
      else begin
        let c = compare_record ~stride x !i y !j in
        if c <= 0 then begin
          emit x !i;
          incr i;
          if c = 0 then incr j
        end
        else begin
          emit y !j;
          incr j
        end
      end
    done
  in
  let n = ref 0 in
  walk (fun _ _ -> incr n);
  if !n = nx then None
  else begin
    let out = Array.make (stride * !n) 0 in
    let k = ref 0 in
    walk (fun src r ->
        Array.blit src (stride * r) out (stride * !k) stride;
        incr k);
    Some out
  end

let merge a b =
  if a.src <> b.src || a.dst <> b.dst then invalid_arg "Pathgraph.merge: different endpoints";
  if a.sub == b.sub then a
  else
    match (union ~stride:4 a.sub.cables b.sub.cables, union ~stride:1 a.sub.switches b.sub.switches) with
    | None, None -> a
    | cables, switches ->
      let cables = Option.value cables ~default:a.sub.cables in
      let switches = Option.value switches ~default:a.sub.switches in
      let sub =
        if Array.length cables = Array.length b.sub.cables
           && Array.length switches = Array.length b.sub.switches
        then b.sub
        else sub_of ~switches cables
      in
      { a with sub }

let pp ppf t =
  Format.fprintf ppf "pathgraph H%d->H%d: primary=%a backup=%s switches=%d links=%d" t.src t.dst
    Path.pp t.primary
    (match t.backup with
    | Some p -> Format.asprintf "%a" Path.pp p
    | None -> "none")
    (switch_count t) (link_count t)
