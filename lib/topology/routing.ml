open Types
module Rng = Dumbnet_util.Rng

(* The CSR snapshot's prebuilt lists make each call an index lookup
   instead of a fresh walk over the switch's port table. The snapshot is
   re-fetched per call (a generation compare) so the closure keeps
   tracking a mutating graph, like the old direct view did. *)
let graph_adjacency g sw = Adjacency.neighbors (Graph.adjacency g) sw

let bfs_distances adj ~from =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist from 0;
  let q = Queue.create () in
  Queue.add from q;
  while not (Queue.is_empty q) do
    let sw = Queue.pop q in
    let[@dumbnet.partial
         "BFS invariant: every queued switch was given a distance when enqueued; \
          find_opt would box an option per visited edge on the hottest routing loop"] d =
      Hashtbl.find dist sw
    in
    List.iter
      (fun (_, peer, _) ->
        if not (Hashtbl.mem dist peer) then begin
          Hashtbl.replace dist peer (d + 1);
          Queue.add peer q
        end)
      (adj sw)
  done;
  dist

(* BFS from [dst] gives distances-to-destination; we then walk from
   [src] greedily to any neighbour one step closer, picking uniformly at
   random among the candidates when [rng] is provided. This yields a
   uniform-ish choice among shortest routes without enumerating them.
   [dist] reads a table (negative = unreachable), so the same walk runs
   over the closure BFS's Hashtbl and the controller's id-indexed
   arrays. *)
let[@dumbnet.hot] route_via_distances ?rng adj ~src ~dst dist =
  let d0 = dist src in
  if d0 < 0 then None
  else
    let pick_next sw d =
      let candidates =
        List.filter_map
          (fun (_, peer, _) ->
            let dp = dist peer in
            if dp >= 0 && dp = d - 1 then Some peer else None)
          (adj sw)
        |> List.sort_uniq Int.compare
      in
      match (candidates, rng) with
      | [], _ -> None
      | l, Some rng -> Some (Rng.pick rng l)
      | x :: _, None -> Some x
    in
    let rec go sw d acc =
      if sw = dst then Some (List.rev (sw :: acc))
      else
        match pick_next sw d with
        | None -> None
        | Some next -> go next (d - 1) (sw :: acc)
    in
    go src d0 []

let shortest_route ?rng adj ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let dist = bfs_distances adj ~from:dst in
    route_via_distances ?rng adj ~src ~dst (fun sw ->
        match Hashtbl.find_opt dist sw with
        | Some d -> d
        | None -> -1)
  end

let filtered_adjacency ~banned_nodes ~banned_edges adj =
  (* Yen's inner loop queries this per edge per BFS visit: a hash set
     over both orientations replaces the old linear scan of the ban
     list. *)
  let banned = Hashtbl.create ((2 * List.length banned_edges) + 1) in
  List.iter
    (fun (x, y) ->
      Hashtbl.replace banned (x, y) ();
      Hashtbl.replace banned (y, x) ())
    banned_edges;
  fun sw ->
    if Switch_set.mem sw banned_nodes then []
    else
      List.filter
        (fun (_, peer, _) ->
          (not (Switch_set.mem peer banned_nodes)) && not (Hashtbl.mem banned (sw, peer)))
        (adj sw)

let shortest_route_avoiding ?rng ~banned_nodes ~banned_edges adj ~src ~dst =
  shortest_route ?rng (filtered_adjacency ~banned_nodes ~banned_edges adj) ~src ~dst

let[@dumbnet.hot] weighted_route ~weight adj ~src ~dst =
  let module H = Dumbnet_util.Heap in
  let dist : (switch_id, float) Hashtbl.t = Hashtbl.create 64 in
  let prev : (switch_id, switch_id) Hashtbl.t = Hashtbl.create 64 in
  let settled = Hashtbl.create 64 in
  let heap = H.create ~compare:Float.compare in
  Hashtbl.replace dist src 0.;
  H.push heap 0. src;
  let finished = ref false in
  while (not !finished) && not (H.is_empty heap) do
    match H.pop heap with
    | None -> finished := true
    | Some (d, sw) ->
      if not (Hashtbl.mem settled sw) then begin
        Hashtbl.replace settled sw ();
        if sw = dst then finished := true
        else
          List.iter
            (fun (out, peer, peer_in) ->
              let w = weight { sw; port = out } { sw = peer; port = peer_in } in
              let alt = d +. w in
              let better =
                match Hashtbl.find_opt dist peer with
                | None -> true
                | Some cur -> alt < cur
              in
              if better then begin
                Hashtbl.replace dist peer alt;
                Hashtbl.replace prev peer sw;
                H.push heap alt peer
              end)
            (adj sw)
      end
  done;
  if src = dst then Some [ src ]
  else if not (Hashtbl.mem dist dst && Hashtbl.mem prev dst) then None
  else begin
    let rec backtrack sw acc =
      if sw = src then Some (src :: acc)
      else
        match Hashtbl.find_opt prev sw with
        | Some p -> backtrack p (sw :: acc)
        | None -> None (* broken predecessor chain: treat as unreachable *)
    in
    backtrack dst []
  end

let primary_penalty = 100

let[@dumbnet.hot] penalize route =
  let rec pairs acc = function
    | [] | [ _ ] -> acc
    | a :: (b :: _ as rest) -> pairs ((a, b) :: acc) rest
  in
  let on_route = pairs [] route in
  fun (e1 : link_end) (e2 : link_end) ->
    if List.exists (fun (a, b) -> (a = e1.sw && b = e2.sw) || (a = e2.sw && b = e1.sw)) on_route
    then float_of_int primary_penalty
    else 1.

(* Exact shortcut for [weighted_route ~weight:(penalize primary)]: the
   penalized Dijkstra breaks ties FIFO, so while its frontier stays
   below [primary_penalty] it pops and relaxes in exactly the order of
   a BFS that skips the primary's cables (DESIGN.md §13). *)
let[@dumbnet.hot] backup_route snap ~primary ~src ~dst =
  match Adjacency.route_avoiding snap ~avoid:primary ~max_hops:primary_penalty ~src ~dst with
  | Adjacency.Route r -> Some r
  | Adjacency.Too_long | Adjacency.Unreachable ->
    weighted_route ~weight:(penalize primary) (Adjacency.fn snap) ~src ~dst

let host_endpoints g ~src ~dst =
  if src = dst then None
  else
    match (Graph.host_location g src, Graph.host_location g dst) with
    | Some src_loc, Some dst_loc when Graph.link_up g src_loc && Graph.link_up g dst_loc ->
      Some (src_loc, dst_loc)
    | Some _, Some _ | None, _ | _, None -> None

let host_route ?rng g ~src ~dst =
  match host_endpoints g ~src ~dst with
  | None -> None
  | Some (src_loc, dst_loc) -> (
    let adj = graph_adjacency g in
    match shortest_route ?rng adj ~src:src_loc.sw ~dst:dst_loc.sw with
    | None -> None
    | Some route -> Path.of_route ~adj ~src ~src_loc ~dst ~dst_loc route)

let k_host_paths ?rng g ~src ~dst ~k =
  match host_endpoints g ~src ~dst with
  | None -> []
  | Some (src_loc, dst_loc) ->
    let snap = Graph.adjacency g in
    let adj = Adjacency.fn snap in
    Adjacency.k_shortest_routes ?rng snap ~src:src_loc.sw ~dst:dst_loc.sw ~k
    |> List.filter_map (fun route -> Path.of_route ~adj ~src ~src_loc ~dst ~dst_loc route)
