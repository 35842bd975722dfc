open Types

let primary_penalty = 100

(* Exact shortcut for the penalized Dijkstra: it breaks ties FIFO, so
   while its frontier stays below [primary_penalty] it pops and relaxes
   in exactly the order of a BFS that skips the primary's cables
   (DESIGN.md §13). *)
let[@dumbnet.hot] backup_route snap ~primary ~src ~dst =
  match Adjacency.route_avoiding snap ~avoid:primary ~max_hops:primary_penalty ~src ~dst with
  | Adjacency.Route r -> Some r
  | Adjacency.Too_long | Adjacency.Unreachable ->
    Adjacency.penalized_route snap ~penalty:primary_penalty ~avoid:primary ~src ~dst

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
  | Some (src_loc, dst_loc) ->
    let snap = Graph.adjacency g in
    Option.bind (Adjacency.shortest_route ?rng snap ~src:src_loc.sw ~dst:dst_loc.sw)
      (Path.of_route snap ~src ~src_loc ~dst ~dst_loc)

let k_host_paths ?rng g ~src ~dst ~k =
  match host_endpoints g ~src ~dst with
  | None -> []
  | Some (src_loc, dst_loc) ->
    let snap = Graph.adjacency g in
    Adjacency.k_shortest_routes ?rng snap ~src:src_loc.sw ~dst:dst_loc.sw ~k
    |> List.filter_map (Path.of_route snap ~src ~src_loc ~dst ~dst_loc)
