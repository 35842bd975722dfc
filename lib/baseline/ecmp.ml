open Dumbnet_topology
open Types

(* Enumerate shortest paths by DFS over the BFS distance DAG. *)
let equal_cost_paths ?(cap = 16) g ~src ~dst =
  if src = dst then []
  else
    match (Graph.host_location g src, Graph.host_location g dst) with
    | Some src_loc, Some dst_loc when Graph.link_up g src_loc && Graph.link_up g dst_loc ->
      let snap = Graph.adjacency g in
      let dist = Adjacency.bfs_distances snap ~from:dst_loc.sw in
      let routes = ref [] in
      let count = ref 0 in
      let rec dfs sw acc =
        if !count < cap then begin
          if sw = dst_loc.sw then begin
            incr count;
            routes := List.rev (sw :: acc) :: !routes
          end
          else
            let d = Adjacency.distance dist sw in
            if d > 0 then
              List.iter
                (fun peer -> if Adjacency.distance dist peer = d - 1 then dfs peer (sw :: acc))
                (List.sort_uniq Int.compare
                   (List.map (fun (_, peer, _) -> peer) (Adjacency.neighbors snap sw)))
        end
      in
      dfs src_loc.sw [];
      List.rev !routes |> List.filter_map (Path.of_route snap ~src ~src_loc ~dst ~dst_loc)
    | Some _, Some _ | None, _ | _, None -> []

let choose ~flow paths =
  match paths with
  | [] -> None
  | _ -> List.nth_opt paths (abs (Hashtbl.hash flow) mod List.length paths)

type t = {
  g : Graph.t;
  cache : (host_id * host_id, Path.t list) Hashtbl.t;
}

let create g = { g; cache = Hashtbl.create 64 }

let invalidate t = Hashtbl.reset t.cache

let paths_between t ~src ~dst =
  match Hashtbl.find_opt t.cache (src, dst) with
  | Some p -> p
  | None ->
    let p = equal_cost_paths t.g ~src ~dst in
    Hashtbl.replace t.cache (src, dst) p;
    p

let routing_fn t agent ~now_ns:_ ~dst ~flow =
  choose ~flow (paths_between t ~src:(Dumbnet_host.Agent.self agent) ~dst)
