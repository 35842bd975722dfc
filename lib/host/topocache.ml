open Dumbnet_topology
open Types

module End_set = Set.Make (struct
  type t = link_end

  let compare = compare
end)

type t = {
  k : int;
  rng : Dumbnet_util.Rng.t;
  graphs : (host_id, Pathgraph.t) Hashtbl.t;
  mutable failed : End_set.t;
}

let create ?(k = 4) ~rng () =
  if k < 1 then invalid_arg "Topocache.create: k must be >= 1";
  { k; rng; graphs = Hashtbl.create 32; failed = End_set.empty }

let k t = t.k

let insert t pg =
  let dst = Pathgraph.dst pg in
  match Hashtbl.find_opt t.graphs dst with
  | None -> Hashtbl.replace t.graphs dst pg
  | Some existing -> Hashtbl.replace t.graphs dst (Pathgraph.merge pg existing)

let get t ~dst = Hashtbl.find_opt t.graphs dst

let known t = Hashtbl.fold (fun dst _ acc -> dst :: acc) t.graphs [] |> List.sort compare

let switch_footprint t = Hashtbl.fold (fun _ pg acc -> acc + Pathgraph.switch_count pg) t.graphs 0

let note_end t le ~up =
  t.failed <- (if up then End_set.remove le t.failed else End_set.add le t.failed)

let failed_ends t = End_set.elements t.failed

let resolve_in_pathgraph pg le = Adjacency.peer_at (Pathgraph.adjacency pg) le

let resolve_end t le =
  Hashtbl.fold
    (fun _ pg acc ->
      match acc with
      | Some _ -> acc
      | None -> resolve_in_pathgraph pg le)
    t.graphs None

(* Translate the failed-end overlay into link keys local to one cached
   subgraph. *)
let avoid_set t pg =
  End_set.fold
    (fun le acc ->
      match resolve_in_pathgraph pg le with
      | Some other -> Link_set.add (Link_key.make le other) acc
      | None -> acc)
    t.failed Link_set.empty

let materialize t ~dst =
  match Hashtbl.find_opt t.graphs dst with
  | None -> None
  | Some pg -> (
    let avoid = avoid_set t pg in
    match Pathgraph.k_routes ~rng:t.rng ~avoid pg ~k:t.k with
    | [] -> None
    | all_paths ->
      (* Load-balance only across equal-cost shortest paths: spreading
         flows onto strictly longer routes wastes fabric capacity. *)
      let best = List.fold_left (fun acc p -> min acc (Path.length p)) max_int all_paths in
      let paths = List.filter (fun p -> Path.length p = best) all_paths in
      let crosses_failed b = Link_set.exists (fun key -> Path.crosses b key) avoid in
      let backup =
        match Pathgraph.backup pg with
        | Some b when (not (crosses_failed b)) && not (List.exists (Path.equal b) paths) ->
          Some b
        | Some _ | None -> None
      in
      Some { Pathtable.paths; backup })

let reveal t ~dst =
  match Hashtbl.find_opt t.graphs dst with
  | None -> None
  | Some pg -> Some (Pathgraph.adjacency ~avoid:(avoid_set t pg) pg)
