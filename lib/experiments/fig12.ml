(** Figure 12: path-graph size versus the ε detour budget on a
    10×10×10 cube, s fixed at 2, for primary paths of length 2, 5, 10
    and 15 — the storage/resilience trade-off of §4.3. We report both
    metrics the paper discusses: the number of distinct paths the
    subgraph encodes (the figure's y-axis) and the number of switches
    cached (the storage cost in the text). *)

open Dumbnet_topology
module Rng = Dumbnet_util.Rng
module Stats = Dumbnet_util.Stats

let samples_per_point = 5

(* Host pairs whose switch distance is exactly [len]. *)
let pairs_at_distance g rng hosts ~len ~count =
  let snap = Graph.adjacency g in
  let located =
    List.filter_map
      (fun h -> Option.map (fun loc -> (h, loc.Types.sw)) (Graph.host_location g h))
      hosts
  in
  let arr = Array.of_list located in
  let found = ref [] in
  let attempts = ref 0 in
  while List.length !found < count && !attempts < 2000 do
    incr attempts;
    let src, src_sw = Rng.pick_array rng arr in
    let dist = Adjacency.bfs_distances snap ~from:src_sw in
    let candidates =
      List.filter (fun (h, sw) -> h <> src && Adjacency.distance dist sw = len - 1) located
    in
    match candidates with
    | [] -> ()
    | _ ->
      let dst, _ = Rng.pick rng candidates in
      found := (src, dst) :: !found
  done;
  !found

(* Simple a->b paths of bounded length in the full graph (DFS). *)
let count_segment_paths snap ~src ~dst ~max_len ~cap =
  let count = ref 0 in
  let visited = Hashtbl.create 16 in
  let rec dfs sw depth =
    if !count < cap then begin
      if sw = dst then incr count
      else if depth < max_len then begin
        Hashtbl.replace visited sw ();
        List.iter
          (fun (_, peer, _) -> if not (Hashtbl.mem visited peer) then dfs peer (depth + 1))
          (Adjacency.neighbors snap sw);
        Hashtbl.remove visited sw
      end
    end
  in
  dfs src 0;
  !count

(* The figure's metric: primary + backup + the s-step local detours
   summed over Algorithm 1's windows (stride s/2). *)
let additive_path_count g ~s ~eps pg =
  let snap = Graph.adjacency g in
  let route = Array.of_list (Path.switches (Pathgraph.primary pg)) in
  let len = Array.length route in
  let stride = max 1 (s / 2) in
  let detours = ref 0 in
  let i = ref 0 in
  while !i < len - 1 do
    let a = route.(!i) in
    let b_idx = min (!i + s) (len - 1) in
    let window = b_idx - !i in
    let alternatives =
      count_segment_paths snap ~src:a ~dst:route.(b_idx) ~max_len:(window + eps) ~cap:10_000
    in
    (* The primary's own segment is one of them. *)
    detours := !detours + max 0 (alternatives - 1);
    i := !i + stride
  done;
  1 + (match Pathgraph.backup pg with Some _ -> 1 | None -> 0) + !detours

let run () =
  Report.section ~id:"Figure 12" ~title:"Path graph size vs ε (10^3 cube, s=2)";
  let rng = Rng.create 41 in
  let built = Builder.cube ~n:10 ~controller_at:`Corner () in
  let g = built.Builder.graph in
  let eps_values = [ 0; 1; 2; 3; 4 ] in
  let headers =
    "primary len" :: List.map (fun e -> Printf.sprintf "eps=%d" e) eps_values
  in
  let measure metric =
    List.map
      (fun len ->
        let pairs = pairs_at_distance g rng built.Builder.hosts ~len ~count:samples_per_point in
        Printf.sprintf "len=%d" len
        :: List.map
             (fun eps ->
               let values =
                 List.filter_map
                   (fun (src, dst) ->
                     Option.map (metric ~eps) (Pathgraph.generate ~s:2 ~eps ~rng g ~src ~dst))
                   pairs
               in
               match values with
               | [] -> "-"
               | _ -> Printf.sprintf "%.0f" (Stats.mean (List.map float_of_int values)))
             eps_values)
      [ 2; 5; 10; 15 ]
  in
  Report.note
    "Path graph size (switches cached) — the cost metric of §4.3/Fig 12; the paper's \
     curves reach ~150 at len=15, ε=4:";
  Report.table ~headers (measure (fun ~eps:_ pg -> Pathgraph.switch_count pg));
  Report.note "Alternative view: primary + backup + local detours over Algorithm 1's windows:";
  Report.table ~headers (measure (fun ~eps pg -> additive_path_count g ~s:2 ~eps pg));
  Report.note
    "Shape: longer primaries cost much more at larger ε (lots of extra caching), while \
     short paths stay reasonable even with a large ε — the paper's conclusion."
