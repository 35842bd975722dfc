(** Table 1: code-size breakdown of the implementation, set against the
    paper's C/C++ numbers. Our lines are counted from the source tree at
    run time, so the table always reflects the checked-out code. *)

let count_file path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let rec count_dir path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left
      (fun acc entry -> acc + count_dir (Filename.concat path entry))
      0 (Sys.readdir path)
  | false -> if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then count_file path else 0
  | exception Sys_error _ -> 0

(* The bench may run from the repo root or from _build; find lib/. *)
let find_lib_root () =
  let candidates = [ "lib"; "../lib"; "../../lib"; "../../../lib"; "../../../../lib" ] in
  List.find_opt (fun p -> Sys.file_exists p && Sys.is_directory p) candidates

let run () =
  Report.section ~id:"Table 1" ~title:"Code breakdown in different modules";
  match find_lib_root () with
  | None -> Report.note "source tree not found from the current directory; skipping counts"
  | Some root ->
    let dir d = count_dir (Filename.concat root d) in
    let file d f = count_file (Filename.concat root (Filename.concat d f)) in
    let agent = dir "host" + dir "packet" in
    let disc = file "control" "discovery.ml" + file "control" "discovery.mli"
               + file "control" "probe_walk.ml" + file "control" "probe_walk.mli" in
    let maint =
      file "control" "topo_store.ml" + file "control" "topo_store.mli"
      + file "control" "replica.ml" + file "control" "replica.mli"
      + file "control" "event_dedup.ml" + file "control" "event_dedup.mli"
    in
    let graph = dir "topology" in
    let flowlet = file "ext" "flowlet.ml" + file "ext" "flowlet.mli" in
    let router = file "ext" "l3_router.ml" + file "ext" "l3_router.mli" in
    let total = dir "" in
    let rows =
      [
        [ "Agent (host data path)"; "5000"; string_of_int agent ];
        [ "Discovery"; "600"; string_of_int disc ];
        [ "Maintenance"; "200"; string_of_int maint ];
        [ "Graph"; "1700"; string_of_int graph ];
        [ "Total (core)"; "7500"; string_of_int total ];
        [ "+Flowlet"; "100"; string_of_int flowlet ];
        [ "+Router"; "100"; string_of_int router ];
      ]
    in
    Report.table ~headers:[ "module"; "paper (C/C++ LoC)"; "this repo (OCaml LoC)" ] rows;
    Report.note
      "Our total includes the substrates the paper got for free (a network simulator, \
       workload generators); the per-module shape — a large host agent, small discovery \
       and maintenance, tiny extensions — is what Table 1 demonstrates."
