(** `bench scale`: the mega-fabric curve of the controller's path
    service ({!Dumbnet_control.Topo_store}) and push ledger
    ({!Dumbnet_control.Ledger}) — path graphs/sec, live memory, interned
    vs raw bytes per cached (src, dst) pair, and failure repair-scoping
    vs fabric size — across fat trees k ∈ {8, 16, 32, 48} and jellyfish
    {64, 256, 1024}. Writes BENCH_SCALE.json and BENCH_SCALE.md (the
    README's scale table, spliced by `make scale-table`). With [quick]
    set (`bench scale --quick`), only the small points run, budgets
    shrink, and the run fails if the interned arena stops paying for
    itself or throughput regresses past the committed baseline. *)

open Dumbnet_topology
open Dumbnet_packet
module Topo_store = Dumbnet_control.Topo_store
module Ledger = Dumbnet_control.Ledger
module Tag_arena = Dumbnet_topology.Tag_arena
module Rng = Dumbnet_util.Rng

let quick = ref false

let json_path = "BENCH_SCALE.json"

let md_path = "BENCH_SCALE.md"

(* CI smoke floors (`--quick`): committed throughput of the gated small
   points on the reference machine. A fresh quick run must reach
   [baseline / max_regression]. Large points are curve data, not gates
   — their wall time varies too much across hosts. *)
let committed : (string * float) list =
  [ ("fat_tree_k8", 21981.); ("fat_tree_k16", 2829.); ("jellyfish_64", 22634.) ]

(* --- the size curve --------------------------------------------------- *)

type point = {
  pt_name : string;
  pt_small : bool;  (** runs under --quick *)
  pt_build : unit -> Builder.built;
}

let points =
  [
    { pt_name = "fat_tree_k8"; pt_small = true; pt_build = (fun () -> Builder.fat_tree ~k:8 ()) };
    {
      pt_name = "fat_tree_k16";
      pt_small = true;
      pt_build = (fun () -> Builder.fat_tree ~k:16 ());
    };
    {
      pt_name = "fat_tree_k32";
      pt_small = false;
      pt_build = (fun () -> Builder.fat_tree ~k:32 ());
    };
    {
      pt_name = "fat_tree_k48";
      pt_small = false;
      pt_build = (fun () -> Builder.fat_tree ~k:48 ());
    };
    {
      pt_name = "jellyfish_64";
      pt_small = true;
      pt_build = (fun () -> Builder.jellyfish ~switches:64 ());
    };
    {
      pt_name = "jellyfish_256";
      pt_small = false;
      pt_build = (fun () -> Builder.jellyfish ~switches:256 ());
    };
    {
      pt_name = "jellyfish_1024";
      pt_small = false;
      pt_build = (fun () -> Builder.jellyfish ~switches:1024 ());
    };
  ]

(* --- measurement helpers ---------------------------------------------- *)

let now () = Unix.gettimeofday ()

(* Live heap words after a full compaction. The heap size and RSS are
   high-water marks, which only ever grow across the curve's points. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Distinct host pairs, deterministically sampled; src <> dst. *)
let sample_pairs built rng n =
  let hosts = Array.of_list built.Builder.hosts in
  let count = Array.length hosts in
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  let misses = ref 0 in
  while Hashtbl.length seen < n && !misses < 50 * n do
    let src = hosts.(Rng.int rng count) in
    let dst = hosts.(Rng.int rng count) in
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.replace seen (src, dst) ();
      out := (src, dst) :: !out
    end
    else incr misses
  done;
  Array.of_list (List.rev !out)

type result = {
  r_name : string;
  r_switches : int;
  r_hosts : int;
  r_cables : int;
  r_graphs_per_sec : float;
  r_ledger_pairs : int;
  r_interned_bytes_per_pair : float;
  r_uninterned_bytes_per_pair : float;
  r_arena_stacks : int;
  r_arena_bytes : int;
  r_arena_interns : int;
  r_repair_events : int;
  r_affected_per_event : float;
  r_scoping_factor : float;  (** cached pairs / affected per event *)
  r_evicted_per_event : float;
  r_retained_per_event : float;
  r_live_mib : float;  (** live heap the point's fabric and controller hold *)
  r_point_s : float;  (** wall seconds the whole point took *)
}

let word_bytes = Sys.word_size / 8

(* A point's memory is the live-words delta across it, so the order of
   the curve cannot leak one point's heap into the next one's row. *)
let measure pt =
  let t_start = now () in
  let live0 = live_words () in
  let built = pt.pt_build () in
  let g = built.Builder.graph in
  let switches = Graph.num_switches g in
  let cables = List.length (Graph.switch_links g) in
  let store = Topo_store.create g in
  let ledger = Ledger.create () in
  (* Throughput: rotate through a fixed pair sample, exactly how the
     query service sees bootstrap and re-push storms. The first lap
     pays the BFS memoization; steady state is what's metered. *)
  let rng = Rng.create 7 in
  let tp_pairs = sample_pairs built rng (if !quick then 24 else 64) in
  let tp_n = Array.length tp_pairs in
  Array.iter (fun (src, dst) -> ignore (Topo_store.serve_path_graph store ~src ~dst)) tp_pairs;
  let budget = if !quick then 0.2 else 1.0 in
  let t0 = now () in
  let served = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < budget do
    let src, dst = tp_pairs.(!served mod tp_n) in
    ignore (Topo_store.serve_path_graph store ~src ~dst);
    incr served;
    elapsed := now () -. t0
  done;
  let graphs_per_sec = float_of_int !served /. !elapsed in
  (* Memory budget: push a ledger of distinct pairs through the shared
     arena, and price the same path graphs held raw — the
     representation the controller shipped before interning. *)
  let ledger_pairs = sample_pairs built rng (if !quick then 64 else 256) in
  let raw = Hashtbl.create (Array.length ledger_pairs) in
  let subscribed = ref Types.Link_set.empty in
  Array.iter
    (fun (src, dst) ->
      match Topo_store.serve_path_graph store ~src ~dst with
      | None -> ()
      | Some pg ->
        Ledger.record_push ledger (Pathgraph.to_wire pg);
        subscribed := Types.Link_set.union !subscribed (Pathgraph.links pg);
        Hashtbl.replace raw (src, dst) pg)
    ledger_pairs;
  let pushed = Ledger.pairs ledger in
  let per_pair words = float_of_int (words * word_bytes) /. float_of_int (max 1 pushed) in
  let interned_bytes_per_pair = per_pair (Ledger.words ledger) in
  let uninterned_bytes_per_pair = per_pair (Obj.reachable_words (Obj.repr raw)) in
  Hashtbl.reset raw;
  let arena = Ledger.arena ledger in
  (* Repair scoping: fail cables one at a time (restoring off the
     books) and count how much of the fabric each one drags in —
     invalidated ledger pairs, distance tables evicted vs retained. Failures are drawn from the cables the
     ledger actually covers: at mega-fabric sizes a sampled ledger
     subscribes a thin slice of all cables, and failing an uncovered
     cable measures nothing. *)
  let repair_events = if !quick then 4 else 16 in
  let cable_keys = Array.of_list (Types.Link_set.elements !subscribed) in
  let seq = ref 0 in
  let affected_total = ref 0 in
  let stats0 = Topo_store.repair_stats store in
  for _ = 1 to repair_events do
    let key = cable_keys.(Rng.int rng (Array.length cable_keys)) in
    let a, b = Types.Link_key.ends key in
    incr seq;
    ignore (Topo_store.apply_event store { Payload.position = a; up = false; event_seq = !seq });
    affected_total :=
      !affected_total + List.length (Ledger.affected_pairs ledger [ Payload.Link_failed (a, b) ]);
    incr seq;
    ignore (Topo_store.apply_event store { Payload.position = a; up = true; event_seq = !seq })
  done;
  let stats1 = Topo_store.repair_stats store in
  let per_event v = float_of_int v /. float_of_int repair_events in
  let affected_per_event = per_event !affected_total in
  let live_mib =
    float_of_int ((live_words () - live0) * word_bytes) /. (1024. *. 1024.)
  in
  (* Keep the fabric and controller reachable until the count above. *)
  ignore (Sys.opaque_identity (built, store, ledger));
  {
    r_name = pt.pt_name;
    r_switches = switches;
    r_hosts = List.length built.Builder.hosts;
    r_cables = cables;
    r_graphs_per_sec = graphs_per_sec;
    r_ledger_pairs = pushed;
    r_interned_bytes_per_pair = interned_bytes_per_pair;
    r_uninterned_bytes_per_pair = uninterned_bytes_per_pair;
    r_arena_stacks = Tag_arena.stacks arena;
    r_arena_bytes = Tag_arena.bytes arena;
    r_arena_interns = Tag_arena.interns arena;
    r_repair_events = repair_events;
    r_affected_per_event = affected_per_event;
    r_scoping_factor =
      (if affected_per_event > 0. then float_of_int pushed /. affected_per_event else 0.);
    r_evicted_per_event =
      per_event (stats1.Topo_store.evicted_roots - stats0.Topo_store.evicted_roots);
    r_retained_per_event =
      per_event (stats1.Topo_store.retained_roots - stats0.Topo_store.retained_roots);
    r_live_mib = live_mib;
    r_point_s = now () -. t_start;
  }

(* --- output ------------------------------------------------------------ *)

let write_json ~max_regression results =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"quick\": %b,\n" !quick;
  p "    \"max_regression\": %.2f,\n" max_regression;
  p "    \"word_bytes\": %d,\n" word_bytes;
  p "    \"points\": [%s]\n"
    (String.concat ", " (List.map (fun r -> Printf.sprintf "\"%s\"" r.r_name) results));
  p "  },\n";
  p "  \"curve\": [\n";
  let rec rows = function
    | [] -> ()
    | r :: rest ->
      p "    {\"name\": \"%s\", \"switches\": %d, \"hosts\": %d, \"cables\": %d, \
         \"pathgraphs_per_sec\": %.1f, \"ledger_pairs\": %d, \
         \"interned_bytes_per_pair\": %.1f, \"uninterned_bytes_per_pair\": %.1f, \
         \"arena_stacks\": %d, \"arena_bytes\": %d, \"arena_interns\": %d, \
         \"repair_events\": %d, \"affected_pairs_per_event\": %.2f, \
         \"repair_scoping_factor\": %.1f, \
         \"evicted_roots_per_event\": %.1f, \"retained_roots_per_event\": %.1f, \
         \"live_mib\": %.1f, \"point_seconds\": %.1f}%s\n"
        r.r_name r.r_switches r.r_hosts r.r_cables r.r_graphs_per_sec r.r_ledger_pairs
        r.r_interned_bytes_per_pair
        r.r_uninterned_bytes_per_pair r.r_arena_stacks r.r_arena_bytes r.r_arena_interns
        r.r_repair_events r.r_affected_per_event r.r_scoping_factor r.r_evicted_per_event r.r_retained_per_event r.r_live_mib r.r_point_s
        (if rest = [] then "" else ",");
      rows rest
  in
  rows results;
  p "  ]\n";
  p "}\n";
  close_out oc

let write_markdown results =
  let oc = open_out md_path in
  let p fmt = Printf.fprintf oc fmt in
  p "| fabric | switches | hosts | path graphs/s | B/pair interned | B/pair raw | \
     compression | repair scoping | live MiB |\n";
  p "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun r ->
      p "| %s | %d | %d | %.0f | %.0f | %.0f | %.1fx | %.0fx | %.1f |\n" r.r_name
        r.r_switches r.r_hosts r.r_graphs_per_sec r.r_interned_bytes_per_pair
        r.r_uninterned_bytes_per_pair
        (if r.r_interned_bytes_per_pair > 0. then
           r.r_uninterned_bytes_per_pair /. r.r_interned_bytes_per_pair
         else 0.)
        r.r_scoping_factor r.r_live_mib)
    results;
  close_out oc

let assoc name l = try List.assoc name l with Not_found -> 0.

let run () =
  let max_regression = Bench_util.max_regression () in
  Report.section ~id:"Scale"
    ~title:"mega-fabric curve: controller store + interned push ledger (BENCH_SCALE.json)";
  let selected = List.filter (fun pt -> (not !quick) || pt.pt_small) points in
  let results =
    List.map
      (fun pt ->
        let r = measure pt in
        Report.note
          (Printf.sprintf
             "%s: %d sw / %d hosts — %.0f path graphs/s, %.0f B/pair interned vs %.0f raw, \
              scoping %.0fx, %.1f MiB live [%.1fs]"
             r.r_name r.r_switches r.r_hosts r.r_graphs_per_sec r.r_interned_bytes_per_pair r.r_uninterned_bytes_per_pair r.r_scoping_factor
             r.r_live_mib r.r_point_s);
        r)
      selected
  in
  Report.table
    ~headers:
      [
        "fabric"; "switches"; "graphs/s"; "B/pair int"; "B/pair raw"; "scoping"; "live MiB";
      ]
    (List.map
       (fun r ->
         [
           r.r_name;
           string_of_int r.r_switches;
           Printf.sprintf "%.0f" r.r_graphs_per_sec;
           Printf.sprintf "%.0f" r.r_interned_bytes_per_pair;
           Printf.sprintf "%.0f" r.r_uninterned_bytes_per_pair;
           Printf.sprintf "%.0fx" r.r_scoping_factor;
           Printf.sprintf "%.1f" r.r_live_mib;
         ])
       results);
  write_json ~max_regression results;
  write_markdown results;
  Report.note (Printf.sprintf "wrote %s and %s" json_path md_path);
  if !quick then begin
    (* The arena's reason to exist: from k=16 up (and on every gated
       point with a few hundred switches), interned storage must beat
       the raw representation. *)
    List.iter
      (fun r ->
        if r.r_switches >= 256 && r.r_interned_bytes_per_pair >= r.r_uninterned_bytes_per_pair
        then begin
          Printf.printf
            "SCALE REGRESSION: %s interned %.0f B/pair >= raw %.0f B/pair — the arena \
             stopped paying for itself\n"
            r.r_name r.r_interned_bytes_per_pair r.r_uninterned_bytes_per_pair;
          exit 1
        end)
      results;
    (* A failure must stay scoped: one cable cannot invalidate more
       than a third of the ledger on any gated point. *)
    List.iter
      (fun r ->
        if r.r_scoping_factor > 0. && r.r_scoping_factor < 3. then begin
          Printf.printf
            "SCALE REGRESSION: %s repair scoping %.1fx < 3.0 (one cable re-pushes %.1f of %d \
             pairs)\n"
            r.r_name r.r_scoping_factor r.r_affected_per_event r.r_ledger_pairs;
          exit 1
        end)
      results;
    let failed =
      List.filter
        (fun r ->
          let base = assoc r.r_name committed in
          base > 0. && r.r_graphs_per_sec < base /. max_regression)
        results
    in
    List.iter
      (fun r ->
        Printf.printf
          "SCALE REGRESSION: %s at %.0f path graphs/s, committed baseline %.0f (>%.1fx \
           slower)\n"
          r.r_name r.r_graphs_per_sec (assoc r.r_name committed) max_regression)
      failed;
    if failed <> [] then exit 1
  end
