(** `bench scale`: the mega-fabric curve of the controller's path
    service ({!Dumbnet_control.Topo_store}) and push ledger
    ({!Dumbnet_control.Ledger}) — path graphs/sec, live memory, interned
    vs raw bytes per cached (src, dst) pair, and failure repair-scoping
    vs fabric size — across fat trees k ∈ {8, 16, 32, 48} and jellyfish
    {64, 256, 1024}. Writes BENCH_SCALE.json and BENCH_SCALE.md (the
    README's scale table, spliced by `make scale-table`). With [quick]
    set (`bench scale --quick`), only the small points run, budgets
    shrink, and the run fails, naming every failed gate, if the
    interned arena stops paying for itself, repair stops being scoped
    or throughput regresses past the committed baseline. *)

open Dumbnet_topology
open Dumbnet_packet
module Topo_store = Dumbnet_control.Topo_store
module Ledger = Dumbnet_control.Ledger
module Tag_arena = Dumbnet_topology.Tag_arena
module Rng = Dumbnet_util.Rng
module Table = Dumbnet_util.Table

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
  let pt pt_name pt_small pt_build = { pt_name; pt_small; pt_build } in
  [
    pt "fat_tree_k8" true (fun () -> Builder.fat_tree ~k:8 ());
    pt "fat_tree_k16" true (fun () -> Builder.fat_tree ~k:16 ());
    pt "fat_tree_k32" false (fun () -> Builder.fat_tree ~k:32 ());
    pt "fat_tree_k48" false (fun () -> Builder.fat_tree ~k:48 ());
    pt "jellyfish_64" true (fun () -> Builder.jellyfish ~switches:64 ());
    pt "jellyfish_256" false (fun () -> Builder.jellyfish ~switches:256 ());
    pt "jellyfish_1024" false (fun () -> Builder.jellyfish ~switches:1024 ());
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
  let tp_pairs = sample_pairs built rng (if !Bench_util.quick then 24 else 64) in
  let tp_n = Array.length tp_pairs in
  Array.iter (fun (src, dst) -> ignore (Topo_store.serve_path_graph store ~src ~dst)) tp_pairs;
  let served = ref 0 in
  let graphs_per_sec =
    Bench_util.ops_per_sec ~budget_s:(Bench_util.budget_s ()) (fun () ->
        let src, dst = tp_pairs.(!served mod tp_n) in
        incr served;
        Topo_store.serve_path_graph store ~src ~dst)
  in
  (* Memory budget: push a ledger of distinct pairs through the shared
     arena, and price the same path graphs held raw — the
     representation the controller shipped before interning. *)
  let ledger_pairs = sample_pairs built rng (if !Bench_util.quick then 64 else 256) in
  let raw = Hashtbl.create (Array.length ledger_pairs) in
  let subscribed = ref Types.Link_set.empty in
  Array.iter
    (fun (src, dst) ->
      match Topo_store.serve_path_graph store ~src ~dst with
      | None -> ()
      | Some pg ->
        Ledger.record_push ledger pg;
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
  let repair_events = if !Bench_util.quick then 4 else 16 in
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

(* --- the report ------------------------------------------------------- *)

type results = {
  quick : bool;
  max_regression : float;
  curve : result list;  (** in the order of [points] *)
}

let json r =
  let open Bench_util in
  let point p =
    Obj
      [ ("name", String p.r_name); ("switches", Int p.r_switches); ("hosts", Int p.r_hosts);
        ("cables", Int p.r_cables); ("pathgraphs_per_sec", Float (1, p.r_graphs_per_sec));
        ("ledger_pairs", Int p.r_ledger_pairs);
        ("interned_bytes_per_pair", Float (1, p.r_interned_bytes_per_pair));
        ("uninterned_bytes_per_pair", Float (1, p.r_uninterned_bytes_per_pair));
        ("arena_stacks", Int p.r_arena_stacks); ("arena_bytes", Int p.r_arena_bytes);
        ("arena_interns", Int p.r_arena_interns); ("repair_events", Int p.r_repair_events);
        ("affected_pairs_per_event", Float (2, p.r_affected_per_event));
        ("repair_scoping_factor", Float (1, p.r_scoping_factor));
        ("evicted_roots_per_event", Float (1, p.r_evicted_per_event));
        ("retained_roots_per_event", Float (1, p.r_retained_per_event));
        ("live_mib", Float (1, p.r_live_mib)); ("point_seconds", Float (1, p.r_point_s)) ]
  in
  Obj
    [
      ( "meta",
        Obj
          [ ("quick", Bool r.quick); ("max_regression", Float (2, r.max_regression));
            ("word_bytes", Int word_bytes);
            ("points", List (List.map (fun p -> String p.r_name) r.curve)) ] );
      ("curve", List (List.map point r.curve));
    ]

(* The console table and BENCH_SCALE.md, which `make scale-table`
   splices into the README. *)
let table r =
  let compression p =
    if p.r_interned_bytes_per_pair > 0. then
      p.r_uninterned_bytes_per_pair /. p.r_interned_bytes_per_pair
    else 0.
  in
  Table.of_rows
    [ "fabric"; "switches"; "hosts"; "path graphs/s"; "B/pair interned"; "B/pair raw";
      "compression"; "repair scoping"; "live MiB" ]
    (List.map
       (fun p ->
         [ p.r_name; string_of_int p.r_switches; string_of_int p.r_hosts;
           Printf.sprintf "%.0f" p.r_graphs_per_sec;
           Printf.sprintf "%.0f" p.r_interned_bytes_per_pair;
           Printf.sprintf "%.0f" p.r_uninterned_bytes_per_pair;
           Printf.sprintf "%.1fx" (compression p); Printf.sprintf "%.0fx" p.r_scoping_factor;
           Printf.sprintf "%.1f" p.r_live_mib ])
       r.curve)

let gates r =
  let each f = List.filter_map f r.curve in
  (* The arena's reason to exist: from k=16 up (and on every gated point
     with a few hundred switches), interned storage must beat the raw
     representation. *)
  each (fun p ->
      if p.r_switches >= 256 && p.r_interned_bytes_per_pair >= p.r_uninterned_bytes_per_pair
      then
        Some
          (Printf.sprintf
             "%s interned %.0f B/pair >= raw %.0f B/pair — the arena stopped paying for itself"
             p.r_name p.r_interned_bytes_per_pair p.r_uninterned_bytes_per_pair)
      else None)
  (* A failure must stay scoped: one cable cannot invalidate more than a
     third of the ledger on any gated point. *)
  @ each (fun p ->
        if p.r_scoping_factor > 0. && p.r_scoping_factor < 3. then
          Some
            (Printf.sprintf "%s repair scoping %.1fx < 3.0 (one cable re-pushes %.1f of %d pairs)"
               p.r_name p.r_scoping_factor p.r_affected_per_event p.r_ledger_pairs)
        else None)
  @ Bench_util.regressions ~max_regression:r.max_regression ~committed ~unit:"path graphs/s"
      (List.map (fun p -> (p.r_name, p.r_graphs_per_sec)) r.curve)

let run () =
  let max_regression = Bench_util.max_regression () in
  Report.section ~id:"Scale"
    ~title:"mega-fabric curve: controller store + interned push ledger (BENCH_SCALE.json)";
  let selected = List.filter (fun pt -> (not !Bench_util.quick) || pt.pt_small) points in
  let curve =
    List.map
      (fun pt ->
        let p = measure pt in
        Report.note
          (Printf.sprintf "%s: %d switches / %d hosts measured [%.1fs]" p.r_name p.r_switches
             p.r_hosts p.r_point_s);
        p)
      selected
  in
  let r = { quick = !Bench_util.quick; max_regression; curve } in
  let t = table r in
  Table.print t;
  Bench_util.write_reports
    [ (json_path, Bench_util.json_to_string (json r)); (md_path, Table.markdown t) ];
  Bench_util.enforce ~prefix:"SCALE REGRESSION" (gates r)
