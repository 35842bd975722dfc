(** `bench perf`: microbenchmarks of the fabric's hot paths — path-graph
    computations/sec at the controller, simulated switch hops/sec,
    frame codec round-trips/sec, and whole failure→convergence cycles
    through a live fabric (incremental repair scoping, re-push counts,
    p50/p99 repair latency) — on a k=8 fat tree and a 64-switch
    Jellyfish. Writes BENCH_PERF.json (current numbers next to the
    committed pre-optimization baseline) so every future PR can see the
    perf trajectory. With [quick] set (bench `perf --quick`), budgets
    shrink and the run fails if any metric regresses more than
    [max_regression] from the committed baseline. *)

open Dumbnet_topology
open Dumbnet_packet
module Engine = Dumbnet_sim.Engine
module Network = Dumbnet_sim.Network
module Topo_store = Dumbnet_control.Topo_store
module Rng = Dumbnet_util.Rng
module Pool = Dumbnet_util.Pool

let quick = ref false

(* `bench --jobs N` lands here; otherwise DUMBNET_JOBS / the machine's
   core count via [Pool.default_jobs]. Appended to the scaling curve so
   an operator can probe a specific width. *)
let jobs_override : int option ref = ref None

let requested_jobs () =
  match !jobs_override with
  | Some j -> max 1 j
  | None -> Pool.default_jobs ()

let json_path = "BENCH_PERF.json"

let md_path = "BENCH_PERF.md"

(* Pre-PR numbers: this benchmark run at the commit before the hot-path
   overhaul (PR 2), same budgets and seeds, medians of runs interleaved
   with post-PR runs on the same machine so load swings hit both sides
   equally. "before" is the un-optimized implementation: per-query BFS
   over freshly allocated adjacency lists, a tuple-keyed egress
   Hashtbl, two engine events per hop, O(n) stamp appends. *)
let before : (string * float) list =
  [
    ("pathgraph_per_sec_fat_tree_k8", 3596.);
    ("pathgraph_per_sec_jellyfish_64", 6232.);
    ("codec_roundtrips_per_sec", 348075.);
  ]

(* What CI's smoke job guards against: the committed post-optimization
   numbers. A fresh run failing to reach [baseline / max_regression] on
   any metric fails `bench perf --quick`. Batch rows are gated at
   jobs=1 only — that one is scheduling-free, so it regresses only when
   the code does; the jobs>1 rows measure the host's cores as much as
   the code and are reported, not gated. *)
let committed : (string * float) list =
  [
    ("pathgraph_per_sec_fat_tree_k8", 68137.);
    ("pathgraph_per_sec_jellyfish_64", 74133.);
    ("codec_roundtrips_per_sec", 471884.);
    (* Batches grouped by switch pair (one Algorithm 1 body per pair):
       median of 3 full runs. *)
    ("pathgraph_batch_per_sec_fat_tree_k8_jobs1", 32940.);
    ("pathgraph_batch_per_sec_jellyfish_64_jobs1", 33562.);
    ("failure_events_per_sec_fat_tree_k8_jobs1", 6.5);
    (* The same frame set drained through Engine + Network (best of >= 3
       repetitions; median of 3 runs), measured with the int-lane heap. *)
    ("net_drain_hops_per_sec_fat_tree_k8", 2111827.);
    ("net_drain_hops_per_sec_jellyfish_64", 2636217.);
    ("net_drain_hops_per_sec_jellyfish_1024", 1283278.);
  ]

(* The net_drain rows measured by this same harness on the commit
   before the int-lane heap: a heap that moved its closure lane on every
   sift level and a [deliver] closure plus a boxed optional per hop.
   Median of 3 runs interleaved with the committed ones; 43.4 / 45.0 /
   43.0 minor words per hop. *)
let net_drain_before : (string * float) list =
  [
    ("net_drain_hops_per_sec_fat_tree_k8", 1156210.);
    ("net_drain_hops_per_sec_jellyfish_64", 1408735.);
    ("net_drain_hops_per_sec_jellyfish_1024", 603789.);
  ]

(* Minor words per hop the Engine + Network drain may allocate: measured
   26.5–28.2, budget ~1.5x. A hop allocates the dataplane's frame copy
   (tag pop), its [Forward] action and the one arrival closure. *)
let net_drain_words_budget = 42.

(* Run [f] repeatedly for ~[budget_s] wall seconds (after one warmup
   call) and return calls/sec. [batch] amortizes the clock reads. *)
let ops_per_sec ?(batch = 1) ~budget_s f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < budget_s do
    for _ = 1 to batch do
      ignore (f ())
    done;
    calls := !calls + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int !calls /. !elapsed

let budget_s () = if !quick then 0.2 else 1.0

(* --- path-graph computations/sec ------------------------------------- *)

(* A rotating set of host pairs, asked of a controller topo store the
   way bootstrap_push and the query service ask: repeatedly, with many
   queries sharing destination switches. *)
let pathgraph_bench ~name built =
  let store = Topo_store.create built.Builder.graph in
  let rng = Rng.create 7 in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  let pairs =
    Array.init 32 (fun _ ->
        let src = hosts.(Rng.int rng n) in
        let rec other () =
          let dst = hosts.(Rng.int rng n) in
          if dst = src then other () else dst
        in
        (src, other ()))
  in
  let i = ref 0 in
  let ops =
    ops_per_sec ~budget_s:(budget_s ()) (fun () ->
        let src, dst = pairs.(!i mod 32) in
        incr i;
        Topo_store.serve_path_graph store ~src ~dst)
  in
  (name, ops)

(* --- batched path graphs/sec: the multicore scaling curve ------------- *)

(* A fixed random sample of host pairs asked as one
   [Topo_store.serve_path_graphs] batch per iteration — the shape of
   the bootstrap push and the post-failure re-push. Reported as path
   graphs (items) per second so the rows compare directly with the
   singular metric above. *)
let batch_size = 512

let batch_pairs built =
  let rng = Rng.create 7 in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.init batch_size (fun _ ->
      let src = hosts.(Rng.int rng n) in
      let rec other () =
        let dst = hosts.(Rng.int rng n) in
        if dst = src then other () else dst
      in
      (src, other ()))

(* jobs=1 takes the no-pool path (no domain ever spawns); jobs>1 reuses
   one pool across every batch of the measurement. *)
let pathgraph_batch_bench ~name built ~jobs =
  let store = Topo_store.create built.Builder.graph in
  let pairs = batch_pairs built in
  let measure pool =
    ops_per_sec ~budget_s:(budget_s ()) (fun () ->
        Topo_store.serve_path_graphs ?pool store pairs)
  in
  let batches =
    if jobs = 1 then measure None
    else Pool.with_pool ~jobs (fun pool -> measure (Some pool))
  in
  (name, batches *. float_of_int batch_size)

(* The curve CI and the README quote: powers of two up to the capped
   default ([Pool.default_jobs], i.e. the machine's core count bounded
   by [Pool.max_default_jobs]) plus whatever --jobs/DUMBNET_JOBS asks
   for. Widths beyond the core count only measure scheduler thrash —
   on a 1-core container the curve is just [1], which is the honest
   answer instead of an inverted 8-domain row. *)
let jobs_curve () =
  let top = max (Pool.default_jobs ()) (requested_jobs ()) in
  let rec doubling j acc = if j > top then acc else doubling (j * 2) (j :: acc) in
  List.sort_uniq compare (doubling 1 [ top; requested_jobs () ])

let batch_metric_name topo jobs =
  Printf.sprintf "pathgraph_batch_per_sec_%s_jobs%d" topo jobs

let batch_curve ~topo built =
  List.map
    (fun jobs -> (batch_metric_name topo jobs, jobs, pathgraph_batch_bench ~name:topo built ~jobs))
    (jobs_curve ())
  |> List.map (fun (name, jobs, (_, ops)) -> (name, jobs, ops))

(* --- incremental failure repair: convergence -------------------------- *)

module Fabric = Dumbnet.Fabric
module Controller = Dumbnet_host.Controller

type convergence = {
  conv_events : int;  (** failure events driven through the fabric *)
  conv_cached_pairs : int;  (** controller push-ledger size *)
  conv_repushed_per_event : float;
  conv_scoping_factor : float;  (** cached pairs / re-pushed per event *)
  conv_evicted_per_event : float;  (** distance tables dropped per event *)
  conv_retained_per_event : float;  (** distance tables kept per event *)
  conv_events_per_sec : float;  (** failure→converged cycles per wall second *)
  conv_p50_ms : float;
  conv_p99_ms : float;
  conv_regen_ms_per_event : float;
      (** of each repair, wall ms recomputing affected path graphs *)
  conv_push_ms_per_event : float;
      (** of each repair, wall ms re-recording and sending the results *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

(* Drive whole failure→convergence cycles through a live fabric: fail a
   random cable, run the simulation to quiescence (stage-1 flood, scoped
   distance-cache repair, one patch, delta re-push to the subscribed
   pairs), then restore off the clock so the next event starts healthy.
   The wall time charged to an event is exactly the fail→quiescent
   span; the scoping factor is the fraction of the controller's pushed
   path graphs a single cable failure does NOT touch. *)
let failure_convergence_bench built =
  let fab = Fabric.create ~seed:17 built in
  let ctrl = Fabric.controller fab in
  let store = Controller.store ctrl in
  let g = Network.graph (Fabric.network fab) in
  let links = Array.of_list (List.map fst (Graph.switch_links g)) in
  let rng = Rng.create 31 in
  let min_events = if !quick then 3 else 10 in
  let budget = budget_s () in
  let latencies = ref [] in
  let events = ref 0 in
  let repushed = ref 0 and evicted = ref 0 and retained = ref 0 in
  let regen = ref 0. and push = ref 0. in
  let spent = ref 0. in
  while !events < min_events || !spent < budget do
    let key = links.(Rng.int rng (Array.length links)) in
    let le, _ = Types.Link_key.ends key in
    let r0 = Controller.repush_stats ctrl in
    let s0 = Topo_store.repair_stats store in
    let t0 = Unix.gettimeofday () in
    Fabric.fail_link fab le;
    Fabric.run fab;
    let dt = Unix.gettimeofday () -. t0 in
    let r1 = Controller.repush_stats ctrl in
    let s1 = Topo_store.repair_stats store in
    latencies := dt :: !latencies;
    spent := !spent +. dt;
    incr events;
    repushed := !repushed + r1.Controller.repushed_pairs - r0.Controller.repushed_pairs;
    evicted := !evicted + s1.Topo_store.evicted_roots - s0.Topo_store.evicted_roots;
    retained := !retained + s1.Topo_store.retained_roots - s0.Topo_store.retained_roots;
    regen := !regen +. (r1.Controller.regen_s -. r0.Controller.regen_s);
    push := !push +. (r1.Controller.push_s -. r0.Controller.push_s);
    (* Heal off the clock: past the monitor's 1 s up-notice suppression
       window, then restore and converge. *)
    Fabric.run ~for_ns:1_100_000_000 fab;
    Fabric.restore_link fab le;
    Fabric.run fab
  done;
  let n = float_of_int !events in
  let cached = (Controller.repush_stats ctrl).Controller.cached_pairs in
  let per_event = float_of_int !repushed /. n in
  let sorted = Array.of_list (List.sort compare !latencies) in
  {
    conv_events = !events;
    conv_cached_pairs = cached;
    conv_repushed_per_event = per_event;
    conv_scoping_factor = (if per_event > 0. then float_of_int cached /. per_event else 0.);
    conv_evicted_per_event = float_of_int !evicted /. n;
    conv_retained_per_event = float_of_int !retained /. n;
    conv_events_per_sec = n /. !spent;
    conv_p50_ms = percentile sorted 0.50 *. 1000.;
    conv_p99_ms = percentile sorted 0.99 *. 1000.;
    conv_regen_ms_per_event = !regen /. n *. 1000.;
    conv_push_ms_per_event = !push /. n *. 1000.;
  }

(* --- simulated hops/sec ---------------------------------------------- *)

(* Every host fires a burst of data frames along one source route to a
   destination drawn from [seed]'s stream (five tries to find a routable
   one); we charge the wall-clock cost of draining the event queue to the
   switch hops it performed. *)
let sim_routes ?(seed = 11) built =
  let g = built.Builder.graph in
  let rng = Rng.create seed in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.to_list hosts
  |> List.filter_map (fun src ->
         let rec pick_dst tries =
           if tries = 0 then None
           else
             let dst = hosts.(Rng.int rng n) in
             if dst = src then pick_dst (tries - 1)
             else
               match Routing.host_route g ~src ~dst with
               | Some p -> Some (src, dst, Path.tags p)
               | None -> pick_dst (tries - 1)
         in
         pick_dst 5)

(* --- Engine + Network drain hops/sec ------------------------------------- *)

let net_drain_metric_name topo = Printf.sprintf "net_drain_hops_per_sec_%s" topo

(* One drain of that frame set through the simulator every paper figure
   and fabbench workload runs on: Engine + Network. Each host hands its
   frames to [Network.host_send] off the clock (NIC pacing schedules
   them); only [Engine.run] to quiescence is timed. Returns the engine,
   the network, the drain's wall seconds and the minor words it
   allocated. `dumbnet hops` prints one such drain. *)
let net_drain built routes ~frames_per_host =
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:built.Builder.graph () in
  List.iter
    (fun (src, dst, tags) ->
      for seq = 1 to frames_per_host do
        Network.host_send net src
          (Frame.along_path ~src ~dst ~tags_of:tags
             ~payload:(Payload.Data { flow = src; seq; size = 1000; sent_ns = 0 }))
      done)
    routes;
  let w0 = Gc.minor_words () in
  let r0 = Unix.gettimeofday () in
  Engine.run eng;
  let r1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  (eng, net, r1 -. r0, w1 -. w0)

(* Hops/s and minor words per hop of one drain. A row keeps its best
   repetition; the words figure is deterministic. *)
let net_drain_once built routes ~frames_per_host =
  let _, net, wall_s, words = net_drain built routes ~frames_per_host in
  let hops = max 1 (Network.stats net).Network.switch_hops in
  (float_of_int hops /. wall_s, words /. float_of_int hops)

let net_drain_bench built routes ~frames_per_host =
  let best = ref 0. and words = ref 0. in
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 in
  while !runs < 3 || Unix.gettimeofday () -. t0 < budget_s () do
    let ops, w = net_drain_once built routes ~frames_per_host in
    if ops > !best then begin
      best := ops;
      words := w
    end;
    incr runs
  done;
  (!best, !words)

let net_drain_rows topos =
  List.map
    (fun (topo, built, frames_per_host) ->
      let ops, words = net_drain_bench built (sim_routes built) ~frames_per_host in
      (net_drain_metric_name topo, topo, ops, words))
    topos

(* --- codec round-trips/sec ------------------------------------------- *)

let codec_bench ~name =
  let stamp i =
    { Int_stamp.switch = i; port = i + 1; queue_depth = 1000 * i; timestamp_ns = 5000 + i }
  in
  let frame =
    Frame.along_path ~src:3 ~dst:9 ~tags_of:[ 2; 5; 1; 7; 3; 4 ]
      ~payload:(Payload.Data { flow = 5; seq = 42; size = 1400; sent_ns = 1234 })
  in
  let frame = Frame.with_int frame in
  let frame = List.fold_left (fun f i -> Frame.add_stamp (stamp i) f) frame [ 0; 1; 2; 3 ] in
  let ops =
    ops_per_sec ~batch:16 ~budget_s:(budget_s ()) (fun () -> Frame.of_bytes (Frame.to_bytes frame))
  in
  (name, ops)

(* --- harness ---------------------------------------------------------- *)

let assoc name l = try List.assoc name l with Not_found -> 0.

(* ops at jobs=1 of a curve, the denominator of every scaling ratio. *)
let jobs1_ops rows =
  match List.find_opt (fun (_, jobs, _) -> jobs = 1) rows with
  | Some (_, _, ops) -> ops
  | None -> 0.

let write_json ~max_regression results scaling net_drain conv =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"meta\": {\n";
  p "    \"quick\": %b,\n" !quick;
  p "    \"max_regression\": %.2f,\n" max_regression;
  p "    \"jobs_curve\": [%s],\n"
    (String.concat ", " (List.map string_of_int (jobs_curve ())));
  p "    \"recommended_domain_count\": %d,\n" (Domain.recommended_domain_count ());
  p "    \"topologies\": [\"fat_tree_k8\", \"jellyfish_64\", \"jellyfish_1024\"]\n";
  p "  },\n";
  p "  \"metrics\": [\n";
  let rec rows = function
    | [] -> ()
    | (name, ops) :: rest ->
      (* A metric with no pre-optimization incarnation (the "before"
         table carries 0) gets no before/speedup fields at all — a
         literal 0.0 baseline would read as "infinitely slower". *)
      let b = assoc name before in
      if b > 0. then
        p "    {\"name\": \"%s\", \"before_ops_per_sec\": %.1f, \"ops_per_sec\": %.1f, \
           \"speedup_vs_before\": %.2f}%s\n"
          name b ops (ops /. b)
          (if rest = [] then "" else ",")
      else
        p "    {\"name\": \"%s\", \"ops_per_sec\": %.1f}%s\n" name ops
          (if rest = [] then "" else ",");
      rows rest
  in
  rows results;
  p "  ],\n";
  p "  \"batch_scaling\": [\n";
  let all_rows =
    List.concat_map
      (fun (_, curve) ->
        let base = jobs1_ops curve in
        List.map (fun (name, jobs, ops) -> (name, jobs, ops, base)) curve)
      scaling
  in
  let rec srows = function
    | [] -> ()
    | (name, jobs, ops, base) :: rest ->
      (* Batch rows never sequentially emulate: a jobs>1 pool really
         spawns that many domains, so the mode split is binary. *)
      p "    {\"name\": \"%s\", \"jobs\": %d, \"mode\": \"%s\", \"ops_per_sec\": %.1f, \
         \"speedup_vs_jobs1\": %.2f}%s\n"
        name jobs
        (if jobs = 1 then "single" else "parallel")
        ops
        (if base > 0. then ops /. base else 0.)
        (if rest = [] then "" else ",");
      srows rest
  in
  srows all_rows;
  p "  ],\n";
  p "  \"net_drain\": [\n";
  let rec nrows = function
    | [] -> ()
    | (name, topo, ops, words) :: rest ->
      p
        "    {\"name\": \"%s\", \"topology\": \"%s\", \"before_ops_per_sec\": %.1f, \
         \"ops_per_sec\": %.1f, \"minor_words_per_hop\": %.2f}%s\n"
        name topo (assoc name net_drain_before) ops words
        (if rest = [] then "" else ",");
      nrows rest
  in
  nrows net_drain;
  p "  ],\n";
  p "  \"failure_convergence\": {\n";
  p "    \"topology\": \"fat_tree_k8\",\n";
  p "    \"jobs\": 1,\n";
  p "    \"events\": %d,\n" conv.conv_events;
  p "    \"cached_pairs\": %d,\n" conv.conv_cached_pairs;
  p "    \"repushed_pairs_per_event\": %.2f,\n" conv.conv_repushed_per_event;
  p "    \"scoping_factor\": %.2f,\n" conv.conv_scoping_factor;
  p "    \"dist_tables_evicted_per_event\": %.2f,\n" conv.conv_evicted_per_event;
  p "    \"dist_tables_retained_per_event\": %.2f,\n" conv.conv_retained_per_event;
  p "    \"events_per_sec\": %.1f,\n" conv.conv_events_per_sec;
  p "    \"repair_latency_p50_ms\": %.3f,\n" conv.conv_p50_ms;
  p "    \"repair_latency_p99_ms\": %.3f,\n" conv.conv_p99_ms;
  p "    \"repair_regen_ms_per_event\": %.3f,\n" conv.conv_regen_ms_per_event;
  p "    \"repair_push_ms_per_event\": %.3f\n" conv.conv_push_ms_per_event;
  p "  }\n";
  p "}\n";
  close_out oc

(* --- BENCH_PERF.md: the README's perf tables, generated ---------------- *)

(* README.md quotes these tables between "perf-table:begin/end" markers;
   `make perf-table` re-runs the bench and splices this file in, so the
   README can never drift from BENCH_PERF.json again. *)

let thousands f =
  let s = Printf.sprintf "%.0f" f in
  let n = String.length s in
  let buf = Buffer.create (n + 4) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ' ';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let display_label = function
  | "pathgraph_per_sec_fat_tree_k8" -> "path graphs/sec, fat tree k=8"
  | "pathgraph_per_sec_jellyfish_64" -> "path graphs/sec, Jellyfish 64"
  | "codec_roundtrips_per_sec" -> "frame codec round-trips/sec"
  | s -> s

let topo_display = function
  | "fat_tree_k8" -> "fat tree k=8"
  | "jellyfish_64" -> "Jellyfish 64"
  | "jellyfish_1024" -> "Jellyfish 1024"
  | s -> s

let write_markdown results net_drain =
  let oc = open_out md_path in
  let p fmt = Printf.fprintf oc fmt in
  p "| metric | before (ops/s) | after (ops/s) | speedup |\n";
  p "|---|---:|---:|---:|\n";
  List.iter
    (fun (name, ops) ->
      let b = assoc name before in
      p "| %s | %s | %s | %s |\n" (display_label name)
        (if b > 0. then thousands b else "—")
        (thousands ops)
        (if b > 0. then Printf.sprintf "%.1fx" (ops /. b) else "—"))
    results;
  p "\n";
  p "Simulated switch hops/sec: every host's burst drained through Engine +\n";
  p "Network, the simulator every figure and fabbench workload runs on\n";
  p "(before: closure-lane heap):\n";
  p "\n";
  p "| topology | before (hops/s) | after (hops/s) | speedup | minor words/hop |\n";
  p "|---|---:|---:|---:|---:|\n";
  List.iter
    (fun (name, topo, ops, words) ->
      let b = assoc name net_drain_before in
      p "| %s | %s | %s | %s | %.1f |\n" (topo_display topo)
        (if b > 0. then thousands b else "—")
        (thousands ops)
        (if b > 0. then Printf.sprintf "%.2fx" (ops /. b) else "—")
        words)
    net_drain;
  close_out oc

let run () =
  let max_regression = Bench_util.max_regression () in
  Report.section ~id:"Perf" ~title:"hot-path microbenchmarks (BENCH_PERF.json)";
  let ft8 = Builder.fat_tree ~k:8 () in
  let jelly = Builder.jellyfish ~switches:64 () in
  let results =
    [
      pathgraph_bench ~name:"pathgraph_per_sec_fat_tree_k8" ft8;
      pathgraph_bench ~name:"pathgraph_per_sec_jellyfish_64" jelly;
      codec_bench ~name:"codec_roundtrips_per_sec";
    ]
  in
  let net_drain =
    net_drain_rows
      [
        ("fat_tree_k8", ft8, 20);
        ("jellyfish_64", jelly, 20);
        ("jellyfish_1024", Builder.jellyfish ~switches:1024 (), 8);
      ]
  in
  let scaling =
    [
      ("fat_tree_k8", batch_curve ~topo:"fat_tree_k8" ft8);
      ("jellyfish_64", batch_curve ~topo:"jellyfish_64" jelly);
    ]
  in
  Report.table
    ~headers:[ "metric"; "before (ops/s)"; "now (ops/s)"; "speedup" ]
    (List.map
       (fun (name, ops) ->
         let b = assoc name before in
         [
           name;
           Printf.sprintf "%.0f" b;
           Printf.sprintf "%.0f" ops;
           (if b > 0. then Printf.sprintf "%.2fx" (ops /. b) else "-");
         ])
       results);
  Report.note "simulated switch hops, every host's burst drained through Engine + Network:";
  Report.table
    ~headers:[ "topology"; "before hops/s"; "now hops/s"; "minor words/hop" ]
    (List.map
       (fun (name, topo, ops, words) ->
         [
           topo;
           Printf.sprintf "%.0f" (assoc name net_drain_before);
           Printf.sprintf "%.0f" ops;
           Printf.sprintf "%.1f" words;
         ])
       net_drain);
  Report.note
    (Printf.sprintf
       "batched path-graph service, %d-query batches (Topo_store.serve_path_graphs; \
        this machine recommends %d domains):"
       batch_size
       (Domain.recommended_domain_count ()));
  Report.table
    ~headers:[ "topology"; "jobs"; "path graphs/s"; "vs jobs=1" ]
    (List.concat_map
       (fun (topo, curve) ->
         let base = jobs1_ops curve in
         List.map
           (fun (_, jobs, ops) ->
             [
               topo;
               string_of_int jobs;
               Printf.sprintf "%.0f" ops;
               (if base > 0. then Printf.sprintf "%.2fx" (ops /. base) else "-");
             ])
           curve)
       scaling);
  let conv = failure_convergence_bench ft8 in
  Report.note
    (Printf.sprintf
       "incremental failure repair, fat_tree_k8 fabric (jobs=1, %d events): a single cable \
        failure re-pushes %.1f of %d cached path graphs (scoping factor %.1fx), evicting \
        %.1f and retaining %.1f memoized distance tables"
       conv.conv_events conv.conv_repushed_per_event conv.conv_cached_pairs
       conv.conv_scoping_factor conv.conv_evicted_per_event conv.conv_retained_per_event);
  Report.table
    ~headers:[ "metric"; "value" ]
    [
      [ "failure events/s (fail -> converged)"; Printf.sprintf "%.1f" conv.conv_events_per_sec ];
      [ "repair latency p50"; Printf.sprintf "%.2f ms" conv.conv_p50_ms ];
      [ "repair latency p99"; Printf.sprintf "%.2f ms" conv.conv_p99_ms ];
      [ "re-pushed pairs/event"; Printf.sprintf "%.1f" conv.conv_repushed_per_event ];
      [ "scoping factor"; Printf.sprintf "%.1fx" conv.conv_scoping_factor ];
      [ "regen phase/event"; Printf.sprintf "%.2f ms" conv.conv_regen_ms_per_event ];
      [ "push phase/event"; Printf.sprintf "%.2f ms" conv.conv_push_ms_per_event ];
    ];
  write_json ~max_regression results scaling net_drain conv;
  write_markdown results net_drain;
  Report.note (Printf.sprintf "wrote %s and %s" json_path md_path);
  if !quick then begin
    (* Gate the sequential metrics plus the scheduling-free jobs=1 rows;
       wider rows depend on the host's core count. *)
    let gated =
      results
      @ List.filter_map
          (fun (_, curve) ->
            List.find_opt (fun (_, jobs, _) -> jobs = 1) curve
            |> Option.map (fun (name, _, ops) -> (name, ops)))
          scaling
      @ List.map (fun (name, _, ops, _) -> (name, ops)) net_drain
      @ [ ("failure_events_per_sec_fat_tree_k8_jobs1", conv.conv_events_per_sec) ]
    in
    (* The Engine + Network hop allocates a fixed handful of blocks; a
       higher figure means a per-hop closure or option crept back. *)
    List.iter
      (fun (name, _, _, words) ->
        if words > net_drain_words_budget then begin
          Printf.printf
            "PERF REGRESSION: %s allocates %.1f minor words per hop (budget %.1f)\n" name
            words net_drain_words_budget;
          exit 1
        end)
      net_drain;
    (* The point of incremental repair: a single-cable failure must
       avoid recomputing the overwhelming share of pushed path graphs.
       Anything under 5x means the subscription index has degraded
       into wholesale re-push. *)
    if conv.conv_scoping_factor < 5. then begin
      Printf.printf
        "PERF REGRESSION: failure-repair scoping factor %.2f < 5.0 (re-pushing %.1f of %d \
         cached pairs per event)\n"
        conv.conv_scoping_factor conv.conv_repushed_per_event conv.conv_cached_pairs;
      exit 1
    end;
    let failed =
      List.filter
        (fun (name, ops) ->
          let base = assoc name committed in
          base > 0. && ops < base /. max_regression)
        gated
    in
    List.iter
      (fun (name, ops) ->
        Printf.printf "PERF REGRESSION: %s at %.0f ops/s, committed baseline %.0f (>%.1fx slower)\n"
          name ops (assoc name committed) max_regression)
      failed;
    if failed <> [] then exit 1
  end
