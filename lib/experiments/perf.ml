(** `bench perf`: microbenchmarks of the fabric's hot paths — path-graph
    computations/sec at the controller, simulated switch hops/sec,
    frame codec round-trips/sec, and whole failure→convergence cycles
    through a live fabric (incremental repair scoping, re-push counts,
    p50/p99 repair latency) — on a k=8 fat tree and a 64-switch
    Jellyfish. Writes BENCH_PERF.json (current numbers next to the
    committed pre-optimization baseline) so every future PR can see the
    perf trajectory, and BENCH_PERF.md, the README's perf tables. Under
    `bench perf --quick` budgets shrink and the run fails, naming every
    failed gate, if any metric regresses more than [max_regression]
    from the committed baseline, a drain hop allocates past its budget
    or failure repair stops being scoped. *)

open Dumbnet_topology
open Dumbnet_packet
module Engine = Dumbnet_sim.Engine
module Network = Dumbnet_sim.Network
module Topo_store = Dumbnet_control.Topo_store
module Rng = Dumbnet_util.Rng
module Pool = Dumbnet_util.Pool
module Table = Dumbnet_util.Table

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
    (* Packed path graphs (sorted cable arrays): median of 3 full
       runs. *)
    ("pathgraph_per_sec_fat_tree_k8", 166089.);
    ("pathgraph_per_sec_jellyfish_64", 157386.);
    ("codec_roundtrips_per_sec", 471884.);
    (* Batches grouped by switch pair (one Algorithm 1 body per pair),
       packed path graphs: median of 3 full runs. *)
    ("pathgraph_batch_per_sec_fat_tree_k8_jobs1", 145390.);
    ("pathgraph_batch_per_sec_jellyfish_64_jobs1", 98467.);
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
   14.0–16.6, budget ~1.5x. A hop allocates the one arrival closure,
   which carries the tag cursor; a delivered frame is rebuilt once with
   its remaining tag. *)
let net_drain_words_budget = 25.

(* --- path-graph computations/sec ------------------------------------- *)

(* [n] host pairs (src <> dst) drawn from seed 7's stream: the same
   stream for every [n], so a shorter sample is a prefix of a longer. *)
let random_pairs built n =
  let rng = Rng.create 7 in
  let hosts = Array.of_list built.Builder.hosts in
  let count = Array.length hosts in
  Array.init n (fun _ ->
      let src = hosts.(Rng.int rng count) in
      let rec other () =
        let dst = hosts.(Rng.int rng count) in
        if dst = src then other () else dst
      in
      (src, other ()))

(* A rotating set of host pairs, asked of a controller topo store the
   way bootstrap_push and the query service ask: repeatedly, with many
   queries sharing destination switches. *)
let pathgraph_bench ~name built =
  let store = Topo_store.create built.Builder.graph in
  let pairs = random_pairs built 32 in
  let i = ref 0 in
  let ops =
    Bench_util.ops_per_sec ~budget_s:(Bench_util.budget_s ()) (fun () ->
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
   singular metric above. jobs=1 takes the no-pool path (no domain ever
   spawns); jobs>1 reuses one pool across every batch of the
   measurement. *)
let batch_size = 512

let pathgraph_batch_bench built ~jobs =
  let store = Topo_store.create built.Builder.graph in
  let pairs = random_pairs built batch_size in
  let measure pool =
    Bench_util.ops_per_sec ~budget_s:(Bench_util.budget_s ()) (fun () ->
        Topo_store.serve_path_graphs ?pool store pairs)
  in
  let batches =
    if jobs = 1 then measure None else Pool.with_pool ~jobs (fun pool -> measure (Some pool))
  in
  batches *. float_of_int batch_size

(* The curve CI and the README quote: powers of two up to
   [Pool.default_jobs] (DUMBNET_JOBS, else the machine's core count
   bounded by [Pool.max_default_jobs]), and that width itself. Widths
   beyond the core count only measure scheduler thrash — on a 1-core
   container the curve is just [1], which is the honest answer instead
   of an inverted 8-domain row. *)
let jobs_curve () =
  let top = Pool.default_jobs () in
  let rec doubling j acc = if j > top then acc else doubling (j * 2) (j :: acc) in
  List.sort_uniq compare (doubling 1 [ top ])

let batch_metric_name topo jobs =
  Printf.sprintf "pathgraph_batch_per_sec_%s_jobs%d" topo jobs

let batch_curve ~topo built =
  List.map
    (fun jobs -> (topo, batch_metric_name topo jobs, jobs, pathgraph_batch_bench built ~jobs))
    (jobs_curve ())

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
  let min_events = if !Bench_util.quick then 3 else 10 in
  let budget = Bench_util.budget_s () in
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
    conv_p50_ms = Bench_util.percentile sorted 0.50 *. 1000.;
    conv_p99_ms = Bench_util.percentile sorted 0.99 *. 1000.;
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
   allocated. `dumbnet hops` prints one such drain, with [on_deliver]
   seeing every frame a host receives and when. *)
let net_drain ?on_deliver built routes ~frames_per_host =
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:built.Builder.graph () in
  Option.iter
    (fun f ->
      List.iter
        (fun h -> Network.set_host_handler net h (fun frame -> f ~now:(Engine.now eng) h frame))
        built.Builder.hosts)
    on_deliver;
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

(* Hops/s and minor words per hop of the best of >= 3 drains; the words
   figure is deterministic. *)
let net_drain_bench built routes ~frames_per_host =
  let best = ref 0. and words = ref 0. in
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 in
  while !runs < 3 || Unix.gettimeofday () -. t0 < Bench_util.budget_s () do
    let _, net, wall_s, w = net_drain built routes ~frames_per_host in
    let hops = float_of_int (max 1 (Network.stats net).Network.switch_hops) in
    if hops /. wall_s > !best then begin
      best := hops /. wall_s;
      words := w /. hops
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
    Bench_util.ops_per_sec ~batch:16 ~budget_s:(Bench_util.budget_s ()) (fun () ->
        Frame.of_bytes (Frame.to_bytes frame))
  in
  (name, ops)

(* --- the report ------------------------------------------------------- *)

type results = {
  quick : bool;
  max_regression : float;
  jobs_curve : int list;
  domains : int;  (** [Domain.recommended_domain_count] of the machine *)
  metrics : (string * float) list;  (** sequential throughputs, ops/s *)
  batch : (string * string * int * float) list;
      (** the batch curves: (topology, metric, jobs, path graphs/s) *)
  net_drain : (string * string * float * float) list;
      (** (metric, topology, hops/s, minor words/hop) *)
  conv : convergence;
}

(* A batch row's speedup over its topology's jobs=1 row. *)
let vs_jobs1 r (topo, _, _, ops) =
  match List.find_opt (fun (t, _, jobs, _) -> t = topo && jobs = 1) r.batch with
  | Some (_, _, _, base) when base > 0. -> ops /. base
  | Some _ | None -> 0.

let convergence_fields c =
  let open Bench_util in
  [ ("topology", String "fat_tree_k8"); ("jobs", Int 1); ("events", Int c.conv_events);
    ("cached_pairs", Int c.conv_cached_pairs);
    ("repushed_pairs_per_event", Float (2, c.conv_repushed_per_event));
    ("scoping_factor", Float (2, c.conv_scoping_factor));
    ("dist_tables_evicted_per_event", Float (2, c.conv_evicted_per_event));
    ("dist_tables_retained_per_event", Float (2, c.conv_retained_per_event));
    ("events_per_sec", Float (1, c.conv_events_per_sec));
    ("repair_latency_p50_ms", Float (3, c.conv_p50_ms));
    ("repair_latency_p99_ms", Float (3, c.conv_p99_ms));
    ("repair_regen_ms_per_event", Float (3, c.conv_regen_ms_per_event));
    ("repair_push_ms_per_event", Float (3, c.conv_push_ms_per_event)) ]

let json r =
  let open Bench_util in
  let topologies = [ "fat_tree_k8"; "jellyfish_64"; "jellyfish_1024" ] in
  (* A metric with no pre-optimization incarnation (the "before" table
     carries 0) gets no before/speedup fields at all — a literal 0.0
     baseline would read as "infinitely slower". *)
  let metric (name, ops) =
    let b = assoc name before and after = ("ops_per_sec", Float (1, ops)) in
    let was = ("before_ops_per_sec", Float (1, b)) in
    let speedup = ("speedup_vs_before", Float (2, ops /. b)) in
    Obj (("name", String name) :: (if b > 0. then [ was; after; speedup ] else [ after ]))
  in
  (* Batch rows never sequentially emulate: a jobs>1 pool really spawns
     that many domains, so the mode split is binary. *)
  let batch ((_, name, jobs, ops) as row) =
    Obj
      [ ("name", String name); ("jobs", Int jobs);
        ("mode", String (if jobs = 1 then "single" else "parallel"));
        ("ops_per_sec", Float (1, ops)); ("speedup_vs_jobs1", Float (2, vs_jobs1 r row)) ]
  in
  let drain (name, topo, ops, words) =
    Obj
      [ ("name", String name); ("topology", String topo);
        ("before_ops_per_sec", Float (1, assoc name net_drain_before));
        ("ops_per_sec", Float (1, ops)); ("minor_words_per_hop", Float (2, words)) ]
  in
  Obj
    [
      ( "meta",
        Obj
          [ ("quick", Bool r.quick); ("max_regression", Float (2, r.max_regression));
            ("jobs_curve", List (List.map (fun j -> Int j) r.jobs_curve));
            ("recommended_domain_count", Int r.domains);
            ("topologies", List (List.map (fun t -> String t) topologies)) ] );
      ("metrics", List (List.map metric r.metrics));
      ("batch_scaling", List (List.map batch r.batch));
      ("net_drain", List (List.map drain r.net_drain));
      ("failure_convergence", Obj (convergence_fields r.conv));
    ]

(* README.md quotes the two markdown tables between "perf-table:begin/end"
   markers; `make perf-table` re-runs the bench and splices BENCH_PERF.md
   in, so the README can never drift from BENCH_PERF.json again. *)

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
  | "fat_tree_k8" -> "fat tree k=8"
  | "jellyfish_64" -> "Jellyfish 64"
  | "jellyfish_1024" -> "Jellyfish 1024"
  | s -> s

(* A throughput next to its baseline: before, after, speedup. *)
let versus ~speedup b ops =
  if b > 0. then [ thousands b; thousands ops; Printf.sprintf speedup (ops /. b) ]
  else [ "—"; thousands ops; "—" ]

let metrics_table r =
  Table.of_rows
    [ "metric"; "before (ops/s)"; "after (ops/s)"; "speedup" ]
    (List.map
       (fun (name, ops) ->
         display_label name :: versus ~speedup:"%.1fx" (Bench_util.assoc name before) ops)
       r.metrics)

let net_drain_table r =
  Table.of_rows
    [ "topology"; "before (hops/s)"; "after (hops/s)"; "speedup"; "minor words/hop" ]
    (List.map
       (fun (name, topo, ops, words) ->
         let b = Bench_util.assoc name net_drain_before in
         (display_label topo :: versus ~speedup:"%.2fx" b ops) @ [ Printf.sprintf "%.1f" words ])
       r.net_drain)

let markdown r =
  Table.markdown (metrics_table r)
  ^ "\nSimulated switch hops/sec: every host's burst drained through Engine +\n\
     Network, the simulator every figure and fabbench workload runs on\n\
     (before: closure-lane heap):\n\n"
  ^ Table.markdown (net_drain_table r)

let batch_table r =
  Table.of_rows
    [ "topology"; "jobs"; "path graphs/s"; "vs jobs=1" ]
    (List.map
       (fun ((topo, _, jobs, ops) as row) ->
         let speedup = vs_jobs1 r row in
         [ topo; string_of_int jobs; Printf.sprintf "%.0f" ops;
           (if speedup > 0. then Printf.sprintf "%.2fx" speedup else "-") ])
       r.batch)

(* The console shows the failure_convergence record as the JSON has it. *)
let convergence_table c =
  Table.of_rows
    [ "incremental failure repair"; "value" ]
    (List.map
       (fun (k, v) -> [ k; String.trim (Bench_util.json_to_string v) ])
       (convergence_fields c))

let gates r =
  let c = r.conv in
  (* The Engine + Network hop allocates a fixed handful of blocks; a
     higher figure means a per-hop closure or option crept back. *)
  let words =
    List.filter_map
      (fun (name, _, _, words) ->
        if words <= net_drain_words_budget then None
        else
          Some
            (Printf.sprintf "%s allocates %.1f minor words per hop (budget %.1f)" name words
               net_drain_words_budget))
      r.net_drain
  in
  (* The point of incremental repair: a single-cable failure must avoid
     recomputing the overwhelming share of pushed path graphs. Anything
     under 5x means the subscription index has degraded into wholesale
     re-push. *)
  let scoping =
    if c.conv_scoping_factor >= 5. then []
    else
      [
        Printf.sprintf
          "failure-repair scoping factor %.2f < 5.0 (re-pushing %.1f of %d cached pairs per \
           event)"
          c.conv_scoping_factor c.conv_repushed_per_event c.conv_cached_pairs;
      ]
  in
  (* Gate the sequential metrics plus the scheduling-free jobs=1 rows;
     wider rows depend on the host's core count. *)
  let gated =
    r.metrics
    @ List.filter_map
        (fun (_, name, jobs, ops) -> if jobs = 1 then Some (name, ops) else None)
        r.batch
    @ List.map (fun (name, _, ops, _) -> (name, ops)) r.net_drain
    @ [ ("failure_events_per_sec_fat_tree_k8_jobs1", c.conv_events_per_sec) ]
  in
  words @ scoping
  @ Bench_util.regressions ~max_regression:r.max_regression ~committed ~unit:"ops/s" gated

let run () =
  let max_regression = Bench_util.max_regression () in
  Report.section ~id:"Perf" ~title:"hot-path microbenchmarks (BENCH_PERF.json)";
  let ft8 = Builder.fat_tree ~k:8 () in
  let jelly = Builder.jellyfish ~switches:64 () in
  let metrics =
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
  let batch =
    List.concat_map
      (fun (topo, built) -> batch_curve ~topo built)
      [ ("fat_tree_k8", ft8); ("jellyfish_64", jelly) ]
  in
  let conv = failure_convergence_bench ft8 in
  let r =
    { quick = !Bench_util.quick; max_regression; jobs_curve = jobs_curve ();
      domains = Domain.recommended_domain_count (); metrics; batch; net_drain; conv }
  in
  Table.print (metrics_table r);
  Report.note "simulated switch hops, every host's burst drained through Engine + Network:";
  Table.print (net_drain_table r);
  Report.note
    (Printf.sprintf
       "batched path-graph service, %d-query batches (Topo_store.serve_path_graphs; this \
        machine recommends %d domains):"
       batch_size r.domains);
  Table.print (batch_table r);
  Table.print (convergence_table conv);
  Bench_util.write_reports
    [ (json_path, Bench_util.json_to_string (json r)); (md_path, markdown r) ];
  Bench_util.enforce ~prefix:"PERF REGRESSION" (gates r)
