(* The bench harnesses' reports and gates on fixed, made-up results.

   The expected JSON and markdown strings are what each harness wrote
   from these same inputs before the report moved into Bench_util (its
   own JSON writer and table code at the time), so any drift in the
   shared printer shows here rather than in a committed BENCH_* file. *)

module E = Dumbnet_experiments
module Perf = E.Perf
module Scale = E.Scale
module Survivability = E.Survivability

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* --- perf ------------------------------------------------------------- *)

let conv ?(scoping = 32.127) ?(events_per_sec = 6.54) () =
  {
    Perf.conv_events = 12;
    conv_cached_pairs = 4032;
    conv_repushed_per_event = 125.5;
    conv_scoping_factor = scoping;
    conv_evicted_per_event = 3.25;
    conv_retained_per_event = 76.75;
    conv_events_per_sec = events_per_sec;
    conv_p50_ms = 142.1234;
    conv_p99_ms = 301.9876;
    conv_regen_ms_per_event = 1.0005;
    conv_push_ms_per_event = 0.4444;
  }

(* A metric without a "before", a jobs2 batch row, the net_drain rows
   (one on a topology the tables have no label for) and a convergence
   record. *)
let perf_results =
  {
    Perf.quick = true;
    max_regression = 8.;
    jobs_curve = [ 1; 2 ];
    domains = 2;
    metrics =
      [
        ("pathgraph_per_sec_fat_tree_k8", 70123.456);
        ("pathgraph_per_sec_jellyfish_64", 5000.05);
        ("codec_roundtrips_per_sec", 1234567.8);
        ("metric_without_before", 987.654);
      ];
    batch =
      [
        ("fat_tree_k8", "pathgraph_batch_per_sec_fat_tree_k8_jobs1", 1, 32000.5);
        ("fat_tree_k8", "pathgraph_batch_per_sec_fat_tree_k8_jobs2", 2, 54080.25);
        ("jellyfish_64", "pathgraph_batch_per_sec_jellyfish_64_jobs1", 1, 30000.);
        ("jellyfish_64", "pathgraph_batch_per_sec_jellyfish_64_jobs2", 2, 34500.125);
      ];
    net_drain =
      [
        ("net_drain_hops_per_sec_fat_tree_k8", "fat_tree_k8", 2111827.4, 26.55);
        ("net_drain_hops_per_sec_jellyfish_64", "jellyfish_64", 999.5, 27.25);
        ("net_drain_hops_per_sec_jellyfish_1024", "jellyfish_1024", 1283278., 43.04);
        ("net_drain_hops_per_sec_ring_9", "ring_9", 12.5, 0.);
      ];
    conv = conv ();
  }

let perf_json = {golden|{
  "meta": {
    "quick": true,
    "max_regression": 8.00,
    "jobs_curve": [1, 2],
    "recommended_domain_count": 2,
    "topologies": ["fat_tree_k8", "jellyfish_64", "jellyfish_1024"]
  },
  "metrics": [
    {"name": "pathgraph_per_sec_fat_tree_k8", "before_ops_per_sec": 3596.0, "ops_per_sec": 70123.5, "speedup_vs_before": 19.50},
    {"name": "pathgraph_per_sec_jellyfish_64", "before_ops_per_sec": 6232.0, "ops_per_sec": 5000.1, "speedup_vs_before": 0.80},
    {"name": "codec_roundtrips_per_sec", "before_ops_per_sec": 348075.0, "ops_per_sec": 1234567.8, "speedup_vs_before": 3.55},
    {"name": "metric_without_before", "ops_per_sec": 987.7}
  ],
  "batch_scaling": [
    {"name": "pathgraph_batch_per_sec_fat_tree_k8_jobs1", "jobs": 1, "mode": "single", "ops_per_sec": 32000.5, "speedup_vs_jobs1": 1.00},
    {"name": "pathgraph_batch_per_sec_fat_tree_k8_jobs2", "jobs": 2, "mode": "parallel", "ops_per_sec": 54080.2, "speedup_vs_jobs1": 1.69},
    {"name": "pathgraph_batch_per_sec_jellyfish_64_jobs1", "jobs": 1, "mode": "single", "ops_per_sec": 30000.0, "speedup_vs_jobs1": 1.00},
    {"name": "pathgraph_batch_per_sec_jellyfish_64_jobs2", "jobs": 2, "mode": "parallel", "ops_per_sec": 34500.1, "speedup_vs_jobs1": 1.15}
  ],
  "net_drain": [
    {"name": "net_drain_hops_per_sec_fat_tree_k8", "topology": "fat_tree_k8", "before_ops_per_sec": 1156210.0, "ops_per_sec": 2111827.4, "minor_words_per_hop": 26.55},
    {"name": "net_drain_hops_per_sec_jellyfish_64", "topology": "jellyfish_64", "before_ops_per_sec": 1408735.0, "ops_per_sec": 999.5, "minor_words_per_hop": 27.25},
    {"name": "net_drain_hops_per_sec_jellyfish_1024", "topology": "jellyfish_1024", "before_ops_per_sec": 603789.0, "ops_per_sec": 1283278.0, "minor_words_per_hop": 43.04},
    {"name": "net_drain_hops_per_sec_ring_9", "topology": "ring_9", "before_ops_per_sec": 0.0, "ops_per_sec": 12.5, "minor_words_per_hop": 0.00}
  ],
  "failure_convergence": {
    "topology": "fat_tree_k8",
    "jobs": 1,
    "events": 12,
    "cached_pairs": 4032,
    "repushed_pairs_per_event": 125.50,
    "scoping_factor": 32.13,
    "dist_tables_evicted_per_event": 3.25,
    "dist_tables_retained_per_event": 76.75,
    "events_per_sec": 6.5,
    "repair_latency_p50_ms": 142.123,
    "repair_latency_p99_ms": 301.988,
    "repair_regen_ms_per_event": 1.000,
    "repair_push_ms_per_event": 0.444
  }
}
|golden}

let perf_md = {golden|| metric | before (ops/s) | after (ops/s) | speedup |
|---|---:|---:|---:|
| path graphs/sec, fat tree k=8 | 3 596 | 70 123 | 19.5x |
| path graphs/sec, Jellyfish 64 | 6 232 | 5 000 | 0.8x |
| frame codec round-trips/sec | 348 075 | 1 234 568 | 3.5x |
| metric_without_before | — | 988 | — |

Simulated switch hops/sec: every host's burst drained through Engine +
Network, the simulator every figure and fabbench workload runs on
(before: closure-lane heap):

| topology | before (hops/s) | after (hops/s) | speedup | minor words/hop |
|---|---:|---:|---:|---:|
| fat tree k=8 | 1 156 210 | 2 111 827 | 1.83x | 26.6 |
| Jellyfish 64 | 1 408 735 | 1 000 | 0.00x | 27.2 |
| Jellyfish 1024 | 603 789 | 1 283 278 | 2.13x | 43.0 |
| ring_9 | — | 12 | — | 0.0 |
|golden}

let test_perf_report () =
  check Alcotest.string "BENCH_PERF.json" perf_json
    (E.Bench_util.json_to_string (Perf.json perf_results));
  check Alcotest.string "BENCH_PERF.md" perf_md (Perf.markdown perf_results)

(* Every gated row at its committed baseline: nothing fails at 2x. *)
let perf_passing =
  let at name = E.Bench_util.assoc name Perf.committed in
  let drain topo = (Perf.net_drain_metric_name topo, topo, at (Perf.net_drain_metric_name topo), 15.) in
  let batch topo = (topo, Perf.batch_metric_name topo 1, 1, at (Perf.batch_metric_name topo 1)) in
  {
    Perf.quick = true;
    max_regression = 2.;
    jobs_curve = [ 1 ];
    domains = 1;
    metrics =
      List.map
        (fun name -> (name, at name))
        [ "pathgraph_per_sec_fat_tree_k8"; "pathgraph_per_sec_jellyfish_64"; "codec_roundtrips_per_sec" ];
    batch = [ batch "fat_tree_k8"; batch "jellyfish_64" ];
    net_drain = [ drain "fat_tree_k8"; drain "jellyfish_64"; drain "jellyfish_1024" ];
    conv = conv ~scoping:20. ~events_per_sec:6.5 ();
  }

let slow r = { r with Perf.metrics = ("codec_roundtrips_per_sec", 471884. /. 2. -. 1.) :: List.tl r.Perf.metrics }

let wordy r =
  {
    r with
    Perf.net_drain =
      List.map
        (fun (name, topo, ops, _) -> (name, topo, ops, if topo = "jellyfish_64" then 26. else 15.))
        r.Perf.net_drain;
  }

let unscoped r = { r with Perf.conv = { r.Perf.conv with Perf.conv_scoping_factor = 4.9 } }

let codec_msg = "codec_roundtrips_per_sec at 235941 ops/s, committed baseline 471884 (>2.0x slower)"

let words_msg = "net_drain_hops_per_sec_jellyfish_64 allocates 26.0 minor words per hop (budget 25.0)"

let scoping_msg = "failure-repair scoping factor 4.90 < 5.0"

let test_perf_gates () =
  let gates r = Perf.gates r in
  check Alcotest.(list string) "all at baseline" [] (gates perf_passing);
  check Alcotest.(list string) "throughput" [ codec_msg ] (gates (slow perf_passing));
  check Alcotest.(list string) "words/hop" [ words_msg ] (gates (wordy perf_passing));
  (match gates (unscoped perf_passing) with
  | [ m ] -> check Alcotest.bool "scoping" true (contains m scoping_msg)
  | ms -> Alcotest.failf "scoping: %d messages" (List.length ms));
  (* All three at once: every failed gate is reported, not the first. *)
  let all = gates (slow (wordy (unscoped perf_passing))) in
  check Alcotest.int "three failures" 3 (List.length all);
  List.iter
    (fun want ->
      check Alcotest.bool ("names " ^ want) true (List.exists (fun m -> contains m want) all))
    [ codec_msg; words_msg; scoping_msg ]

(* --- scale ------------------------------------------------------------ *)

let point ?(ledger_pairs = 64) name sw hosts gps interned raw scoping live =
  {
    Scale.r_name = name;
    r_switches = sw;
    r_hosts = hosts;
    r_cables = sw * 3;
    r_graphs_per_sec = gps;
    r_ledger_pairs = ledger_pairs;
    r_interned_bytes_per_pair = interned;
    r_uninterned_bytes_per_pair = raw;
    r_arena_stacks = 100;
    r_arena_bytes = 4096;
    r_arena_interns = 250;
    r_repair_events = 4;
    r_affected_per_event = 2.125;
    r_scoping_factor = scoping;
    r_evicted_per_event = 1.25;
    r_retained_per_event = 10.75;
    r_live_mib = live;
    r_point_s = 0.36;
  }

let scale_results =
  {
    Scale.quick = true;
    max_regression = 2.;
    curve =
      [
        point "fat_tree_k8" 80 128 21981.5 180.25 612.5 30.117 3.05;
        point "fat_tree_k16" 320 1024 2829.49 150. 900.75 64. 40.95;
        point "jellyfish_64" 64 192 22634. 0. 512. 0. 0.;
      ];
  }

let scale_json = {golden|{
  "meta": {
    "quick": true,
    "max_regression": 2.00,
    "word_bytes": 8,
    "points": ["fat_tree_k8", "fat_tree_k16", "jellyfish_64"]
  },
  "curve": [
    {"name": "fat_tree_k8", "switches": 80, "hosts": 128, "cables": 240, "pathgraphs_per_sec": 21981.5, "ledger_pairs": 64, "interned_bytes_per_pair": 180.2, "uninterned_bytes_per_pair": 612.5, "arena_stacks": 100, "arena_bytes": 4096, "arena_interns": 250, "repair_events": 4, "affected_pairs_per_event": 2.12, "repair_scoping_factor": 30.1, "evicted_roots_per_event": 1.2, "retained_roots_per_event": 10.8, "live_mib": 3.0, "point_seconds": 0.4},
    {"name": "fat_tree_k16", "switches": 320, "hosts": 1024, "cables": 960, "pathgraphs_per_sec": 2829.5, "ledger_pairs": 64, "interned_bytes_per_pair": 150.0, "uninterned_bytes_per_pair": 900.8, "arena_stacks": 100, "arena_bytes": 4096, "arena_interns": 250, "repair_events": 4, "affected_pairs_per_event": 2.12, "repair_scoping_factor": 64.0, "evicted_roots_per_event": 1.2, "retained_roots_per_event": 10.8, "live_mib": 41.0, "point_seconds": 0.4},
    {"name": "jellyfish_64", "switches": 64, "hosts": 192, "cables": 192, "pathgraphs_per_sec": 22634.0, "ledger_pairs": 64, "interned_bytes_per_pair": 0.0, "uninterned_bytes_per_pair": 512.0, "arena_stacks": 100, "arena_bytes": 4096, "arena_interns": 250, "repair_events": 4, "affected_pairs_per_event": 2.12, "repair_scoping_factor": 0.0, "evicted_roots_per_event": 1.2, "retained_roots_per_event": 10.8, "live_mib": 0.0, "point_seconds": 0.4}
  ]
}
|golden}

let scale_md = {golden|| fabric | switches | hosts | path graphs/s | B/pair interned | B/pair raw | compression | repair scoping | live MiB |
|---|---:|---:|---:|---:|---:|---:|---:|---:|
| fat_tree_k8 | 80 | 128 | 21982 | 180 | 612 | 3.4x | 30x | 3.0 |
| fat_tree_k16 | 320 | 1024 | 2829 | 150 | 901 | 6.0x | 64x | 41.0 |
| jellyfish_64 | 64 | 192 | 22634 | 0 | 512 | 0.0x | 0x | 0.0 |
|golden}

let test_scale_report () =
  check Alcotest.string "BENCH_SCALE.json" scale_json
    (E.Bench_util.json_to_string (Scale.json scale_results));
  check Alcotest.string "BENCH_SCALE.md" scale_md
    (Dumbnet_util.Table.markdown (Scale.table scale_results))

let test_scale_gates () =
  let gates curve = Scale.gates { scale_results with Scale.curve } in
  let healthy = point "fat_tree_k16" 320 1024 2829. 150. 900. 13. 1. in
  check Alcotest.(list string) "healthy" [] (gates [ healthy ]);
  let bloated = point "fat_tree_k16" 256 1024 2829. 900. 900. 13. 1. in
  let unscoped = point ~ledger_pairs:64 "jellyfish_64" 64 64 22634. 150. 900. 2.9 1. in
  let slow = point "fat_tree_k8" 80 128 (21981. /. 2. -. 1.) 150. 900. 13. 1. in
  let arena_msg =
    "fat_tree_k16 interned 900 B/pair >= raw 900 B/pair — the arena stopped paying for itself"
  in
  let scoping_msg = "jellyfish_64 repair scoping 2.9x < 3.0 (one cable re-pushes 2.1 of 64 pairs)" in
  let slow_msg =
    "fat_tree_k8 at 10990 path graphs/s, committed baseline 21981 (>2.0x slower)"
  in
  check Alcotest.(list string) "interned >= raw at 256 switches" [ arena_msg ] (gates [ bloated ]);
  check Alcotest.(list string) "scoping" [ scoping_msg ] (gates [ unscoped ]);
  check Alcotest.(list string) "throughput" [ slow_msg ] (gates [ slow ]);
  check Alcotest.(list string) "every failed gate" [ arena_msg; scoping_msg; slow_msg ]
    (gates [ bloated; unscoped; slow ])

(* --- survivability ---------------------------------------------------- *)

let wave i cut cum reach =
  {
    Survivability.w_index = i;
    w_cut = cut;
    w_cum_cut = cum;
    w_reach_pct = reach;
    w_valid_paths_pct = 87.5;
    w_stretch_mean = 1.0625;
    w_stretch_p99 = 1.5;
    w_repair_ms = 12.345;
    w_repushed = 17;
  }

let loc topo trials exact =
  {
    Survivability.l_topo = topo;
    l_trials = trials;
    l_exact = exact;
    l_silent = trials / 2;
    l_probes_mean = (if trials = 0 then 0. else 14.333);
    l_probes_p99 = (if trials = 0 then 0. else 22.);
    l_batches_mean = (if trials = 0 then 0. else 2.1667);
  }

(* A partitioned schedule with its waves, and a localization row with
   no trials. *)
let survivability_results =
  {
    Survivability.quick = true;
    schedules =
      [
        {
          Survivability.sr_topo = "fat_tree_k8";
          sr_sched = Survivability.Independent;
          sr_waves = [ wave 1 3 3 100.; wave 2 3 6 100. ];
          sr_partitioned = false;
        };
        {
          Survivability.sr_topo = "jellyfish_64";
          sr_sched = Survivability.Correlated;
          sr_waves = [ wave 1 2 2 100.; wave 2 3 5 98.4127 ];
          sr_partitioned = true;
        };
      ];
    locs = [ loc "fat_tree_k8" 6 5; loc "jellyfish_64" 0 0 ];
  }

let survivability_json = {golden|{
  "meta": {
    "quick": true,
    "max_waves": 2,
    "cables_per_wave": 3,
    "schedules": ["independent", "correlated", "flapping"],
    "topologies": ["fat_tree_k8", "jellyfish_64"]
  },
  "survivability": [
    {"topology": "fat_tree_k8", "schedule": "independent", "partitioned": false, "waves": [
      {"wave": 1, "cut": 3, "cum_cut": 3, "reach_pct": 100.00, "valid_paths_pct": 87.50, "stretch_mean": 1.062, "stretch_p99": 1.500, "repair_ms": 12.35, "repushed_pairs": 17},
      {"wave": 2, "cut": 3, "cum_cut": 6, "reach_pct": 100.00, "valid_paths_pct": 87.50, "stretch_mean": 1.062, "stretch_p99": 1.500, "repair_ms": 12.35, "repushed_pairs": 17}
    ]},
    {"topology": "jellyfish_64", "schedule": "correlated", "partitioned": true, "waves": [
      {"wave": 1, "cut": 2, "cum_cut": 2, "reach_pct": 100.00, "valid_paths_pct": 87.50, "stretch_mean": 1.062, "stretch_p99": 1.500, "repair_ms": 12.35, "repushed_pairs": 17},
      {"wave": 2, "cut": 3, "cum_cut": 5, "reach_pct": 98.41, "valid_paths_pct": 87.50, "stretch_mean": 1.062, "stretch_p99": 1.500, "repair_ms": 12.35, "repushed_pairs": 17}
    ]}
  ],
  "localization": [
    {"topology": "fat_tree_k8", "trials": 6, "exact": 5, "accuracy_pct": 83.3, "silent_drop_trials": 3, "miswire_trials": 3, "probes_mean": 14.3, "probes_p99": 22.0, "batches_mean": 2.17},
    {"topology": "jellyfish_64", "trials": 0, "exact": 0, "accuracy_pct": 0.0, "silent_drop_trials": 0, "miswire_trials": 0, "probes_mean": 0.0, "probes_p99": 0.0, "batches_mean": 0.00}
  ]
}
|golden}

let test_survivability_report () =
  check Alcotest.string "BENCH_SURVIVABILITY.json" survivability_json
    (E.Bench_util.json_to_string (Survivability.json survivability_results))

let test_survivability_gates () =
  let sched waves =
    {
      Survivability.sr_topo = "jellyfish_64";
      sr_sched = Survivability.Flapping;
      sr_waves = waves;
      sr_partitioned = false;
    }
  in
  let gates schedules locs =
    Survivability.gates { survivability_results with Survivability.schedules; locs }
  in
  let whole = sched [ wave 1 3 3 100.; wave 2 3 6 97. ] in
  let cut = sched [ wave 1 3 3 99. ] in
  let exact = loc "fat_tree_k8" 6 6 in
  let missed = loc "fat_tree_k8" 6 5 in
  let reach_msg = "jellyfish_64/flapping loses reachability in wave 1" in
  let loc_msg = "localization on fat_tree_k8 at 5/6 exact (expected 100%)" in
  check Alcotest.(list string) "wave 1 whole, every fault exact" [] (gates [ whole ] [ exact ]);
  check Alcotest.(list string) "wave-1 reach 99%" [ reach_msg ] (gates [ cut ] [ exact ]);
  check Alcotest.(list string) "5/6 exact" [ loc_msg ] (gates [ whole ] [ missed ]);
  check Alcotest.(list string) "both" [ reach_msg; loc_msg ] (gates [ cut ] [ missed ]);
  check Alcotest.(list string) "no trials is no evidence"
    [ "localization on jellyfish_64 at 0/0 exact (expected 100%)" ]
    (gates [ whole ] [ loc "jellyfish_64" 0 0 ])

(* --- the printer and tables on their own ------------------------------ *)

let test_json_layout () =
  let open E.Bench_util in
  check Alcotest.string "nesting"
    "{\n  \"a\": {\n    \"b\": [1, 2],\n    \"c\": \"q\\\"\"\n  },\n  \"rows\": [\n    {\"x\": 0.50, \"in\": {\"y\": true}}\n  ],\n  \"empty\": []\n}\n"
    (json_to_string
       (Obj
          [
            ("a", Obj [ ("b", List [ Int 1; Int 2 ]); ("c", String "q\"") ]);
            ("rows", List [ Obj [ ("x", Float (2, 0.5)); ("in", Obj [ ("y", Bool true) ]) ] ]);
            ("empty", List []);
          ]))

let test_markdown_table () =
  check Alcotest.string "rule and rows" "| a | b | c |\n|---|---:|---:|\n| x | 1 |  |\n"
    (Dumbnet_util.Table.markdown (Dumbnet_util.Table.of_rows [ "a"; "b"; "c" ] [ [ "x"; "1" ] ]))

let () =
  Alcotest.run "bench report"
    [
      ( "format",
        [
          Alcotest.test_case "json layout" `Quick test_json_layout;
          Alcotest.test_case "markdown table" `Quick test_markdown_table;
          Alcotest.test_case "perf golden" `Quick test_perf_report;
          Alcotest.test_case "scale golden" `Quick test_scale_report;
          Alcotest.test_case "survivability golden" `Quick test_survivability_report;
        ] );
      ( "gates",
        [
          Alcotest.test_case "perf" `Quick test_perf_gates;
          Alcotest.test_case "scale" `Quick test_scale_gates;
          Alcotest.test_case "survivability" `Quick test_survivability_gates;
        ] );
    ]
