(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) plus the ablations. Run with no argument for the full
   suite, or name experiments to run a subset; `list` shows them. *)

module E = Dumbnet_experiments

let experiments =
  [
    ("fig7", "FPGA resource utilization vs ports", E.Fig7.run);
    ("table1", "code breakdown by module", E.Table1.run);
    ("fig8", "topology discovery time (a: size, b: ports, testbed)", E.Fig8.run);
    ("fig9", "single-host throughput by host stack", E.Fig9.run);
    ("aggregate", "leaf-to-leaf aggregate throughput", E.Aggregate.run);
    ("fig10", "round-trip latency CDF", E.Fig10.run);
    ("table2", "host kernel-module function latencies", E.Table2.run);
    ("fig11a", "failure notification delay CDF", E.Fig11a.run);
    ("fig11b", "throughput recovery: DumbNet vs STP", E.Fig11b.run);
    ("fig12", "path graph size vs epsilon", E.Fig12.run);
    ("fig13", "HiBench task durations by network mode", E.Fig13.run);
    ("ablations", "design-choice ablations (cache, two-stage, TE, prior)", E.Ablations.run);
    ("telemetry", "in-band telemetry: accuracy, gray failures, TE", E.Telemetry_exp.run);
    ("perf", "hot-path and failure-repair microbenchmarks, writes BENCH_PERF.json", E.Perf.run);
    ( "scale",
      "mega-fabric curve: path service + push ledger to k=48 / jellyfish-1024, writes BENCH_SCALE.json",
      E.Scale.run );
    ( "survivability",
      "failure waves + hidden-fault localization, writes BENCH_SURVIVABILITY.json",
      E.Survivability.run );
  ]

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
  | Some (_, _, f) ->
    f ();
    true
  | None ->
    Printf.eprintf "unknown experiment %S (try `list`)\n" name;
    false

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-10s %s\n" n d) experiments

let () =
  (* --quick shrinks budgets and arms the regression gates of perf,
     scale and survivability for the named experiments. *)
  let argv = Array.to_list Sys.argv in
  E.Bench_util.quick := List.mem "--quick" argv;
  let args = List.filter (fun arg -> arg <> "--quick") argv in
  match args with
  | _ :: [] ->
    print_endline "DumbNet evaluation harness: reproducing every table and figure of";
    print_endline
      "\"DumbNet: A Smart Data Center Network Fabric with Dumb Switches\" (EuroSys'18).";
    List.iter
      (fun (_, _, f) ->
        f ();
        print_newline ())
      experiments
  | _ :: [ "list" ] -> list_experiments ()
  | _ :: names ->
    let ok = List.for_all run_one names in
    if not ok then exit 1
  | [] -> assert false
