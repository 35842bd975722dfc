open Bechamel

let measure_ns ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) ols [] with
  | [ result ] -> (
    match Analyze.OLS.estimates result with
    | Some (ns :: _) -> ns
    | Some [] | None -> nan)
  | _ -> nan

let parse_max_regression = function
  | None -> Ok 2.0
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some m when Float.is_finite m && m > 0. -> Ok m
    | Some _ | None ->
      Error
        (Printf.sprintf "DUMBNET_PERF_MAX_REGRESSION=%S: expected a finite number > 0" s))

let max_regression () =
  match parse_max_regression (Sys.getenv_opt "DUMBNET_PERF_MAX_REGRESSION") with
  | Ok m -> m
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 2
