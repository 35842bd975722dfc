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

let quick = ref false

let budget_s () = if !quick then 0.2 else 1.0

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

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

let assoc name l = try List.assoc name l with Not_found -> 0.

(* --- the report --------------------------------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of json list
  | Obj of (string * json) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Inline, or one item per line at [indent + 2] with the closing bracket
   back at [indent]. *)
let items ~multiline ~indent opening closing item xs =
  if multiline then
    let pad n = String.make n ' ' in
    let line x = pad (indent + 2) ^ item ~indent:(indent + 2) x in
    opening ^ "\n" ^ String.concat ",\n" (List.map line xs) ^ "\n" ^ pad indent ^ closing
  else opening ^ String.concat ", " (List.map (item ~indent) xs) ^ closing

let is_obj = function
  | Obj _ -> true
  | Bool _ | Int _ | Float _ | String _ | List _ -> false

let json_to_string v =
  let rec show ~depth ~indent = function
    | Bool b -> string_of_bool b
    | Int i -> string_of_int i
    | Float (decimals, f) -> Printf.sprintf "%.*f" decimals f
    | String s -> quote s
    | List l -> items ~multiline:(List.exists is_obj l) ~indent "[" "]" (show ~depth:(depth + 1)) l
    | Obj fields ->
      items ~multiline:(depth <= 1) ~indent "{" "}"
        (fun ~indent (k, v) -> quote k ^ ": " ^ show ~depth:(depth + 1) ~indent v)
        fields
  in
  show ~depth:0 ~indent:0 v ^ "\n"

let write_reports files =
  List.iter
    (fun (path, contents) -> Out_channel.with_open_text path (fun oc -> output_string oc contents))
    files;
  Report.note ("wrote " ^ String.concat " and " (List.map fst files))

let regressions ~max_regression ~committed ~unit measured =
  List.filter_map
    (fun (name, v) ->
      let base = assoc name committed in
      if base > 0. && v < base /. max_regression then
        Some
          (Printf.sprintf "%s at %.0f %s, committed baseline %.0f (>%.1fx slower)" name v unit
             base max_regression)
      else None)
    measured

let enforce ~prefix failures =
  if !quick then begin
    List.iter (fun msg -> Printf.printf "%s: %s\n" prefix msg) failures;
    if failures <> [] then exit 1
  end
