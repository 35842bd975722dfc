(* Tests for dumbnet-lint: every rule exercised through fixtures under
   lint_fixtures/ (positive, negative, waived), plus the repo gate — the
   real tree must lint clean with a small set of reasoned, load-bearing
   waivers. The fixtures are parsed, never compiled. *)

module Lint = Dumbnet_analysis.Lint
module Rules = Dumbnet_analysis.Rules
module Diagnostic = Dumbnet_analysis.Diagnostic

let check = Alcotest.check

(* Fixtures live outside the repo's hot dirs, so point the R1 scope at
   them; everything else keeps the production defaults. *)
let fixture_config = { Rules.default_config with Rules.hot_dirs = [ "lint_fixtures" ] }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let repo_root () =
  match Lint.find_root () with
  | Some root -> root
  | None -> Alcotest.fail "cannot locate the repo root from the test runner"

(* `dune runtest` runs from _build/default/test where the (deps
   source_tree) sandbox puts the fixtures; `dune exec` runs from the
   repo root, so fall back to the checkout. *)
let fixture_dir =
  lazy
    (if Sys.file_exists "lint_fixtures" then "lint_fixtures"
     else Filename.concat (repo_root ()) "test/lint_fixtures")

let lint_fixture ?(config = fixture_config) ?file name =
  let file = Option.value file ~default:(Filename.concat "lint_fixtures" name) in
  Lint.lint_source ~config ~file
    (read_file (Filename.concat (Lazy.force fixture_dir) name))

(* The interprocedural rules need several units linked together: feed a
   whole fixture set through the two-pass pipeline. *)
let lint_fixture_set ?(config = fixture_config) ?ratchet names =
  Lint.lint_sources ~config ?ratchet
    (List.map
       (fun name ->
         ( Filename.concat "lint_fixtures" name,
           read_file (Filename.concat (Lazy.force fixture_dir) name) ))
       names)

let count rule diags =
  List.length (List.filter (fun d -> d.Diagnostic.rule = rule) diags)

let by_rule rule diags = List.filter (fun d -> d.Diagnostic.rule = rule) diags

let errors diags =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags

let contains hay needle =
  let n = String.length needle in
  let h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- R1 --- *)

let test_r1_flags_raising_lookups () =
  let diags, _ = lint_fixture "r1_raising.ml" in
  check Alcotest.int "three raising lookups" 3 (count "R1" diags);
  check Alcotest.int "all are errors" 3 (List.length (errors diags))

let test_r1_silent_on_total_lookups () =
  let diags, _ = lint_fixture "r1_clean.ml" in
  check Alcotest.int "no findings" 0 (List.length diags)

let test_r1_scoped_to_hot_dirs () =
  (* The same raising source, attributed to a cold directory: R1 must
     not fire outside the configured hot paths. *)
  let diags, _ = lint_fixture "r1_raising.ml" ~file:"bench/r1_raising.ml" in
  check Alcotest.int "cold file untouched" 0 (count "R1" diags)

let test_r1_waiver_suppresses () =
  let diags, waivers = lint_fixture "r1_waived.ml" in
  check Alcotest.int "no findings" 0 (List.length diags);
  match waivers with
  | [ w ] ->
    check Alcotest.int "waiver absorbed the hit" 1 w.Rules.w_hits;
    check Alcotest.bool "reason recorded" true (String.trim w.Rules.w_reason <> "")
  | ws -> Alcotest.failf "expected exactly one waiver, got %d" (List.length ws)

(* --- R2 --- *)

let test_r2_poly_compare () =
  let diags, _ = lint_fixture "r2_poly.ml" in
  check Alcotest.int "ascription, compare and hash all flagged" 3 (count "R2" diags)

(* --- R3 --- *)

let test_r3_callback_raise () =
  let diags, waivers = lint_fixture "r3_callback.ml" in
  check Alcotest.int "only the naked failwith flagged" 1 (count "R3" diags);
  match waivers with
  | [ w ] -> check Alcotest.int "waived raise counted" 1 w.Rules.w_hits
  | ws -> Alcotest.failf "expected exactly one waiver, got %d" (List.length ws)

let test_r3_line_callback_raise () =
  let diags, _ = lint_fixture "r3_line.ml" in
  check Alcotest.int "the naked failwith on a line flagged" 1 (count "R3" diags)

(* --- R4 --- *)

let test_r4_hot_advisories () =
  let diags, _ = lint_fixture "r4_hot.ml" in
  check Alcotest.int "append, map and loop closure advised" 3 (count "R4" diags);
  check Alcotest.int "advisories are not errors" 0 (List.length (errors diags))

(* --- R5 --- *)

let test_r5_wire_constants () =
  let diags, _ = lint_fixture "r5_wire.ml" in
  (* 0x9800, = 0xff, the 0xff pattern, the hop-limit binding, the
     labelled argument and the record field — the [land 0xff] mask and
     the plain 5s stay silent. *)
  check Alcotest.int "six re-hardcoded constants" 6 (count "R5" diags)

let test_r5_probe_opcodes () =
  let diags, _ = lint_fixture "r5_probe_op.ml" in
  (* The 0xA1 binding, the 0xa2 pattern and the 0xA3 comparison — the
     decimal 161 stays silent. *)
  check Alcotest.int "three re-hardcoded opcodes" 3 (count "R5" diags);
  check Alcotest.int "all are errors" 3 (List.length (errors diags))

let test_r5_probe_opcode_waiver () =
  let diags, waivers = lint_fixture "r5_probe_op_waived.ml" in
  check Alcotest.int "no findings" 0 (List.length diags);
  match waivers with
  | [ w ] -> check Alcotest.int "wire_const waiver used" 1 w.Rules.w_hits
  | ws -> Alcotest.failf "expected exactly one waiver, got %d" (List.length ws)

let test_r5_waiver () =
  let diags, waivers = lint_fixture "r5_waived.ml" in
  check Alcotest.int "no findings" 0 (List.length diags);
  match waivers with
  | [ w ] -> check Alcotest.int "wire_const waiver used" 1 w.Rules.w_hits
  | ws -> Alcotest.failf "expected exactly one waiver, got %d" (List.length ws)

(* --- R6 --- *)

let test_r6_magic_and_ignore () =
  let diags, _ = lint_fixture "r6_magic.ml" in
  check Alcotest.int "Obj.magic and ignored _result call" 2 (count "R6" diags)

(* --- R7 --- *)

let test_r7_domain_primitives () =
  let diags, _ = lint_fixture "r7_domain.ml" in
  check Alcotest.int "spawn, mutex, condvar and atomic flagged" 4 (count "R7" diags);
  (* join/lock/get/recommended_domain_count never create, so stay silent. *)
  check Alcotest.int "nothing else" 4 (List.length diags)

let test_r7_sim_shard_path_fenced () =
  (* lib/sim is not exempt from R7: only the pool module may touch raw
     domain primitives, so the same source attributed to the simulator
     is flagged exactly as elsewhere. *)
  let diags, _ = lint_fixture "r7_domain.ml" ~file:"lib/sim/network.ml" in
  check Alcotest.int "lib/sim not exempt" 4 (count "R7" diags)

let test_r7_pool_module_exempt () =
  (* The same source attributed to the pool module itself: that is the
     one place raw primitives are allowed. *)
  let diags, _ = lint_fixture "r7_domain.ml" ~file:"lib/util/pool.ml" in
  check Alcotest.int "pool module exempt" 0 (count "R7" diags)

let test_r7_waiver () =
  let diags, waivers = lint_fixture "r7_waived.ml" in
  check Alcotest.int "no findings" 0 (List.length diags);
  match waivers with
  | [ w ] -> check Alcotest.int "domain waiver used" 1 w.Rules.w_hits
  | ws -> Alcotest.failf "expected exactly one waiver, got %d" (List.length ws)

(* --- R8 --- *)

let r8_set = [ "r8_state.ml"; "r8_worker.ml" ]

let test_r8_transitive_race () =
  let report = lint_fixture_set r8_set in
  let r8 = by_rule "R8" report.Lint.diagnostics in
  (* the := write and the ! read of the unguarded ref, nothing else *)
  check Alcotest.int "write and read of the unguarded ref flagged" 2 (List.length r8);
  List.iter
    (fun d ->
      check Alcotest.string "anchored at the access site" "lint_fixtures/r8_state.ml"
        d.Diagnostic.file;
      check Alcotest.bool "names the racing slot" true
        (contains d.Diagnostic.message "R8_state.total");
      check Alcotest.bool "witness shows the worker path" true
        (contains d.Diagnostic.message "R8_worker.run"))
    r8

let test_r8_atomic_and_waived_clean () =
  let report = lint_fixture_set r8_set in
  List.iter
    (fun d ->
      check Alcotest.bool "Atomic slot never flagged" false
        (contains d.Diagnostic.message "R8_state.processed");
      check Alcotest.bool "shared-waived slot never flagged" false
        (contains d.Diagnostic.message "R8_state.debug_count"))
    (by_rule "R8" report.Lint.diagnostics);
  match
    List.filter (fun (w : Rules.waiver) -> w.Rules.w_kind = Rules.Shared)
      report.Lint.waivers
  with
  | [ w ] -> check Alcotest.int "shared waiver absorbed the hit" 1 w.Rules.w_hits
  | ws -> Alcotest.failf "expected exactly one shared waiver, got %d" (List.length ws)

(* --- R9 (interprocedural) --- *)

let test_r9_inference () =
  let report = lint_fixture_set [ "r9_chain.ml" ] in
  let r9 = by_rule "R9" report.Lint.diagnostics in
  check Alcotest.int "mid and leaf inferred hot" 2 (List.length r9);
  check Alcotest.int "inference is advice, not error" 0 (List.length (errors r9));
  check Alcotest.int "count surfaced in the report" 2 report.Lint.inferred_hot_count;
  List.iter
    (fun d ->
      check Alcotest.bool "cold stays cold" false
        (contains d.Diagnostic.message "R9_chain.cold");
      check Alcotest.bool "the annotated root is not re-flagged" false
        (contains d.Diagnostic.message "R9_chain.dispatch is"))
    r9

let test_r9_ratchet_boundary () =
  let ratchet_diags ratchet =
    let report = lint_fixture_set ~ratchet [ "r9_chain.ml" ] in
    List.filter
      (fun d -> d.Diagnostic.file = "lint_ratchet.json")
      report.Lint.diagnostics
  in
  (* exactly at the committed count: silence *)
  check Alcotest.int "at the ratchet: no finding" 0 (List.length (ratchet_diags 2));
  (* above the count: the ratchet is slack, advise lowering it *)
  (match ratchet_diags 3 with
  | [ d ] ->
    check Alcotest.bool "slack is advice" true (d.Diagnostic.severity = Diagnostic.Advice)
  | ds -> Alcotest.failf "expected one slack advisory, got %d" (List.length ds));
  (* below the count: new inferred-hot functions appeared — error *)
  match ratchet_diags 1 with
  | [ d ] ->
    check Alcotest.bool "exceeded ratchet is an error" true
      (d.Diagnostic.severity = Diagnostic.Error)
  | ds -> Alcotest.failf "expected one ratchet error, got %d" (List.length ds)

(* --- R10 (interprocedural) --- *)

let test_r10_transitive_raise () =
  let report = lint_fixture_set [ "r10_helper.ml"; "r10_mid.ml"; "r10_cb.ml" ] in
  check Alcotest.int "no syntactic R3 finding anywhere" 0
    (count "R3" report.Lint.diagnostics);
  match by_rule "R10" report.Lint.diagnostics with
  | [ d ] ->
    check Alcotest.string "the unguarded callback is flagged" "lint_fixtures/r10_cb.ml"
      d.Diagnostic.file;
    check Alcotest.bool "witness chain reaches the raising leaf" true
      (contains d.Diagnostic.message "R10_mid.step");
    check Alcotest.bool "names the raiser" true (contains d.Diagnostic.message "failwith")
  | ds ->
    Alcotest.failf "expected exactly one R10 finding (guarded must stay clean), got %d"
      (List.length ds)

(* --- W1 --- *)

let test_w1_waiver_hygiene () =
  let diags, waivers = lint_fixture "w1_unused.ml" in
  check Alcotest.int "unused waiver and missing reason" 2 (count "W1" diags);
  check Alcotest.int "both waivers reported" 2 (List.length waivers)

(* --- the diagnostic JSON schema --- *)

let test_diag_json_roundtrip () =
  let cases =
    [
      Diagnostic.make ~rule:"R8" ~severity:Diagnostic.Error ~file:"lib/sim/engine.ml"
        ~line:42 ~col:7 "plain ascii message";
      Diagnostic.make ~rule:"R9" ~severity:Diagnostic.Advice ~file:"lib/a \"b\"\\c.ml"
        ~line:1 ~col:0 "quotes \"here\", a\ttab, a\nnewline and a backslash \\";
      Diagnostic.make ~rule:"W2" ~severity:Diagnostic.Error ~file:"lint_ratchet.json"
        ~line:1 ~col:0 "control char \x01 survives";
    ]
  in
  List.iter
    (fun d ->
      match Diagnostic.of_json (Diagnostic.to_json d) with
      | Some d' ->
        check Alcotest.bool
          (Printf.sprintf "%s round-trips" d.Diagnostic.rule)
          true (d = d')
      | None -> Alcotest.failf "of_json rejected its own to_json for %s" d.Diagnostic.rule)
    cases

let test_diag_json_rejects_malformed () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "rejects %S" s) true
        (Diagnostic.of_json s = None))
    [
      "";
      "{";
      "not json at all";
      {|{"file":"a.ml","line":1,"col":0,"rule":"R1","severity":"fatal","message":"m"}|};
      {|{"file":"a.ml","line":1,"col":0,"rule":"R1","severity":"error"}|};
      {|{"file":"a.ml","line":"one","col":0,"rule":"R1","severity":"error","message":"m"}|};
    ]

(* --- parse failures --- *)

let test_parse_error_is_a_finding () =
  let diags, _ =
    Lint.lint_source ~config:fixture_config ~file:"lint_fixtures/broken.ml"
      "let = let in ;;"
  in
  check Alcotest.int "one parse diagnostic" 1 (count "parse" diags);
  check Alcotest.int "and it is an error" 1 (List.length (errors diags))

(* --- the repo gate --- *)

let test_repo_gate_clean () =
  let root = repo_root () in
  let ratchet = Lint.read_ratchet ~root in
  check Alcotest.bool "R9 ratchet is committed" true (ratchet <> None);
  let report =
    Lint.scan ?ratchet ~root ~dirs:[ "lib"; "bin"; "bench"; "examples" ] ()
  in
  check Alcotest.bool "scanned a real tree" true (report.Lint.files_scanned > 20);
  check Alcotest.bool "hot paths inferred" true (report.Lint.inferred_hot_count > 0);
  (match Lint.errors report with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "repo must lint clean, first error: %s"
      (Format.asprintf "%a" Diagnostic.pp d));
  let waivers = report.Lint.waivers in
  check Alcotest.bool "waiver budget respected" true
    (List.length waivers <= Rules.default_config.Rules.max_waivers);
  List.iter
    (fun (w : Rules.waiver) ->
      check Alcotest.bool
        (Printf.sprintf "%s:%d waiver has a reason" w.Rules.w_file w.Rules.w_line)
        true
        (String.trim w.Rules.w_reason <> "");
      check Alcotest.bool
        (Printf.sprintf "%s:%d waiver is load-bearing" w.Rules.w_file w.Rules.w_line)
        true (w.Rules.w_hits > 0))
    waivers

let test_repo_gate_ratchet () =
  (* Reintroducing a raising lookup under lib/sim must fail the gate. *)
  let diags, _ =
    Lint.lint_source ~file:"lib/sim/regression.ml" "let f tbl k = Hashtbl.find tbl k"
  in
  check Alcotest.int "regression caught" 1 (count "R1" diags)

let test_waiver_budget_enforced () =
  (* With the budget forced to zero, every existing waiver turns into a
     W2 error — the cap is live, not decorative. *)
  let config = { Rules.default_config with Rules.max_waivers = 0 } in
  let report = Lint.scan ~config ~root:(repo_root ()) ~dirs:[ "lib" ] () in
  let w2 = count "W2" report.Lint.diagnostics in
  check Alcotest.bool "repo has waivers to cap" true (List.length report.Lint.waivers > 0);
  check Alcotest.int "every waiver beyond the budget errors" (List.length report.Lint.waivers) w2

let test_waiver_budget_boundary () =
  (* Three used waivers: a budget of exactly three is silent, a budget
     of two errors on precisely the one waiver past the line. *)
  let names = [ "r1_waived.ml"; "r5_waived.ml"; "r7_waived.ml" ] in
  let at = lint_fixture_set ~config:{ fixture_config with Rules.max_waivers = 3 } names in
  check Alcotest.int "three waivers seen" 3 (List.length at.Lint.waivers);
  check Alcotest.int "at the budget: no W2" 0 (count "W2" at.Lint.diagnostics);
  check Alcotest.int "at the budget: no errors at all" 0
    (List.length (errors at.Lint.diagnostics));
  let over =
    lint_fixture_set ~config:{ fixture_config with Rules.max_waivers = 2 } names
  in
  check Alcotest.int "one past the budget: one W2" 1 (count "W2" over.Lint.diagnostics)

let test_scan_dedups_dirs () =
  (* Overlapping and repeated directory arguments must not double-count
     files, findings, or waivers. *)
  let root = repo_root () in
  let once = Lint.scan ~root ~dirs:[ "lib" ] () in
  let dup = Lint.scan ~root ~dirs:[ "lib"; "lib/analysis"; "lib"; "lib/topology" ] () in
  check Alcotest.int "same files" once.Lint.files_scanned dup.Lint.files_scanned;
  check Alcotest.int "same findings"
    (List.length once.Lint.diagnostics)
    (List.length dup.Lint.diagnostics);
  check Alcotest.int "same waivers"
    (List.length once.Lint.waivers)
    (List.length dup.Lint.waivers)

let test_read_ratchet () =
  let dir = Filename.temp_file "dumbnet_lint" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  check
    (Alcotest.option Alcotest.int)
    "absent file reads as None" None (Lint.read_ratchet ~root:dir);
  let oc = open_out (Filename.concat dir Lint.ratchet_file) in
  output_string oc "{\n  \"r9_inferred_hot\": 42\n}\n";
  close_out oc;
  check
    (Alcotest.option Alcotest.int)
    "committed count read back" (Some 42) (Lint.read_ratchet ~root:dir)

let () =
  Alcotest.run "analysis"
    [
      ( "r1",
        [
          Alcotest.test_case "flags raising lookups" `Quick test_r1_flags_raising_lookups;
          Alcotest.test_case "silent on total lookups" `Quick
            test_r1_silent_on_total_lookups;
          Alcotest.test_case "scoped to hot dirs" `Quick test_r1_scoped_to_hot_dirs;
          Alcotest.test_case "waiver suppresses" `Quick test_r1_waiver_suppresses;
        ] );
      ("r2", [ Alcotest.test_case "poly compare" `Quick test_r2_poly_compare ]);
      ( "r3",
        [
          Alcotest.test_case "callback raise" `Quick test_r3_callback_raise;
          Alcotest.test_case "delay-line callback raise" `Quick test_r3_line_callback_raise;
        ] );
      ("r4", [ Alcotest.test_case "hot advisories" `Quick test_r4_hot_advisories ]);
      ( "r5",
        [
          Alcotest.test_case "wire constants" `Quick test_r5_wire_constants;
          Alcotest.test_case "probe opcodes" `Quick test_r5_probe_opcodes;
          Alcotest.test_case "probe opcode waiver" `Quick test_r5_probe_opcode_waiver;
          Alcotest.test_case "wire_const waiver" `Quick test_r5_waiver;
        ] );
      ("r6", [ Alcotest.test_case "magic and ignore" `Quick test_r6_magic_and_ignore ]);
      ( "r7",
        [
          Alcotest.test_case "domain primitives fenced" `Quick test_r7_domain_primitives;
          Alcotest.test_case "sharded engine path fenced" `Quick test_r7_sim_shard_path_fenced;
          Alcotest.test_case "pool module exempt" `Quick test_r7_pool_module_exempt;
          Alcotest.test_case "domain waiver" `Quick test_r7_waiver;
        ] );
      ( "r8",
        [
          Alcotest.test_case "transitive race flagged" `Quick test_r8_transitive_race;
          Alcotest.test_case "atomic and waived state clean" `Quick
            test_r8_atomic_and_waived_clean;
        ] );
      ( "r9",
        [
          Alcotest.test_case "hotness propagates" `Quick test_r9_inference;
          Alcotest.test_case "ratchet boundary" `Quick test_r9_ratchet_boundary;
        ] );
      ( "r10",
        [ Alcotest.test_case "transitive raise flagged" `Quick test_r10_transitive_raise ]
      );
      ("w1", [ Alcotest.test_case "waiver hygiene" `Quick test_w1_waiver_hygiene ]);
      ( "json",
        [
          Alcotest.test_case "diagnostic round-trips" `Quick test_diag_json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_diag_json_rejects_malformed;
        ] );
      ( "parse",
        [ Alcotest.test_case "parse error is a finding" `Quick test_parse_error_is_a_finding ]
      );
      ( "gate",
        [
          Alcotest.test_case "repo lints clean" `Quick test_repo_gate_clean;
          Alcotest.test_case "ratchet catches regressions" `Quick test_repo_gate_ratchet;
          Alcotest.test_case "waiver budget enforced" `Quick test_waiver_budget_enforced;
          Alcotest.test_case "waiver budget boundary" `Quick test_waiver_budget_boundary;
          Alcotest.test_case "scan dedups directories" `Quick test_scan_dedups_dirs;
          Alcotest.test_case "ratchet file read back" `Quick test_read_ratchet;
        ] );
    ]
