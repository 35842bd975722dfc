(* The dumbnet-lint rule engine: a single Parsetree walk (compiler-libs
   Ast_iterator) enforcing the fabric's coding invariants. The rules are
   syntactic on purpose — they run on the raw sources with no type
   information, so every check is a conservative pattern the codebase
   agrees to write in a recognizable way (see DESIGN.md §8).

   R1  no raising lookups (Hashtbl.find, List.hd/tl/nth/find/assoc,
       Option.get, *.unsafe_get) in the hot-path libraries
   R2  no polymorphic =/compare/Hashtbl.hash on frames, graphs or path
       graphs (type-ascription hints and a variable-name denylist)
   R3  no raise/failwith/invalid_arg escaping a callback literal passed
       to an Engine.schedule-style registrar, unless wrapped in try
   R4  allocation advisories inside [@dumbnet.hot] functions (advice)
   R5  wire constants (EtherTypes, the ø tag byte, the notice hop
       limit) must come from the Constants module, not literals
   R6  no Obj.magic; no ignore of a result-returning call
   R7  no Domain.spawn / Mutex.create outside the domain-pool module:
       all parallelism routes through Dumbnet_util.Pool so lifetimes
       and determinism stay auditable (DESIGN.md §9)
   W1  waiver hygiene: a waiver must carry a reason and suppress at
       least one finding *)

open Parsetree

type waiver_kind =
  | Partial (* [@dumbnet.partial "reason"] — waives R1 R2 R3 R6 R10 *)
  | Wire_const (* [@dumbnet.wire_const "reason"] — waives R5 *)
  | Domain_use (* [@dumbnet.domain "reason"] — waives R7 *)
  | Shared (* [@dumbnet.shared "reason"] on a toplevel mutable binding — waives R8 *)

type waiver = {
  w_kind : waiver_kind;
  w_reason : string;
  w_file : string;
  w_line : int;
  w_col : int;
  mutable w_hits : int;
}

let waiver_kind_name = function
  | Partial -> "dumbnet.partial"
  | Wire_const -> "dumbnet.wire_const"
  | Domain_use -> "dumbnet.domain"
  | Shared -> "dumbnet.shared"

let waives kind rule =
  match kind with
  | Partial -> List.mem rule [ "R1"; "R2"; "R3"; "R6"; "R10" ]
  | Wire_const -> rule = "R5"
  | Domain_use -> rule = "R7"
  | Shared -> rule = "R8"

type config = {
  hot_dirs : string list; (* R1 scope: directory prefixes *)
  constants_module : string; (* basename exempt from R5 *)
  poly_type_denylist : string list; (* R2: type paths, suffix-matched *)
  poly_var_denylist : string list; (* R2: variable names *)
  callback_registrars : string list; (* R3: function names taking callbacks *)
  result_fn_suffixes : string list; (* R6: callee suffixes returning result *)
  domain_pool_files : string list; (* R7: the only files allowed raw domains *)
  max_waivers : int; (* W2: repo-wide waiver budget *)
  (* interprocedural pass (R8–R10, see Interproc) *)
  parallel_registrars : string list; (* R8: Pool entry points taking callbacks *)
  guarded_fns : string list; (* R8: single-writer guarded entry points *)
  hot_roots : string list; (* R9: fn ids hotness propagates from *)
}

let default_config =
  {
    hot_dirs = [ "lib/sim"; "lib/packet"; "lib/topology"; "lib/switch" ];
    constants_module = "constants.ml";
    poly_type_denylist = [ "Frame.t"; "Graph.t"; "Pathgraph.t"; "Adjacency.t" ];
    poly_var_denylist = [ "frame"; "frame'"; "pathgraph" ];
    callback_registrars = [ "schedule"; "schedule_at"; "schedule_daemon"; "schedule_line" ];
    result_fn_suffixes = [ "_result" ];
    domain_pool_files = [ "lib/util/pool.ml" ];
    max_waivers = 5;
    parallel_registrars = [ "run_chunks"; "parallel_map" ];
    guarded_fns =
      [
        (* Topo_store entry points that raise while [in_batch] is set:
           calling them from a worker is loud, not racy (DESIGN.md §9). *)
        "Topo_store.apply_event";
        "Topo_store.record_discovered_link";
        "Topo_store.invalidate_dist_cache";
        "Topo_store.distances";
        "Topo_store.serve_path_graphs";
      ];
    hot_roots =
      [
        "Dataplane.handle";
        "Engine.run";
        "Frame.to_bytes";
        "Frame.of_bytes";
        "Frame.write";
      ];
  }

(* (module, function) pairs that raise instead of returning an option.
   Array/Bytes/String indexing sugar is excluded: the parser desugars
   `a.(i)` to the same AST as an explicit `Array.get`, and the CSR /
   egress hot paths index bounds-checked arrays pervasively — that
   discipline is covered by review, not by this lint. *)
let raising_lookups =
  [
    ("Hashtbl", "find");
    ("List", "hd");
    ("List", "tl");
    ("List", "nth");
    ("List", "find");
    ("List", "assoc");
    ("Option", "get");
    ("Array", "unsafe_get");
    ("Bytes", "unsafe_get");
    ("String", "unsafe_get");
  ]

let raising_alternative = function
  | "Hashtbl", "find" -> "Hashtbl.find_opt"
  | "List", "hd" | "List", "tl" -> "a match on the list"
  | "List", "nth" -> "List.nth_opt"
  | "List", "find" -> "List.find_opt"
  | "List", "assoc" -> "List.assoc_opt"
  | "Option", "get" -> "a match on the option"
  | _ -> "a bounds-checked access"

let raisers = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let hot_allocators =
  [
    ("List", "append");
    ("List", "concat");
    ("List", "concat_map");
    ("List", "flatten");
    ("List", "map");
    ("List", "map2");
    ("List", "mapi");
    ("List", "filter");
    ("List", "filter_map");
    ("List", "init");
    ("List", "rev_append");
    ("List", "sort");
    ("List", "sort_uniq");
    ("List", "stable_sort");
    ("Array", "append");
    ("Array", "concat");
    ("Array", "to_list");
    ("Array", "of_list");
    ("String", "concat");
  ]

type ctx = {
  cfg : config;
  file : string;
  hot_file : bool; (* file lives under an R1 hot dir *)
  skip_wire : bool; (* the constants module itself *)
  skip_domain : bool; (* the domain-pool module itself (R7) *)
  mutable diags : Diagnostic.t list;
  mutable waivers : waiver list; (* every waiver seen, for reporting *)
  mutable active : waiver list; (* waivers in scope at this node *)
  mutable cb_args : expression list; (* fun literals passed to registrars *)
  mutable in_hot_fn : bool;
  mutable in_callback : bool;
  mutable in_try : bool;
  mutable loop_depth : int;
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let emit ctx ~(loc : Location.t) ~rule ~severity fmt =
  Printf.ksprintf
    (fun message ->
      let waived =
        severity = Diagnostic.Error
        && match List.find_opt (fun w -> waives w.w_kind rule) ctx.active with
           | Some w ->
             w.w_hits <- w.w_hits + 1;
             true
           | None -> false
      in
      if not waived then begin
        let line, col = line_col loc in
        ctx.diags <-
          Diagnostic.make ~rule ~severity ~file:ctx.file ~line ~col message :: ctx.diags
      end)
    fmt

(* --- helpers over the AST ------------------------------------------- *)

let ident_parts e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

(* Last path component, and the module component right before it. *)
let last2 parts =
  match List.rev parts with
  | f :: m :: _ -> (Some m, f)
  | [ f ] -> (None, f)
  | [] -> (None, "")

let int_literal_text e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (txt, _)) -> Some (String.lowercase_ascii txt)
  | _ -> None

let is_int_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _) -> true
  | _ -> false

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let waiver_of_attr ctx (attr : attribute) =
  let kind =
    match attr.attr_name.txt with
    | "dumbnet.partial" -> Some Partial
    | "dumbnet.wire_const" -> Some Wire_const
    | "dumbnet.domain" -> Some Domain_use
    | "dumbnet.shared" -> Some Shared
    | _ -> None
  in
  match kind with
  | None -> None
  | Some w_kind ->
    let line, col = line_col attr.attr_loc in
    let w_reason = Option.value ~default:"" (string_payload attr) in
    if String.trim w_reason = "" then
      emit ctx ~loc:attr.attr_loc ~rule:"W1" ~severity:Diagnostic.Error
        "waiver [@%s] must carry a non-empty reason string" (waiver_kind_name w_kind);
    Some { w_kind; w_reason; w_file = ctx.file; w_line = line; w_col = col; w_hits = 0 }

let is_hot_attr (attr : attribute) = attr.attr_name.txt = "dumbnet.hot"

(* Push the waivers carried by [attrs] for the duration of [f]. *)
let with_waivers ctx attrs f =
  let ws = List.filter_map (waiver_of_attr ctx) attrs in
  if ws = [] then f ()
  else begin
    ctx.waivers <- ctx.waivers @ ws;
    let saved = ctx.active in
    ctx.active <- ws @ ctx.active;
    f ();
    ctx.active <- saved
  end

(* --- per-rule checks ------------------------------------------------- *)

let check_r1 ctx e =
  if ctx.hot_file then
    match ident_parts e with
    | Some parts -> (
      match last2 parts with
      | Some m, f when List.mem (m, f) raising_lookups ->
        emit ctx ~loc:e.pexp_loc ~rule:"R1" ~severity:Diagnostic.Error
          "raising lookup %s.%s in a hot-path library; use %s or waive with \
           [@dumbnet.partial \"reason\"]"
          m f
          (raising_alternative (m, f))
      | _ -> ())
    | None -> ()

let poly_compare_fn ctx parts =
  match last2 parts with
  | _, ("=" | "<>") -> true
  | (None | Some "Stdlib"), "compare" -> true
  | Some "Hashtbl", "hash" -> true
  | _ ->
    ignore ctx;
    false

let type_in_denylist ctx (ty : core_type) =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) ->
    let name = String.concat "." (Longident.flatten txt) in
    List.exists
      (fun d -> name = d || String.ends_with ~suffix:("." ^ d) name)
      ctx.cfg.poly_type_denylist
  | _ -> false

let suspicious_poly_arg ctx e =
  match e.pexp_desc with
  | Pexp_constraint (_, ty) -> type_in_denylist ctx ty
  | Pexp_ident { txt = Longident.Lident v; _ } -> List.mem v ctx.cfg.poly_var_denylist
  | _ -> false

let check_r2 ctx fn args =
  match ident_parts fn with
  | Some parts when poly_compare_fn ctx parts ->
    List.iter
      (fun (_, arg) ->
        if suspicious_poly_arg ctx arg then
          emit ctx ~loc:arg.pexp_loc ~rule:"R2" ~severity:Diagnostic.Error
            "polymorphic %s on a frame/graph-sized structure; use the module's \
             equal/compare or a keyed hash"
            (String.concat "." parts))
      args
  | _ -> ()

let check_r3_raise ctx parts loc =
  if ctx.in_callback && not ctx.in_try then
    match last2 parts with
    | (None | Some "Stdlib"), f when List.mem f raisers ->
      emit ctx ~loc ~rule:"R3" ~severity:Diagnostic.Error
        "%s can escape an engine callback and abort the simulation; wrap in \
         try/with or return a value"
        f
    | _ -> ()

let check_r4_alloc ctx fn =
  if ctx.in_hot_fn then
    match ident_parts fn with
    | Some parts -> (
      match last2 parts with
      | _, "@" ->
        emit ctx ~loc:fn.pexp_loc ~rule:"R4" ~severity:Diagnostic.Advice
          "list append (@) in a [@dumbnet.hot] function allocates the whole prefix"
      | Some m, f when List.mem (m, f) hot_allocators ->
        emit ctx ~loc:fn.pexp_loc ~rule:"R4" ~severity:Diagnostic.Advice
          "%s.%s allocates per element in a [@dumbnet.hot] function" m f
      | _ -> ())
    | None -> ()

let ethertype_literals = [ "0x9800"; "0x9801" ]

(* The probe-program opcodes are wire bytes exactly like the
   EtherTypes: a second definition that drifts from the interpreter's
   is a silent protocol fork. *)
let probe_opcode_literals = [ "0xa1"; "0xa2"; "0xa3" ]

let check_r5_const ctx e =
  if not ctx.skip_wire then
    match int_literal_text e with
    | Some txt when List.mem txt ethertype_literals ->
      emit ctx ~loc:e.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
        "EtherType literal %s re-hardcoded; use Constants.ethertype_*" txt
    | Some txt when List.mem txt probe_opcode_literals ->
      emit ctx ~loc:e.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
        "probe-program opcode literal %s re-hardcoded; use Constants.probe_op_*" txt
    | _ -> ()

let check_r5_comparison ctx fn args =
  if not ctx.skip_wire then
    match ident_parts fn with
    | Some parts -> (
      match last2 parts with
      | _, ("=" | "<>") ->
        List.iter
          (fun (_, arg) ->
            if int_literal_text arg = Some "0xff" then
              emit ctx ~loc:arg.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
                "comparison against literal 0xFF; the ø end-of-path byte lives in \
                 Constants.tag_end_of_path")
          args
      | _ -> ())
    | None -> ()

let check_r5_labelled ctx args =
  if not ctx.skip_wire then
    List.iter
      (fun (label, arg) ->
        match label with
        | Asttypes.Labelled "hops_left" when is_int_literal arg ->
          emit ctx ~loc:arg.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
            "literal notification hop budget; use Constants.notice_hop_limit"
        | _ -> ())
      args

let check_r5_record ctx fields =
  if not ctx.skip_wire then
    List.iter
      (fun (({ txt; _ } : Longident.t Location.loc), value) ->
        match List.rev (Longident.flatten txt) with
        | "hops_left" :: _ when is_int_literal value ->
          emit ctx ~loc:value.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
            "literal notification hop budget; use Constants.notice_hop_limit"
        | _ -> ())
      fields

let check_r6_magic ctx e =
  match ident_parts e with
  | Some parts -> (
    match last2 parts with
    | Some "Obj", "magic" ->
      emit ctx ~loc:e.pexp_loc ~rule:"R6" ~severity:Diagnostic.Error
        "Obj.magic defeats the type system; there is no sound use of it here"
    | _ -> ())
  | None -> ()

(* Raw multicore primitives: every spawn and lock lives in the one
   audited pool module, so pool lifetimes (the runtime caps live
   domains) and the batch determinism contract stay reviewable in one
   place. Sites that truly need an escape hatch say why. *)
let domain_primitives =
  [ ("Domain", "spawn"); ("Mutex", "create"); ("Condition", "create"); ("Atomic", "make") ]

let check_r7_domain ctx e =
  if not ctx.skip_domain then
    match ident_parts e with
    | Some parts -> (
      match last2 parts with
      | Some m, f when List.mem (m, f) domain_primitives ->
        emit ctx ~loc:e.pexp_loc ~rule:"R7" ~severity:Diagnostic.Error
          "%s.%s outside the domain pool; route parallelism through \
           Dumbnet_util.Pool or waive with [@dumbnet.domain \"reason\"]"
          m f
      | _ -> ())
    | None -> ()

let check_r6_ignore ctx fn args =
  match ident_parts fn with
  | Some parts -> (
    match last2 parts with
    | (None | Some "Stdlib"), "ignore" -> (
      match args with
      | [ (_, { pexp_desc = Pexp_apply (inner, _); _ }) ] -> (
        match ident_parts inner with
        | Some inner_parts ->
          let _, f = last2 inner_parts in
          if
            List.exists (fun s -> String.ends_with ~suffix:s f) ctx.cfg.result_fn_suffixes
          then
            emit ctx ~loc:fn.pexp_loc ~rule:"R6" ~severity:Diagnostic.Error
              "ignore of result-returning call %s discards the error branch" f
        | None -> ())
      | _ -> ())
    | _ -> ())
  | None -> ()

(* --- the walk -------------------------------------------------------- *)

let make_iterator ctx =
  let open Ast_iterator in
  let expr it e =
    with_waivers ctx e.pexp_attributes (fun () ->
        let saved_cb = ctx.in_callback in
        let saved_try = ctx.in_try in
        let saved_loop = ctx.loop_depth in
        if List.memq e ctx.cb_args then ctx.in_callback <- true;
        (match e.pexp_desc with
        | Pexp_try _ -> ctx.in_try <- true
        | Pexp_while _ | Pexp_for _ -> ctx.loop_depth <- ctx.loop_depth + 1
        | _ -> ());
        (match e.pexp_desc with
        | Pexp_ident _ ->
          check_r1 ctx e;
          check_r6_magic ctx e;
          check_r7_domain ctx e
        | Pexp_apply (fn, args) ->
          check_r2 ctx fn args;
          check_r4_alloc ctx fn;
          check_r5_comparison ctx fn args;
          check_r5_labelled ctx args;
          check_r6_ignore ctx fn args;
          (match ident_parts fn with
          | Some parts ->
            check_r3_raise ctx parts fn.pexp_loc;
            let _, f = last2 parts in
            if List.mem f ctx.cfg.callback_registrars then
              ctx.cb_args <-
                List.filter_map
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_fun _ | Pexp_function _ -> Some a
                    | _ -> None)
                  args
                @ ctx.cb_args
          | None -> ())
        | Pexp_record (fields, _) -> check_r5_record ctx fields
        | Pexp_constant _ -> check_r5_const ctx e
        | Pexp_fun _ | Pexp_function _ ->
          if ctx.in_hot_fn && ctx.loop_depth > 0 then
            emit ctx ~loc:e.pexp_loc ~rule:"R4" ~severity:Diagnostic.Advice
              "closure allocated inside a loop in a [@dumbnet.hot] function"
        | _ -> ());
        default_iterator.expr it e;
        ctx.in_callback <- saved_cb;
        ctx.in_try <- saved_try;
        ctx.loop_depth <- saved_loop)
  in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_constant (Pconst_integer (txt, _))
      when (not ctx.skip_wire) && String.lowercase_ascii txt = "0xff" ->
      emit ctx ~loc:p.ppat_loc ~rule:"R5" ~severity:Diagnostic.Error
        "pattern-matching on literal 0xFF; compare against Constants.tag_end_of_path \
         instead"
    | Ppat_constant (Pconst_integer (txt, _))
      when (not ctx.skip_wire) && List.mem (String.lowercase_ascii txt) probe_opcode_literals
      ->
      emit ctx ~loc:p.ppat_loc ~rule:"R5" ~severity:Diagnostic.Error
        "pattern-matching on probe-program opcode literal %s; dispatch on \
         Constants.probe_op_* instead"
        (String.lowercase_ascii txt)
    | _ -> ());
    default_iterator.pat it p
  in
  let value_binding it vb =
    with_waivers ctx vb.pvb_attributes (fun () ->
        let saved_hot = ctx.in_hot_fn in
        if List.exists is_hot_attr vb.pvb_attributes then ctx.in_hot_fn <- true;
        (if not ctx.skip_wire then
           match (vb.pvb_pat.ppat_desc, int_literal_text vb.pvb_expr) with
           | Ppat_var { txt; _ }, Some lit ->
             let is_hop_name =
               (* substring search: "default_hop_limit", "hop_limit", ... *)
               let n = String.length txt and m = String.length "hop_limit" in
               let rec scan i =
                 i + m <= n && (String.sub txt i m = "hop_limit" || scan (i + 1))
               in
               scan 0
             in
             if lit = "0xff" then
               emit ctx ~loc:vb.pvb_expr.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
                 "binding the ø byte as a fresh literal; use Constants.tag_end_of_path"
             else if is_hop_name then
               emit ctx ~loc:vb.pvb_expr.pexp_loc ~rule:"R5" ~severity:Diagnostic.Error
                 "literal notification hop budget; use Constants.notice_hop_limit"
           | _ -> ());
        default_iterator.value_binding it vb;
        ctx.in_hot_fn <- saved_hot)
  in
  { default_iterator with expr; pat; value_binding }

let under_dir dir file = String.starts_with ~prefix:(dir ^ "/") file

let lint_structure ?(config = default_config) ~file structure =
  let ctx =
    {
      cfg = config;
      file;
      hot_file = List.exists (fun d -> under_dir d file) config.hot_dirs;
      skip_wire = Filename.basename file = config.constants_module;
      skip_domain = List.mem file config.domain_pool_files;
      diags = [];
      waivers = [];
      active = [];
      cb_args = [];
      in_hot_fn = false;
      in_callback = false;
      in_try = false;
      loop_depth = 0;
    }
  in
  let it = make_iterator ctx in
  it.Ast_iterator.structure it structure;
  (List.rev ctx.diags, ctx.waivers)

(* W1: a waiver that suppressed nothing is dead weight — and deleting a
   live one must flip the gate, so unused ones cannot linger. Run this
   only after *every* pass that can consume a waiver: the syntactic walk
   above, and the interprocedural pass (R8/R10), which credits hits to
   [Shared] waivers and to [Partial] waivers covering callbacks. *)
let unused_waiver_diags waivers =
  List.filter_map
    (fun w ->
      if w.w_hits = 0 then
        Some
          (Diagnostic.make ~rule:"W1" ~severity:Diagnostic.Error ~file:w.w_file
             ~line:w.w_line ~col:w.w_col
             (Printf.sprintf "unused waiver [@%s]: it suppresses no finding; delete it"
                (waiver_kind_name w.w_kind)))
      else None)
    waivers
