(* Pass 1 of the interprocedural analyzer: one walk per compilation
   unit producing per-function summaries — calls made, toplevel mutable
   state read/written, naked raise sites, callback roles — plus the
   file's toplevel mutable slots and mutable record-field declarations.
   Pass 2 (Callgraph + Interproc) links the summaries across modules
   and evaluates R8/R9/R10 over the graph.

   Like the syntactic rules, everything here is best-effort name
   resolution on the raw Parsetree: no type information. A callee is
   resolved by its last two path components after chasing toplevel
   module aliases ([module P = Dumbnet_util.Pool] makes [P.run_chunks]
   resolve to "Pool.run_chunks"); a bare name resolves to this unit's
   toplevel binding of that name when one exists and the name is not
   shadowed by any local binder in the enclosing function. Unresolvable
   names are dropped — the analysis under-approximates the graph rather
   than invent edges. *)

open Parsetree

(* What a toplevel mutable binding was initialized with. [Record_cand]
   bindings only become slots in pass 2, when the record's field names
   can be checked against every unit's mutable-field declarations. *)
type slot_kind =
  | Ref (* let x = ref ... *)
  | Container (* Hashtbl/Array/Bytes/Queue/Buffer/Stack create *)
  | Atomic_slot (* let x = Atomic.make ... — guarded by construction *)
  | Record_cand of string list (* record literal; fields, resolved in pass 2 *)

type slot = {
  s_id : string; (* "Module.name" *)
  s_kind : slot_kind;
  s_file : string;
  s_line : int;
  s_waiver : (int * int) option; (* [@dumbnet.shared] attr position *)
}

type access = {
  a_slot : string; (* resolved id, checked against slots in pass 2 *)
  a_write : bool;
  a_file : string;
  a_line : int;
  a_col : int;
}

type call = {
  c_callee : string; (* resolved "Module.fn" *)
  c_line : int;
  c_in_try : bool; (* call site lexically under try/with *)
}

type fn_kind =
  | Toplevel
  | Parallel_cb of string (* fun literal passed to Pool.run_chunks & co *)
  | Engine_cb of string (* fun literal passed to Engine.schedule & co *)

type fn = {
  f_id : string;
  f_kind : fn_kind;
  f_file : string;
  f_line : int;
  f_col : int;
  f_hot : bool; (* carries [@dumbnet.hot] *)
  f_calls : call list;
  f_accesses : access list;
  f_raises : (string * int) list; (* naked raise/failwith sites: name, line *)
  f_cb_refs : (string * string * int) list; (* registrar, callee id, line *)
  f_partial_at : (int * int) option; (* active [@dumbnet.partial] at a callback *)
}

type t = {
  sum_file : string;
  sum_module : string;
  sum_fns : fn list;
  sum_slots : slot list;
  sum_mutable_fields : string list; (* field names declared mutable here *)
}

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* --- accumulation state ---------------------------------------------- *)

type fn_acc = {
  acc_id : string;
  acc_kind : fn_kind;
  acc_line : int;
  acc_col : int;
  mutable acc_hot : bool;
  mutable acc_calls : call list;
  mutable acc_accesses : access list;
  mutable acc_raises : (string * int) list;
  mutable acc_cb_refs : (string * string * int) list;
  acc_partial : (int * int) option;
  acc_bound : (string, unit) Hashtbl.t; (* local binders seen in this frame *)
}

type ctx = {
  cfg : Rules.config;
  file : string;
  modname : string;
  mutable prefix : string; (* current module path, e.g. "Network" or "Network.M" *)
  mutable aliases : (string * string) list; (* alias -> resolved module path *)
  mutable toplevel_names : (string, unit) Hashtbl.t;
  mutable slots : slot list;
  mutable mutable_fields : string list;
  mutable fns : fn list;
  mutable stack : fn_acc list; (* innermost first *)
  mutable try_depth : int;
  mutable partials : (int * int) list; (* active partial waivers, innermost first *)
  mutable handled : expression list; (* idents consumed as op targets *)
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let ident_parts e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let last2 parts =
  match List.rev parts with
  | f :: m :: _ -> (Some m, f)
  | [ f ] -> (None, f)
  | [] -> (None, "")

let resolve_module ctx m =
  match List.assoc_opt m ctx.aliases with Some r -> r | None -> m

(* Is [name] bound locally anywhere in the enclosing frames? Binders are
   collected as patterns are visited, so this deliberately
   over-approximates scope: a name bound in an earlier sibling branch
   also suppresses resolution. The cost is a missed edge, never an
   invented one. *)
let locally_bound ctx name =
  List.exists (fun f -> Hashtbl.mem f.acc_bound name) ctx.stack

let resolve_path ctx parts =
  match parts with
  | [] -> None
  | [ x ] ->
    if locally_bound ctx x then None
    else if Hashtbl.mem ctx.toplevel_names x then Some (ctx.prefix ^ "." ^ x)
    else None
  | parts -> (
    match last2 parts with
    | Some m, f -> Some (resolve_module ctx m ^ "." ^ f)
    | None, _ -> None)

let cur ctx = match ctx.stack with f :: _ -> Some f | [] -> None

let add_call ctx callee line =
  match cur ctx with
  | Some f ->
    f.acc_calls <- { c_callee = callee; c_line = line; c_in_try = ctx.try_depth > 0 } :: f.acc_calls
  | None -> ()

let add_access ctx slot ~write (loc : Location.t) =
  match cur ctx with
  | Some f ->
    let line, col = line_col loc in
    f.acc_accesses <-
      { a_slot = slot; a_write = write; a_file = ctx.file; a_line = line; a_col = col }
      :: f.acc_accesses
  | None -> ()

let add_raise ctx name line =
  match cur ctx with
  | Some f -> if ctx.try_depth = 0 then f.acc_raises <- (name, line) :: f.acc_raises
  | None -> ()

(* --- recognizing mutable-state operations ----------------------------- *)

(* (module, fn, index of the state argument among unlabelled args, is_write) *)
let state_ops =
  [
    ("Hashtbl", "add", 0, true);
    ("Hashtbl", "replace", 0, true);
    ("Hashtbl", "remove", 0, true);
    ("Hashtbl", "reset", 0, true);
    ("Hashtbl", "clear", 0, true);
    ("Hashtbl", "filter_map_inplace", 1, true);
    ("Hashtbl", "find", 0, false);
    ("Hashtbl", "find_opt", 0, false);
    ("Hashtbl", "find_all", 0, false);
    ("Hashtbl", "mem", 0, false);
    ("Hashtbl", "length", 0, false);
    ("Hashtbl", "iter", 1, false);
    ("Hashtbl", "fold", 1, false);
    ("Hashtbl", "copy", 0, false);
    ("Array", "set", 0, true);
    ("Array", "unsafe_set", 0, true);
    ("Array", "fill", 0, true);
    ("Array", "blit", 2, true);
    ("Array", "get", 0, false);
    ("Array", "unsafe_get", 0, false);
    ("Array", "length", 0, false);
    ("Array", "iter", 1, false);
    ("Array", "iteri", 1, false);
    ("Array", "fold_left", 2, false);
    ("Bytes", "set", 0, true);
    ("Bytes", "fill", 0, true);
    ("Bytes", "blit", 2, true);
    ("Bytes", "get", 0, false);
    ("Bytes", "length", 0, false);
    ("Queue", "push", 1, true);
    ("Queue", "add", 1, true);
    ("Queue", "pop", 0, true);
    ("Queue", "take", 0, true);
    ("Queue", "clear", 0, true);
    ("Queue", "peek", 0, false);
    ("Queue", "length", 0, false);
    ("Buffer", "add_string", 0, true);
    ("Buffer", "add_char", 0, true);
    ("Buffer", "clear", 0, true);
    ("Buffer", "reset", 0, true);
    ("Buffer", "contents", 0, false);
    ("Buffer", "length", 0, false);
    ("Stack", "push", 1, true);
    ("Stack", "pop", 0, true);
    ("Stack", "clear", 0, true);
    ("Stack", "top", 0, false);
  ]

let raiser_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let unlabelled args = List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args

let record_state_op ctx m f args =
  match List.find_opt (fun (m', f', _, _) -> m = m' && f = f') state_ops with
  | None -> ()
  | Some (_, _, idx, write) -> (
    match List.nth_opt (unlabelled args) idx with
    | Some target -> (
      match ident_parts target with
      | Some parts -> (
        match resolve_path ctx parts with
        | Some slot ->
          ctx.handled <- target :: ctx.handled;
          add_access ctx slot ~write target.pexp_loc
        | None -> ())
      | None -> ())
    | None -> ())

(* !x, x := v, incr x, decr x *)
let record_ref_op ctx fname args loc =
  let target_access ~write =
    match unlabelled args with
    | target :: _ -> (
      match ident_parts target with
      | Some parts -> (
        match resolve_path ctx parts with
        | Some slot ->
          ctx.handled <- target :: ctx.handled;
          add_access ctx slot ~write loc
        | None -> ())
      | None -> ())
    | [] -> ()
  in
  match fname with
  | "!" -> target_access ~write:false
  | ":=" | "incr" | "decr" -> target_access ~write:true
  | _ -> ()

(* --- slot classification ---------------------------------------------- *)

let classify_init e =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
    match ident_parts fn with
    | Some parts -> (
      match last2 parts with
      | (None | Some "Stdlib"), "ref" -> Some Ref
      | Some "Atomic", "make" -> Some Atomic_slot
      | Some ("Hashtbl" | "Queue" | "Buffer" | "Stack"), "create" -> Some Container
      | Some ("Array" | "Bytes"), ("make" | "create" | "init" | "create_float" | "of_list")
        ->
        Some Container
      | _ -> None)
    | None -> None)
  | Pexp_record (fields, None) ->
    let names =
      List.filter_map
        (fun (({ txt; _ } : Longident.t Location.loc), _) ->
          match List.rev (Longident.flatten txt) with n :: _ -> Some n | [] -> None)
        fields
    in
    Some (Record_cand names)
  | _ -> None

let attr_named name attrs =
  List.find_opt (fun (a : attribute) -> a.attr_name.txt = name) attrs

(* --- the walk --------------------------------------------------------- *)

let finish_frame ctx (f : fn_acc) =
  ctx.fns <-
    {
      f_id = f.acc_id;
      f_kind = f.acc_kind;
      f_file = ctx.file;
      f_line = f.acc_line;
      f_col = f.acc_col;
      f_hot = f.acc_hot;
      f_calls = List.rev f.acc_calls;
      f_accesses = List.rev f.acc_accesses;
      f_raises = List.rev f.acc_raises;
      f_cb_refs = List.rev f.acc_cb_refs;
      f_partial_at = f.acc_partial;
    }
    :: ctx.fns

let push_frame ctx ~id ~kind ~loc ~hot ~partial =
  let line, col = line_col loc in
  let f =
    {
      acc_id = id;
      acc_kind = kind;
      acc_line = line;
      acc_col = col;
      acc_hot = hot;
      acc_calls = [];
      acc_accesses = [];
      acc_raises = [];
      acc_cb_refs = [];
      acc_partial = partial;
      acc_bound = Hashtbl.create 8;
    }
  in
  ctx.stack <- f :: ctx.stack;
  f

let pop_frame ctx =
  match ctx.stack with
  | f :: rest ->
    ctx.stack <- rest;
    finish_frame ctx f
  | [] -> ()

let is_fun_literal e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let make_iterator ctx =
  let open Ast_iterator in
  let expr it e =
    (* Track active [@dumbnet.partial] waivers so callbacks can record
       the one that covers them (R10 suppression in pass 2). *)
    let partial_pushed =
      match attr_named "dumbnet.partial" e.pexp_attributes with
      | Some a ->
        ctx.partials <- line_col a.attr_loc :: ctx.partials;
        true
      | None -> false
    in
    let saved_try = ctx.try_depth in
    (match e.pexp_desc with
    | Pexp_try _ -> ctx.try_depth <- ctx.try_depth + 1
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_apply (fn, args) -> (
      match ident_parts fn with
      | Some parts ->
        let m, f = last2 parts in
        let line = fst (line_col fn.pexp_loc) in
        (* raise sites *)
        (match (m, f) with
        | (None | Some "Stdlib"), f when List.mem f raiser_names -> add_raise ctx f line
        | _ -> ());
        (* mutable-state operations *)
        (match m with
        | Some m -> record_state_op ctx m f args
        | None -> record_ref_op ctx f args fn.pexp_loc);
        (match (m, f) with
        | Some "Atomic", _ -> (
          (* any access through Atomic is guarded; consume the target so
             the bare-ident fallback stays silent on it *)
          match unlabelled args with
          | t :: _ -> ctx.handled <- t :: ctx.handled
          | [] -> ())
        | _ -> ());
        (* the call edge itself *)
        (match resolve_path ctx parts with
        | Some callee -> add_call ctx callee line
        | None -> ());
        (* callbacks handed to registrars *)
        let registrar_kind =
          if List.mem f ctx.cfg.Rules.parallel_registrars then Some `Parallel
          else if List.mem f ctx.cfg.Rules.callback_registrars then Some `Engine
          else None
        in
        (match registrar_kind with
        | None -> ()
        | Some rk ->
          List.iter
            (fun (_, (a : expression)) ->
              if is_fun_literal a then begin
                let enclosing =
                  match cur ctx with Some fr -> fr.acc_id | None -> ctx.prefix
                in
                let aline = fst (line_col a.pexp_loc) in
                let id = Printf.sprintf "%s.<cb:%d>" enclosing aline in
                let kind =
                  match rk with
                  | `Parallel -> Parallel_cb f
                  | `Engine -> Engine_cb f
                in
                let partial =
                  match ctx.partials with p :: _ -> Some p | [] -> None
                in
                ignore (push_frame ctx ~id ~kind ~loc:a.pexp_loc ~hot:false ~partial);
                (* the callback body runs later: the registrar's lexical
                   try does not protect it *)
                let outer_try = ctx.try_depth in
                ctx.try_depth <- 0;
                default_iterator.expr it a;
                ctx.try_depth <- outer_try;
                pop_frame ctx;
                ctx.handled <- a :: ctx.handled
              end
              else
                match ident_parts a with
                | Some parts -> (
                  match resolve_path ctx parts with
                  | Some callee -> (
                    match cur ctx with
                    | Some fr ->
                      fr.acc_cb_refs <-
                        (f, callee, fst (line_col a.pexp_loc)) :: fr.acc_cb_refs
                    | None -> ())
                  | None -> ())
                | None -> ())
            args)
      | None -> ())
    | Pexp_setfield (base, _, _) -> (
      match ident_parts base with
      | Some parts -> (
        match resolve_path ctx parts with
        | Some slot ->
          ctx.handled <- base :: ctx.handled;
          add_access ctx slot ~write:true base.pexp_loc
        | None -> ())
      | None -> ())
    | Pexp_field (base, _) -> (
      match ident_parts base with
      | Some parts -> (
        match resolve_path ctx parts with
        | Some slot ->
          ctx.handled <- base :: ctx.handled;
          add_access ctx slot ~write:false base.pexp_loc
        | None -> ())
      | None -> ())
    | Pexp_ident _ ->
      (* A slot mentioned outside a recognized operation aliases the
         state (passed to a function, stored, ...): count it as a read
         so pass 2 still sees the escape. *)
      if not (List.memq e ctx.handled) then (
        match ident_parts e with
        | Some parts -> (
          match resolve_path ctx parts with
          | Some slot -> add_access ctx slot ~write:false e.pexp_loc
          | None -> ())
        | None -> ())
    | _ -> ());
    (* Visit children. Callback literals were already walked in their
       own frame and op-target idents were consumed above — re-visiting
       either would double-count, so skip everything in [handled]. *)
    (match e.pexp_desc with
    | Pexp_apply (fn, args) ->
      (match fn.pexp_desc with
      | Pexp_ident _ -> () (* nothing below a plain callee name *)
      | _ -> it.expr it fn);
      List.iter
        (fun (_, (a : expression)) -> if not (List.memq a ctx.handled) then it.expr it a)
        args
    | _ -> default_iterator.expr it e);
    ctx.try_depth <- saved_try;
    if partial_pushed then
      ctx.partials <- (match ctx.partials with _ :: rest -> rest | [] -> [])
  in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> (
      match cur ctx with
      | Some f -> Hashtbl.replace f.acc_bound txt ()
      | None -> ())
    | _ -> ());
    default_iterator.pat it p
  in
  { default_iterator with expr; pat }

(* Toplevel structure handling: explicit recursion so frames map 1:1 to
   toplevel bindings and local modules extend the id prefix. *)
let rec walk_structure ctx it (items : structure) =
  List.iter (walk_item ctx it) items

and walk_item ctx it (item : structure_item) =
  match item.pstr_desc with
  | Pstr_value (_, bindings) ->
    List.iter
      (fun vb ->
        ctx.handled <- [];
        let name, loc =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; loc } -> (txt, loc)
          | _ ->
            let line, _ = line_col vb.pvb_loc in
            (Printf.sprintf "<toplevel:%d>" line, vb.pvb_loc)
        in
        let id = ctx.prefix ^ "." ^ name in
        let hot =
          List.exists (fun (a : attribute) -> a.attr_name.txt = "dumbnet.hot") vb.pvb_attributes
        in
        (* slot? *)
        (match (vb.pvb_pat.ppat_desc, classify_init vb.pvb_expr) with
        | Ppat_var _, Some kind ->
          let line, _ = line_col loc in
          let waiver =
            match attr_named "dumbnet.shared" vb.pvb_attributes with
            | Some a -> Some (line_col a.attr_loc)
            | None -> None
          in
          ctx.slots <-
            { s_id = id; s_kind = kind; s_file = ctx.file; s_line = line; s_waiver = waiver }
            :: ctx.slots
        | _ -> ());
        let partial_pushed =
          match attr_named "dumbnet.partial" vb.pvb_attributes with
          | Some a ->
            ctx.partials <- line_col a.attr_loc :: ctx.partials;
            true
          | None -> false
        in
        ignore (push_frame ctx ~id ~kind:Toplevel ~loc ~hot ~partial:None);
        it.Ast_iterator.expr it vb.pvb_expr;
        pop_frame ctx;
        if partial_pushed then
          ctx.partials <- (match ctx.partials with _ :: rest -> rest | [] -> []))
      bindings
  | Pstr_module mb ->
    let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
    walk_module ctx it name mb.pmb_expr
  | Pstr_recmodule mbs ->
    List.iter
      (fun mb ->
        let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
        walk_module ctx it name mb.pmb_expr)
      mbs
  | Pstr_type (_, decls) ->
    List.iter
      (fun (d : type_declaration) ->
        match d.ptype_kind with
        | Ptype_record labels ->
          List.iter
            (fun (l : label_declaration) ->
              if l.pld_mutable = Asttypes.Mutable then
                ctx.mutable_fields <- l.pld_name.txt :: ctx.mutable_fields)
            labels
        | _ -> ())
      decls
  | _ -> ()

and walk_module ctx it name (me : module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> (
    (* module X = Some.Path — X resolves to the path's last component,
       itself chased through earlier aliases. *)
    match List.rev (Longident.flatten txt) with
    | last :: _ -> ctx.aliases <- (name, resolve_module ctx last) :: ctx.aliases
    | [] -> ())
  | Pmod_structure items ->
    let saved_prefix = ctx.prefix in
    ctx.prefix <- ctx.prefix ^ "." ^ name;
    ctx.aliases <- (name, ctx.prefix) :: ctx.aliases;
    walk_structure ctx it items;
    ctx.prefix <- saved_prefix
  | Pmod_constraint (me, _) -> walk_module ctx it name me
  | _ -> ()

let collect_toplevel_names (items : structure) =
  let tbl = Hashtbl.create 64 in
  let rec item_names prefix (item : structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
      List.iter
        (fun vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> Hashtbl.replace tbl (prefix ^ txt) ()
          | _ -> ())
        bindings
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter (item_names prefix) sub
    | _ -> ()
  in
  List.iter (item_names "") items;
  tbl

let of_structure ?(config = Rules.default_config) ~file (structure : structure) =
  let modname = module_of_file file in
  let ctx =
    {
      cfg = config;
      file;
      modname;
      prefix = modname;
      aliases = [];
      toplevel_names = collect_toplevel_names structure;
      slots = [];
      mutable_fields = [];
      fns = [];
      stack = [];
      try_depth = 0;
      partials = [];
      handled = [];
    }
  in
  let it = make_iterator ctx in
  walk_structure ctx it structure;
  {
    sum_file = file;
    sum_module = modname;
    sum_fns = List.rev ctx.fns;
    sum_slots = List.rev ctx.slots;
    sum_mutable_fields = List.rev ctx.mutable_fields;
  }
