(* Pass 2, step 2: the interprocedural rules, evaluated over the linked
   call graph (DESIGN.md §8).

   R8  cross-domain race detector: no toplevel mutable state (refs,
       toplevel Hashtbls/Arrays/Bytes/queues, records with mutable
       fields) may be reachable — transitively, through any chain of
       calls — from code that runs on a worker domain: a callback passed
       to Pool.run_chunks/parallel_map. Exempt: Atomic.make slots (every
       access is a fence), the in_batch-guarded Topo_store entry points
       (calling them from a worker raises instead of racing), and slots
       carrying [@dumbnet.shared "reason"].
   R9  hot-path inference: hotness propagates from the fabric's real
       inner loops (Dataplane.handle, the Engine pop loop, the Frame
       codecs) and from every [@dumbnet.hot] annotation
       across call edges. A reachable function missing the annotation
       is advice — the count is ratcheted in lint_ratchet.json and may
       only go down.
   R10 interprocedural raise escape: extends R3 — an engine callback
       whose *callees* can raise (transitively, ignoring calls wrapped
       in try) aborts the simulation just as surely as one containing a
       literal raise. *)

type result = {
  ip_diags : Diagnostic.t list;
  ip_inferred_hot : (string, unit) Hashtbl.t; (* R9 closure incl. annotated fns *)
  ip_inferred_count : int; (* unannotated functions in the closure *)
}

let credit_waiver waivers ~file ~pos ~rule =
  match pos with
  | None -> false
  | Some (line, col) -> (
    match
      List.find_opt
        (fun (w : Rules.waiver) ->
          w.Rules.w_file = file && w.Rules.w_line = line && w.Rules.w_col = col
          && Rules.waives w.Rules.w_kind rule)
        waivers
    with
    | Some w ->
      w.Rules.w_hits <- w.Rules.w_hits + 1;
      true
    | None -> false)

(* --- R8 --------------------------------------------------------------- *)

let r8 ~(config : Rules.config) ~waivers (g : Callgraph.t) =
  let roots =
    Callgraph.fold_fns g
      (fun acc (f : Summary.fn) ->
        let acc =
          match f.Summary.f_kind with
          | Summary.Parallel_cb _ -> f.Summary.f_id :: acc
          | _ -> acc
        in
        List.fold_left
          (fun acc (reg, callee, _) ->
            if List.mem reg config.Rules.parallel_registrars then callee :: acc else acc)
          acc f.Summary.f_cb_refs)
      []
  in
  let roots = List.sort_uniq String.compare roots in
  let guarded id = List.mem id config.Rules.guarded_fns in
  let seen, parent =
    Callgraph.reachable g ~roots ~enter:(fun id -> not (guarded id)) ()
  in
  let reported = Hashtbl.create 16 in
  let diags = ref [] in
  Hashtbl.iter
    (fun id () ->
      if not (guarded id) then
        match Callgraph.find_fn g id with
        | None -> ()
        | Some fn ->
          List.iter
            (fun (a : Summary.access) ->
              match Callgraph.find_slot g a.Summary.a_slot with
              | None -> ()
              | Some slot -> (
                match slot.Summary.s_kind with
                | Summary.Atomic_slot -> ()
                | Summary.Ref | Summary.Container | Summary.Record_cand _ ->
                  let key =
                    (a.Summary.a_file, a.Summary.a_line, a.Summary.a_col, a.Summary.a_slot)
                  in
                  if not (Hashtbl.mem reported key) then begin
                    Hashtbl.replace reported key ();
                    if
                      not
                        (credit_waiver waivers ~file:slot.Summary.s_file
                           ~pos:slot.Summary.s_waiver ~rule:"R8")
                    then
                      diags :=
                        Diagnostic.make ~rule:"R8" ~severity:Diagnostic.Error
                          ~file:a.Summary.a_file ~line:a.Summary.a_line
                          ~col:a.Summary.a_col
                          (Printf.sprintf
                             "%s of toplevel mutable state %s on a worker-domain path \
                              (%s); use Atomic, a single-writer guarded entry point, or \
                              waive the state with [@dumbnet.shared \"reason\"]"
                             (if a.Summary.a_write then "write" else "unguarded access")
                             a.Summary.a_slot
                             (Callgraph.path_to parent id))
                        :: !diags
                  end))
            fn.Summary.f_accesses)
    seen;
  !diags

(* --- R9 --------------------------------------------------------------- *)

let r9 ~(config : Rules.config) ?ratchet (g : Callgraph.t) =
  let annotated =
    Callgraph.fold_fns g
      (fun acc (f : Summary.fn) -> if f.Summary.f_hot then f.Summary.f_id :: acc else acc)
      []
  in
  let roots = List.sort_uniq String.compare (config.Rules.hot_roots @ annotated) in
  let seen, parent = Callgraph.reachable g ~roots () in
  let inferred =
    Callgraph.fold_fns g
      (fun acc (f : Summary.fn) ->
        if
          Hashtbl.mem seen f.Summary.f_id
          && (not f.Summary.f_hot)
          && (match f.Summary.f_kind with Summary.Toplevel -> true | _ -> false)
        then f :: acc
        else acc)
      []
    |> List.rev
  in
  let diags =
    List.map
      (fun (f : Summary.fn) ->
        Diagnostic.make ~rule:"R9" ~severity:Diagnostic.Advice ~file:f.Summary.f_file
          ~line:f.Summary.f_line ~col:f.Summary.f_col
          (Printf.sprintf
             "%s is on an inferred hot path (%s) but is not annotated [@dumbnet.hot]; \
              annotate it so the R4 allocation advisories apply"
             f.Summary.f_id
             (Callgraph.path_to parent f.Summary.f_id)))
      inferred
  in
  let count = List.length inferred in
  let ratchet_diags =
    match ratchet with
    | None -> []
    | Some budget when count > budget ->
      [
        Diagnostic.make ~rule:"R9" ~severity:Diagnostic.Error ~file:"lint_ratchet.json"
          ~line:1 ~col:0
          (Printf.sprintf
             "inferred-hot ratchet exceeded: %d unannotated inferred-hot functions, \
              committed maximum is %d — annotate the new ones [@dumbnet.hot] instead of \
              raising the ratchet"
             count budget);
      ]
    | Some budget when count < budget ->
      [
        Diagnostic.make ~rule:"R9" ~severity:Diagnostic.Advice ~file:"lint_ratchet.json"
          ~line:1 ~col:0
          (Printf.sprintf
             "inferred-hot ratchet is slack: %d unannotated inferred-hot functions, \
              committed maximum is %d — lower r9_inferred_hot to %d"
             count budget count);
      ]
    | Some _ -> []
  in
  (diags @ ratchet_diags, seen, count)

(* --- R10 -------------------------------------------------------------- *)

(* Fixpoint: a function's raise escapes if it contains a naked raise, or
   makes a call outside try/with to a function whose raise escapes.

   [invalid_arg] is deliberately excluded from *propagation*: it marks a
   precondition violation — a programming error whose loud abort is the
   intent — and nearly every constructor in the tree guards its inputs
   with one, so propagating it would flag essentially every callback in
   the repository for failures that cannot happen on validated inputs.
   R10 hunts unexpected failures (raise/failwith) leaking into the
   event loop; a literal invalid_arg written inside a callback is still
   R3's finding. *)
let propagating_raisers = [ "raise"; "raise_notrace"; "failwith" ]

let seeds (f : Summary.fn) =
  List.filter (fun (name, _) -> List.mem name propagating_raisers) f.Summary.f_raises

let escape_set (g : Callgraph.t) =
  let escapes = Hashtbl.create 256 in
  Callgraph.fold_fns g
    (fun () (f : Summary.fn) ->
      if seeds f <> [] then Hashtbl.replace escapes f.Summary.f_id ())
    ();
  let changed = ref true in
  while !changed do
    changed := false;
    Callgraph.fold_fns g
      (fun () (f : Summary.fn) ->
        if not (Hashtbl.mem escapes f.Summary.f_id) then
          if
            List.exists
              (fun (c : Summary.call) ->
                (not c.Summary.c_in_try) && Hashtbl.mem escapes c.Summary.c_callee)
              f.Summary.f_calls
          then begin
            Hashtbl.replace escapes f.Summary.f_id ();
            changed := true
          end)
      ()
  done;
  escapes

(* Witness: walk non-try call edges from [id] to the nearest function
   with a naked raise site, preferring the shortest chain. *)
let raise_chain (g : Callgraph.t) escapes id =
  let seen, parent =
    Callgraph.reachable g ~roots:[ id ]
      ~follow:(fun c -> (not c.Summary.c_in_try) && Hashtbl.mem escapes c.Summary.c_callee)
      ()
  in
  let best = ref None in
  Hashtbl.iter
    (fun fid () ->
      match Callgraph.find_fn g fid with
      | Some f when seeds f <> [] && fid <> id -> (
        let chain = Callgraph.path_to parent fid in
        let raiser, rline = List.hd (seeds f) in
        let cand = (chain, raiser, f.Summary.f_file, rline) in
        match !best with
        | Some (c, _, _, _) when String.length c <= String.length chain -> ()
        | _ -> best := Some cand)
      | _ -> ())
    seen;
  !best

let r10 ~(config : Rules.config) ~waivers (g : Callgraph.t) =
  let escapes = escape_set g in
  let diags = ref [] in
  Callgraph.fold_fns g
    (fun () (f : Summary.fn) ->
      (* fun-literal callbacks: call-mediated escapes only (a literal
         raise inside the callback is already R3's finding) *)
      (match f.Summary.f_kind with
      | Summary.Engine_cb reg -> (
        let mediated =
          List.exists
            (fun (c : Summary.call) ->
              (not c.Summary.c_in_try) && Hashtbl.mem escapes c.Summary.c_callee)
            f.Summary.f_calls
        in
        if mediated then
          match raise_chain g escapes f.Summary.f_id with
          | Some (chain, raiser, rfile, rline) ->
            if
              not
                (credit_waiver waivers ~file:f.Summary.f_file
                   ~pos:f.Summary.f_partial_at ~rule:"R10")
            then
              diags :=
                Diagnostic.make ~rule:"R10" ~severity:Diagnostic.Error
                  ~file:f.Summary.f_file ~line:f.Summary.f_line ~col:f.Summary.f_col
                  (Printf.sprintf
                     "callback passed to %s can raise through its callees: %s (%s at \
                      %s:%d); wrap the call in try/with or make the callee total"
                     reg chain raiser rfile rline)
                :: !diags
          | None -> ())
      | Summary.Toplevel | Summary.Parallel_cb _ -> ());
      (* named functions handed to a registrar: any escape counts, the
         syntactic R3 never sees these at all *)
      List.iter
        (fun (reg, callee, line) ->
          if
            List.mem reg config.Rules.callback_registrars
            && Hashtbl.mem escapes callee
          then
            if
              not
                (credit_waiver waivers ~file:f.Summary.f_file
                   ~pos:f.Summary.f_partial_at ~rule:"R10")
            then
              diags :=
                Diagnostic.make ~rule:"R10" ~severity:Diagnostic.Error
                  ~file:f.Summary.f_file ~line ~col:0
                  (Printf.sprintf
                     "%s can raise and is registered as a %s callback; wrap it or make \
                      it total"
                     callee reg)
                :: !diags)
        f.Summary.f_cb_refs)
    ();
  !diags

(* --- entry point ------------------------------------------------------ *)

let analyze ?(config = Rules.default_config) ?ratchet ~waivers (g : Callgraph.t) =
  let r8_diags = r8 ~config ~waivers g in
  let r9_diags, inferred_hot, inferred_count = r9 ~config ?ratchet g in
  let r10_diags = r10 ~config ~waivers g in
  {
    ip_diags = r8_diags @ r9_diags @ r10_diags;
    ip_inferred_hot = inferred_hot;
    ip_inferred_count = inferred_count;
  }
