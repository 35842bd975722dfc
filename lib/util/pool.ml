(* Hand-rolled domain pool: one slot per worker domain, each slot a
   tiny state machine (Idle -> Work -> Done -> Idle, or Stop) guarded
   by its own mutex/condition pair so workers never contend with each
   other, only with the coordinator handing them work. *)

type state =
  | Idle
  | Work of (unit -> unit)
  | Done of exn option
  | Stop

type slot = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable state : state;
}

type t = {
  size : int;
  slots : slot array; (* size - 1 entries; workers 1..size-1 *)
  domains : unit Domain.t array;
  mutable alive : bool;
}

(* Past ~8 workers the path-graph batches this pool exists for are
   memory-bound — more domains just shred the shared caches — so the
   implicit default stops there. An explicit DUMBNET_JOBS still goes as
   wide as asked. *)
let max_default_jobs = 8

let default_jobs () =
  let derived = min (Domain.recommended_domain_count ()) max_default_jobs in
  match Sys.getenv_opt "DUMBNET_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> derived)
  | None -> derived

(* Spawning (or even waking) a domain costs on the order of tens of
   microseconds — comparable to a handful of path-graph generations. A
   batch smaller than this many items per worker loses more to fan-out
   than it gains, so callers fall through to the sequential path. *)
let min_items_per_worker = 16

let worthwhile ~jobs ~items = jobs > 1 && items >= jobs * min_items_per_worker

(* Worker body: park on the condition until handed a closure (or told
   to stop), run it outside the lock, publish the outcome, repeat. *)
let worker_loop slot =
  let running = ref true in
  while !running do
    Mutex.lock slot.lock;
    while (match slot.state with Work _ | Stop -> false | Idle | Done _ -> true) do
      Condition.wait slot.cond slot.lock
    done;
    match slot.state with
    | Stop ->
      Mutex.unlock slot.lock;
      running := false
    | Work f ->
      Mutex.unlock slot.lock;
      let outcome = (try f (); None with exn -> Some exn) in
      Mutex.lock slot.lock;
      slot.state <- Done outcome;
      Condition.broadcast slot.cond;
      Mutex.unlock slot.lock
    | Idle | Done _ -> Mutex.unlock slot.lock
  done

let create ?jobs () =
  let size = match jobs with Some j -> j | None -> default_jobs () in
  if size < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let slots =
    Array.init (max 0 (size - 1)) (fun _ ->
        { lock = Mutex.create (); cond = Condition.create (); state = Idle })
  in
  let domains = Array.map (fun slot -> Domain.spawn (fun () -> worker_loop slot)) slots in
  { size; slots; domains; alive = true }

let[@dumbnet.hot] jobs t = t.size

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun slot ->
        Mutex.lock slot.lock;
        slot.state <- Stop;
        Condition.broadcast slot.cond;
        Mutex.unlock slot.lock)
      t.slots;
    Array.iter Domain.join t.domains
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Slice bounds of worker [w] over [n] items: contiguous, deterministic,
   and within one item of even — the shard-ownership contract. *)
let[@dumbnet.hot] bounds ~size ~n w = (w * n / size, (w + 1) * n / size)

let[@dumbnet.hot] run_chunks t ~n body =
  if not t.alive then invalid_arg "Pool.run_chunks: pool is shut down";
  if n < 0 then invalid_arg "Pool.run_chunks: negative size";
  if n > 0 then
    if t.size = 1 then body ~worker:0 ~lo:0 ~hi:n
    else begin
      (* Hand workers 1.. their chunks, run chunk 0 on the caller, then
         collect every outcome before deciding how to fail. *)
      for w = 1 to t.size - 1 do
        let lo, hi = bounds ~size:t.size ~n w in
        let slot = t.slots.(w - 1) in
        Mutex.lock slot.lock;
        slot.state <- Work (fun () -> if lo < hi then body ~worker:w ~lo ~hi);
        Condition.broadcast slot.cond;
        Mutex.unlock slot.lock
      done;
      let failure = ref None in
      let record w outcome =
        match (outcome, !failure) with
        | Some exn, None -> failure := Some (w, exn)
        | Some exn, Some (w0, _) when w < w0 -> failure := Some (w, exn)
        | _ -> ()
      in
      let _, hi0 = bounds ~size:t.size ~n 0 in
      (if hi0 > 0 then
         try body ~worker:0 ~lo:0 ~hi:hi0 with exn -> record 0 (Some exn));
      for w = 1 to t.size - 1 do
        let slot = t.slots.(w - 1) in
        Mutex.lock slot.lock;
        while (match slot.state with Done _ -> false | _ -> true) do
          Condition.wait slot.cond slot.lock
        done;
        (match slot.state with
        | Done outcome ->
          slot.state <- Idle;
          record w outcome
        | Idle | Work _ | Stop -> ());
        Mutex.unlock slot.lock
      done;
      match !failure with
      | Some (_, exn) -> raise exn
      | None -> ()
    end

let parallel_map t ~f input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    (* Each worker materializes its own slice; stitching afterwards
       keeps the output order (and so the result) independent of how
       the chunks were scheduled. *)
    let pieces = Array.make t.size [||] in
    run_chunks t ~n (fun ~worker ~lo ~hi ->
        pieces.(worker) <- Array.init (hi - lo) (fun i -> f ~worker input.(lo + i)));
    Array.concat (Array.to_list pieces)
  end
