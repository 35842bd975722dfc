(* The pending-event queue is the simulator's hottest structure: every
   switch hop pushes and pops at least one event, and each data frame
   waits in it through two ~0.56 ms host-stack latencies, so tens of
   thousands of events are pending at once. It is a binary min-heap
   whose lanes hold only ints — fire time, tie-break sequence number
   (insertion order, with the daemon flag in the low bit so it never
   reorders) and the index of the event's closure in a slot table. A
   sift moves ints through a hole, one write per lane per level, with
   no write barrier and no comparison closure. A closure is written
   into its slot once on push and cleared once on pop; freed slots are
   recycled through a stack. Order: fire time ascending, then insertion
   order (FIFO among equal times). *)

let dummy_fn () = ()

type t = {
  mutable clock : int;
  (* heap lanes, indexed by heap position *)
  mutable keys : int array; (* fire time, ns *)
  mutable seqs : int array; (* (insertion order lsl 1) lor daemon bit *)
  mutable slots : int array; (* the event's index into [fns] *)
  mutable size : int;
  (* slot table, indexed by slot *)
  mutable fns : (unit -> unit) array;
  mutable free : int array; (* free slots, [free.(0 .. nfree-1)] *)
  mutable nfree : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable regular : int; (* pending non-daemon events *)
}

let initial_capacity = 16

let create () =
  {
    clock = 0;
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    size = 0;
    fns = Array.make initial_capacity dummy_fn;
    free = Array.init initial_capacity (fun i -> initial_capacity - 1 - i);
    nfree = initial_capacity;
    next_seq = 0;
    processed = 0;
    regular = 0;
  }

let now t = t.clock

(* Only called when every slot is taken (size = capacity), so the new
   free slots are exactly the new upper half. *)
let grow t =
  let cap = Array.length t.keys in
  let new_cap = 2 * cap in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.fns <- extend t.fns dummy_fn;
  t.free <- Array.init new_cap (fun i -> if i < cap then new_cap - 1 - i else 0);
  t.nfree <- cap

(* Walk a hole at [i] towards the root while the parent orders after
   (key, seq), shifting each such parent down into the hole; returns
   where (key, seq) belongs. The lanes are annotated [int array] so the
   comparisons compile to machine compares, not [caml_lessthan]. *)
let[@dumbnet.hot] rec hole_up (keys : int array) (seqs : int array) (slots : int array) i
    (key : int) (seq : int) =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    let pk = keys.(parent) in
    if key < pk || (key = pk && seq < seqs.(parent)) then begin
      keys.(i) <- pk;
      seqs.(i) <- seqs.(parent);
      slots.(i) <- slots.(parent);
      hole_up keys seqs slots parent key seq
    end
    else i
  end

(* Walk a hole at [i] towards the leaves of an [n]-element heap while
   the smaller child orders before (key, seq), shifting it up into the
   hole; returns where (key, seq) belongs. *)
let[@dumbnet.hot] rec hole_down (keys : int array) (seqs : int array) (slots : int array) n
    i (key : int) (seq : int) =
  let l = (2 * i) + 1 in
  if l >= n then i
  else begin
    let r = l + 1 in
    let c =
      if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l))) then r
      else l
    in
    let ck = keys.(c) in
    if ck < key || (ck = key && seqs.(c) < seq) then begin
      keys.(i) <- ck;
      seqs.(i) <- seqs.(c);
      slots.(i) <- slots.(c);
      hole_down keys seqs slots n c key seq
    end
    else i
  end

let[@dumbnet.hot] push t at ~daemon fn =
  let seq = (t.next_seq lsl 1) lor if daemon then 1 else 0 in
  t.next_seq <- t.next_seq + 1;
  if not daemon then t.regular <- t.regular + 1;
  if t.size = Array.length t.keys then grow t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.fns.(slot) <- fn;
  let i = hole_up t.keys t.seqs t.slots t.size at seq in
  t.keys.(i) <- at;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.size <- t.size + 1

let schedule t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock + delay_ns) ~daemon:false f

let schedule_at t ~at_ns f =
  if at_ns < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  push t at_ns ~daemon:false f

let schedule_daemon t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule_daemon: negative delay";
  push t (t.clock + delay_ns) ~daemon:true f

(* Remove the root and return its closure; the caller has checked the
   heap is non-empty and read the root's key. *)
let[@dumbnet.hot] pop_fn t =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let slot = slots.(0) in
  let fn = t.fns.(slot) in
  t.fns.(slot) <- dummy_fn;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  if seqs.(0) land 1 = 0 then t.regular <- t.regular - 1;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let key = keys.(n) and seq = seqs.(n) and last = slots.(n) in
    let i = hole_down keys seqs slots n 0 key seq in
    keys.(i) <- key;
    seqs.(i) <- seq;
    slots.(i) <- last
  end;
  fn

let[@dumbnet.hot] run ?until_ns t =
  let bounded, limit =
    match until_ns with
    | Some limit -> (true, limit)
    | None -> (false, max_int)
  in
  let continue = ref true in
  while !continue do
    (* Without a time bound, stop when only daemons remain. *)
    if t.size = 0 || ((not bounded) && t.regular = 0) then continue := false
    else begin
      let at = t.keys.(0) in
      if at > limit then continue := false
      else begin
        let fn = pop_fn t in
        if at > t.clock then t.clock <- at;
        t.processed <- t.processed + 1;
        fn ()
      end
    end
  done;
  if bounded && t.clock < limit then t.clock <- limit

let pending t = t.size

let pending_regular t = t.regular

let events_processed t = t.processed
