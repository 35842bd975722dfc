(* The pending-event queue is the simulator's hottest structure: every
   switch hop pushes and pops at least one event, and each data frame
   waits through two ~0.56 ms host-stack latencies, so tens of
   thousands of events are pending at once.

   Events wait in one of two places, both holding only ints: a
   (key, seq) pair per event — fire time, and a packed sequence word
   of insertion order, daemon flag and the index of the event's
   closure in a slot table. The heap is a binary min-heap over one int
   array with each pair side by side; a sift moves ints through a
   hole, two writes per level, with no write barrier and no comparison
   closure. A delay line is a FIFO ring of pairs for events that all
   wait the same delay: the clock never goes back, so their due times
   only increase and the ring stays sorted without sifting. [run] fires
   the smallest pair among the heap root and the line heads, so where
   an event waits never changes when it fires. A closure is written
   into its slot once on push and cleared once on pop; freed slots are
   recycled through a stack. Order: fire time ascending, then
   insertion order (FIFO among equal times).

   A tally holds arrivals whose only effect is to be counted — a §4.2
   notice copy that reaches a switch with its hop budget spent. They
   need no closure and no order among themselves, so a tally is an
   unsorted buffer of (key, seq) pairs and [run] never pops it. It
   keeps one bound instead: while an event fires, every tally entry
   that orders before it has fired too. A read of a count settles the
   entries under that bound in one pass; the end of a run settles the
   rest of what fell due (all of it, without a bound). *)

let dummy_fn () = ()

(* seq = ((insertion lsl 1) lor daemon) lsl slot_bits lor slot. The
   slot bits never decide an order: insertion numbers are unique. *)
let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let daemon_bit = 1 lsl slot_bits

let max_slots = 1 lsl slot_bits

(* Insertions whose packed word still fits a non-negative int. *)
let max_insertion = 1 lsl (Sys.int_size - 2 - slot_bits)

type t = {
  mutable clock : int;
  mutable heap : int array; (* position i: fire time at 2i, seq at 2i+1 *)
  mutable size : int;
  mutable lines : line array;
  mutable tallies : tally array;
  (* Tally entries ordering at or before (due_at, due_seq) have fired;
     due_at = -1 when none waits to be settled. *)
  mutable due_at : int;
  mutable due_seq : int;
  (* The latest (key, seq) among unsettled tally entries; -1 if none. *)
  mutable tmax_at : int;
  mutable tmax_seq : int;
  mutable tally_waiting : int; (* unsettled tally entries, all tallies *)
  mutable tally_fired : int; (* settled ones, all tallies *)
  (* slot table, indexed by slot *)
  mutable fns : (unit -> unit) array;
  mutable free : int array; (* free slots, [free.(0 .. nfree-1)] *)
  mutable nfree : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable regular : int; (* pending non-daemon events *)
}

(* One delay's FIFO: entry [i] is [ring.(2i)] (fire time) and
   [ring.(2i+1)] (packed sequence word); [mask + 1] entries fit. *)
and line = {
  eng : t;
  delay : int;
  mutable ring : int array;
  mutable mask : int;
  mutable head : int;
  mutable len : int;
}

(* Entry [i] is [buf.(2i)] (fire time) and [buf.(2i+1)] (sequence
   word), [i < n], in no order; [lo_at] is at most their least fire
   time and (hi_at, hi_seq) their latest pair (-1 when empty). *)
and tally = {
  owner : t;
  mutable buf : int array;
  mutable n : int;
  mutable lo_at : int;
  mutable hi_at : int;
  mutable hi_seq : int;
  mutable fired : int;
}

let initial_capacity = 16

let create () =
  {
    clock = 0;
    heap = Array.make (2 * initial_capacity) 0;
    size = 0;
    lines = [||];
    tallies = [||];
    due_at = -1;
    due_seq = -1;
    tmax_at = -1;
    tmax_seq = -1;
    tally_waiting = 0;
    tally_fired = 0;
    fns = Array.make initial_capacity dummy_fn;
    free = Array.init initial_capacity (fun i -> initial_capacity - 1 - i);
    nfree = initial_capacity;
    next_seq = 0;
    processed = 0;
    regular = 0;
  }

let now t = t.clock

let[@dumbnet.hot] extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Only called when every slot is taken, so the new free slots are
   exactly the new upper half. *)
let[@dumbnet.hot] grow_slots t =
  let cap = Array.length t.fns in
  if 2 * cap > max_slots then invalid_arg "Engine: more than 2^24 pending events";
  let new_cap = 2 * cap in
  t.fns <- extend t.fns new_cap dummy_fn;
  t.free <- Array.init new_cap (fun i -> if i < cap then new_cap - 1 - i else 0);
  t.nfree <- cap

let[@dumbnet.hot] grow_heap t = t.heap <- extend t.heap (2 * Array.length t.heap) 0

(* The next insertion number. *)
let[@dumbnet.hot] next_insertion t =
  let n = t.next_seq in
  if n >= max_insertion then invalid_arg "Engine: insertion counter overflow";
  t.next_seq <- n + 1;
  n

(* Store [fn] in a free slot and return the event's packed sequence
   word. *)
let[@dumbnet.hot] take_slot t ~daemon fn =
  if t.nfree = 0 then grow_slots t;
  let n = next_insertion t in
  if not daemon then t.regular <- t.regular + 1;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.fns.(slot) <- fn;
  ((((n lsl 1) lor if daemon then 1 else 0) lsl slot_bits) lor slot)

(* Hand back the closure of a popped event and recycle its slot. *)
let[@dumbnet.hot] release t seq =
  let slot = seq land slot_mask in
  let fn = t.fns.(slot) in
  t.fns.(slot) <- dummy_fn;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  if seq land daemon_bit = 0 then t.regular <- t.regular - 1;
  fn

(* Walk a hole at position [i] towards the root while the parent orders
   after (key, seq), shifting each such parent down into the hole;
   returns where (key, seq) belongs. The heap is annotated [int array]
   so the comparisons compile to machine compares, not
   [caml_lessthan]. *)
let[@dumbnet.hot] rec hole_up (h : int array) i (key : int) (seq : int) =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    let pk = h.(2 * parent) in
    if key < pk || (key = pk && seq < h.((2 * parent) + 1)) then begin
      h.(2 * i) <- pk;
      h.((2 * i) + 1) <- h.((2 * parent) + 1);
      hole_up h parent key seq
    end
    else i
  end

(* Walk a hole at position [i] towards the leaves of an [n]-element
   heap while the smaller child orders before (key, seq), shifting it
   up into the hole; returns where (key, seq) belongs. *)
let[@dumbnet.hot] rec hole_down (h : int array) n i (key : int) (seq : int) =
  let l = (2 * i) + 1 in
  if l >= n then i
  else begin
    let r = l + 1 in
    let c =
      if
        r < n
        && (h.(2 * r) < h.(2 * l) || (h.(2 * r) = h.(2 * l) && h.((2 * r) + 1) < h.((2 * l) + 1)))
      then r
      else l
    in
    let ck = h.(2 * c) in
    if ck < key || (ck = key && h.((2 * c) + 1) < seq) then begin
      h.(2 * i) <- ck;
      h.((2 * i) + 1) <- h.((2 * c) + 1);
      hole_down h n c key seq
    end
    else i
  end

let[@dumbnet.hot] push t at ~daemon fn =
  let seq = take_slot t ~daemon fn in
  if 2 * t.size = Array.length t.heap then grow_heap t;
  let i = hole_up t.heap t.size at seq in
  t.heap.(2 * i) <- at;
  t.heap.((2 * i) + 1) <- seq;
  t.size <- t.size + 1

let[@dumbnet.hot] schedule t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock + delay_ns) ~daemon:false f

let schedule_at t ~at_ns f =
  if at_ns < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  push t at_ns ~daemon:false f

let schedule_daemon t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule_daemon: negative delay";
  push t (t.clock + delay_ns) ~daemon:true f

let line t ~delay_ns =
  if delay_ns < 0 then invalid_arg "Engine.line: negative delay";
  match Array.find_opt (fun l -> l.delay = delay_ns) t.lines with
  | Some l -> l
  | None ->
    let l =
      {
        eng = t;
        delay = delay_ns;
        ring = Array.make (2 * initial_capacity) 0;
        mask = initial_capacity - 1;
        head = 0;
        len = 0;
      }
    in
    t.lines <- Array.append t.lines [| l |];
    l

(* Only called when the ring is full: unwrap it into twice the room. *)
let[@dumbnet.hot] grow_line l =
  let cap = l.mask + 1 in
  let ring = Array.make (4 * cap) 0 in
  let first = cap - l.head in
  Array.blit l.ring (2 * l.head) ring 0 (2 * first);
  Array.blit l.ring 0 ring (2 * first) (2 * l.head);
  l.ring <- ring;
  l.mask <- (2 * cap) - 1;
  l.head <- 0

let[@dumbnet.hot] schedule_line l f =
  let t = l.eng in
  let seq = take_slot t ~daemon:false f in
  if l.len > l.mask then grow_line l;
  let i = 2 * ((l.head + l.len) land l.mask) in
  l.ring.(i) <- t.clock + l.delay;
  l.ring.(i + 1) <- seq;
  l.len <- l.len + 1

let tally t =
  let tl =
    {
      owner = t;
      buf = Array.make (2 * initial_capacity) 0;
      n = 0;
      lo_at = max_int;
      hi_at = -1;
      hi_seq = -1;
      fired = 0;
    }
  in
  t.tallies <- Array.append t.tallies [| tl |];
  tl

(* Fire every entry of [tl] ordering at or before (at, seq): count it
   and drop it from the buffer. One pass, and none when the whole
   buffer or none of it is due. *)
let[@dumbnet.hot] settle_tally tl (at : int) (seq : int) =
  if tl.n > 0 && tl.lo_at <= at then begin
    let t = tl.owner in
    let fired =
      if tl.hi_at < at || (tl.hi_at = at && tl.hi_seq <= seq) then begin
        let all = tl.n in
        tl.n <- 0;
        tl.lo_at <- max_int;
        tl.hi_at <- -1;
        tl.hi_seq <- -1;
        all
      end
      else begin
        let b = tl.buf in
        let kept = ref 0 and lo = ref max_int in
        for i = 0 to tl.n - 1 do
          let k = b.(2 * i) and s = b.((2 * i) + 1) in
          if not (k < at || (k = at && s <= seq)) then begin
            b.(2 * !kept) <- k;
            b.((2 * !kept) + 1) <- s;
            incr kept;
            if k < !lo then lo := k
          end
        done;
        let fired = tl.n - !kept in
        tl.n <- !kept;
        tl.lo_at <- !lo;
        fired
      end
    in
    tl.fired <- tl.fired + fired;
    t.tally_fired <- t.tally_fired + fired;
    t.tally_waiting <- t.tally_waiting - fired;
    if t.tally_waiting = 0 then begin
      t.tmax_at <- -1;
      t.tmax_seq <- -1
    end
  end

(* Settle what the firing bound says has fallen due. *)
let[@dumbnet.hot] settle_due t =
  if t.due_at >= 0 then Array.iter (fun tl -> settle_tally tl t.due_at t.due_seq) t.tallies

let[@dumbnet.hot] tally_at tl ~at_ns =
  let t = tl.owner in
  if at_ns < t.clock then invalid_arg "Engine.tally_at: time in the past";
  if 2 * tl.n = Array.length tl.buf then begin
    (* Full: first drop what has fired, then grow unless that freed
       half the room. *)
    settle_due t;
    if 4 * tl.n > Array.length tl.buf then tl.buf <- extend tl.buf (2 * Array.length tl.buf) 0
  end;
  let seq = next_insertion t lsl (slot_bits + 1) in
  let i = 2 * tl.n in
  tl.buf.(i) <- at_ns;
  tl.buf.(i + 1) <- seq;
  tl.n <- tl.n + 1;
  if at_ns < tl.lo_at then tl.lo_at <- at_ns;
  (* seq is the newest insertion, so it breaks every tie. *)
  if at_ns >= tl.hi_at then begin
    tl.hi_at <- at_ns;
    tl.hi_seq <- seq
  end;
  if at_ns >= t.tmax_at then begin
    t.tmax_at <- at_ns;
    t.tmax_seq <- seq
  end;
  t.tally_waiting <- t.tally_waiting + 1

let tallied tl =
  settle_due tl.owner;
  tl.fired

(* Remove the heap root and return its closure; the caller has checked
   the heap is non-empty and read the root's key. *)
let[@dumbnet.hot] pop_heap t =
  let h = t.heap in
  let seq = h.(1) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let key = h.(2 * n) and last = h.((2 * n) + 1) in
    let i = hole_down h n 0 key last in
    h.(2 * i) <- key;
    h.((2 * i) + 1) <- last
  end;
  release t seq

(* Same for the head of a non-empty line. *)
let[@dumbnet.hot] pop_line t l =
  let seq = l.ring.((2 * l.head) + 1) in
  l.head <- (l.head + 1) land l.mask;
  l.len <- l.len - 1;
  release t seq

let[@dumbnet.hot] run ?until_ns t =
  let bounded, limit =
    match until_ns with
    | Some limit -> (true, limit)
    | None -> (false, max_int)
  in
  let continue = ref true in
  while !continue do
    (* Without a time bound, stop when only daemons remain. *)
    if (not bounded) && t.regular = 0 && t.tally_waiting = 0 then continue := false
    else begin
      (* The earliest (key, seq) among the heap root (source -1) and
         the line heads (source = line index); -2 while none is seen. *)
      let src = ref (-2) and at = ref 0 and seq = ref 0 in
      if t.size > 0 then begin
        src := -1;
        at := t.heap.(0);
        seq := t.heap.(1)
      end;
      let lines = t.lines in
      for i = 0 to Array.length lines - 1 do
        let l = lines.(i) in
        if l.len > 0 then begin
          let h = 2 * l.head in
          let k = l.ring.(h) and s = l.ring.(h + 1) in
          if !src = -2 || k < !at || (k = !at && s < !seq) then begin
            src := i;
            at := k;
            seq := s
          end
        end
      done;
      if
        !src = -2
        || !at > limit
        (* Only daemons wait on the heap and lines: they fire while a
           tally entry orders after them. *)
        || (not bounded)
           && t.regular = 0
           && not (t.tmax_at > !at || (t.tmax_at = !at && t.tmax_seq > !seq))
      then continue := false
      else begin
        let fn = if !src = -1 then pop_heap t else pop_line t lines.(!src) in
        if !at > t.clock then t.clock <- !at;
        t.processed <- t.processed + 1;
        t.due_at <- !at;
        t.due_seq <- !seq - 1;
        fn ()
      end
    end
  done;
  (* What fell due before the stop: up to the bound, or everything. *)
  if bounded then begin
    t.due_at <- limit;
    t.due_seq <- max_int;
    settle_due t;
    if t.clock < limit then t.clock <- limit
  end
  else begin
    if t.tmax_at > t.clock then t.clock <- t.tmax_at;
    t.due_at <- max_int;
    t.due_seq <- max_int;
    settle_due t
  end;
  t.due_at <- -1;
  t.due_seq <- -1

let pending t =
  settle_due t;
  Array.fold_left (fun n l -> n + l.len) (t.size + t.tally_waiting) t.lines

let pending_regular t =
  settle_due t;
  t.regular + t.tally_waiting

let events_processed t =
  settle_due t;
  t.processed + t.tally_fired
