(* The pending-event queue is the simulator's hottest structure: every
   switch hop pushes and pops at least one event. It is a binary
   min-heap over three parallel arrays — unboxed int timestamps, unboxed
   int tie-break sequence numbers (insertion order, with the daemon flag
   in the low bit so it never reorders), and the event closures — so a
   sift moves machine ints and one pointer, allocates nothing, and never
   calls a comparison closure. Order: fire time ascending, then
   insertion order (FIFO among equal times). *)

let dummy_fn () = ()

type heap = {
  mutable keys : int array; (* fire time, ns *)
  mutable seqs : int array; (* (insertion order lsl 1) lor daemon bit *)
  mutable fns : (unit -> unit) array;
  mutable size : int;
}

type t = {
  mutable clock : int;
  h : heap;
  mutable next_seq : int;
  mutable processed : int;
  mutable regular : int; (* pending non-daemon events *)
}

let create () =
  {
    clock = 0;
    h = { keys = Array.make 16 0; seqs = Array.make 16 0; fns = Array.make 16 dummy_fn; size = 0 };
    next_seq = 0;
    processed = 0;
    regular = 0;
  }

let now t = t.clock

(* Order by time, then by insertion for FIFO among equal times. *)
let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let f = h.fns.(i) in
  h.fns.(i) <- h.fns.(j);
  h.fns.(j) <- f

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && less h l i then l else i in
  let smallest = if r < h.size && less h r smallest then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let grow h =
  let cap = Array.length h.keys in
  let new_cap = 2 * cap in
  let keys = Array.make new_cap 0 in
  let seqs = Array.make new_cap 0 in
  let fns = Array.make new_cap dummy_fn in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.fns 0 fns 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.fns <- fns

let[@dumbnet.hot] push t at ~daemon fn =
  let seq = (t.next_seq lsl 1) lor if daemon then 1 else 0 in
  t.next_seq <- t.next_seq + 1;
  if not daemon then t.regular <- t.regular + 1;
  let h = t.h in
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  h.keys.(i) <- at;
  h.seqs.(i) <- seq;
  h.fns.(i) <- fn;
  h.size <- h.size + 1;
  sift_up h i

let schedule t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.clock + delay_ns) ~daemon:false f

let schedule_at t ~at_ns f =
  if at_ns < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  push t at_ns ~daemon:false f

let schedule_daemon t ~delay_ns f =
  if delay_ns < 0 then invalid_arg "Engine.schedule_daemon: negative delay";
  push t (t.clock + delay_ns) ~daemon:true f

let[@dumbnet.hot] run ?until_ns ?max_events t =
  let h = t.h in
  let budget = ref (Option.value max_events ~default:max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    (* Without a time bound, stop when only daemons remain. *)
    if (until_ns = None && t.regular = 0) || h.size = 0 then continue := false
    else begin
      let at = h.keys.(0) in
      match until_ns with
      | Some limit when at > limit -> continue := false
      | Some _ | None ->
        let daemon = h.seqs.(0) land 1 = 1 in
        let fn = h.fns.(0) in
        h.size <- h.size - 1;
        if h.size > 0 then begin
          h.keys.(0) <- h.keys.(h.size);
          h.seqs.(0) <- h.seqs.(h.size);
          h.fns.(0) <- h.fns.(h.size);
          h.fns.(h.size) <- dummy_fn;
          sift_down h 0
        end
        else h.fns.(0) <- dummy_fn;
        t.clock <- max t.clock at;
        t.processed <- t.processed + 1;
        if not daemon then t.regular <- t.regular - 1;
        decr budget;
        fn ()
    end
  done;
  match until_ns with
  | Some limit when t.clock < limit && Option.is_none max_events -> t.clock <- limit
  | Some _ | None -> ()

let pending t = t.h.size

let pending_regular t = t.regular

let events_processed t = t.processed
