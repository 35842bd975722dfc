(* Hierarchical timing wheel with an overflow heap. The scheduler the
   hop loop actually wants is almost-FIFO: the next event is nearly
   always within the NIC's serialization latency (a few hundred
   microseconds), so a dense O(1) slot array beats a binary heap whose
   every push/pop sifts through log n levels of swaps. Layout:

     L0   4096 slots x 256 ns — the current ~1.05 ms block
     L1     64 slots x 1.05 ms — the next 63 blocks, one slot per block
     heap  everything beyond ~67 ms (far-future controls, NIC warmup)

   The 256-ns slot width is sized to the workload: per-hop latencies
   are ~562 us (Constants/Nic), so the dense event band always fits in
   L0 and pushes are one array prepend — if slots were nanoseconds,
   every push would land in L1 or the heap and the wheel would
   degenerate into a worse heap. Slots coarser than a nanosecond are
   safe because expiry sorts: harvesting moves a whole slot into the
   "run" buffer and insertion-sorts it by the FULL key, so dequeue
   order is exact and independent of both slot width and insertion
   order — which the sharded engine's determinism contract requires.
   The run head is therefore the exact global minimum.

   Entries are pooled in parallel int arrays (time, k1, k2, two opaque
   payload words, next-link) so scheduling allocates nothing in steady
   state and no write barriers fire.

   Ordering contract: strictly ascending (time, k1, k2). Callers
   guarantee keys are unique and pushes never predate the last popped
   time; a push below the cursor is clamped up to it (same leniency the
   binary heap shows: it fires as soon as possible). *)

let slot_shift = 8 (* 256 ns per L0 slot *)

let l0_bits = 12

let l0_slots = 1 lsl l0_bits (* 4096 *)

let l0_mask = l0_slots - 1

let block_shift = slot_shift + l0_bits

let l1_slots = 64

let l1_mask = l1_slots - 1

let nil = -1

type t = {
  (* Entry pool: five payload lanes plus an intrusive next-link that
     doubles as the free-list chain. *)
  mutable et : int array;
  mutable ek1 : int array;
  mutable ek2 : int array;
  mutable e0 : int array;
  mutable e1 : int array;
  mutable enext : int array;
  mutable efree : int;
  (* L0: slot list heads plus a two-level occupancy bitmap (32 bits per
     word — OCaml ints are 63-bit, so bit indices stay below 31). *)
  l0 : int array;
  l0_word : int array; (* 128 words, one bit per slot *)
  l0_sum : int array; (* 4 words, one bit per l0_word *)
  mutable n_l0 : int;
  (* L1: one list head per future block; scanned cyclically (at most
     once per 4096 ns of virtual time, so no bitmap needed). *)
  l1 : int array;
  mutable n_l1 : int;
  (* Overflow: binary heap of entry ids ordered by the entry key. *)
  mutable hp : int array;
  mutable hn : int;
  (* Current run: the harvested slot, sorted ascending by key. *)
  mutable rt : int array;
  mutable rk1 : int array;
  mutable rk2 : int array;
  mutable r0 : int array;
  mutable r1 : int array;
  mutable rpos : int;
  mutable rlen : int;
  mutable cur : int; (* cursor: time of the last harvested slot *)
  mutable n : int;
}

let create () =
  let ecap = 256 in
  let enext = Array.init ecap (fun i -> if i = ecap - 1 then nil else i + 1) in
  {
    et = Array.make ecap 0;
    ek1 = Array.make ecap 0;
    ek2 = Array.make ecap 0;
    e0 = Array.make ecap 0;
    e1 = Array.make ecap 0;
    enext;
    efree = 0;
    l0 = Array.make l0_slots nil;
    l0_word = Array.make (l0_slots / 32) 0;
    l0_sum = Array.make (l0_slots / 32 / 32) 0;
    n_l0 = 0;
    l1 = Array.make l1_slots nil;
    n_l1 = 0;
    hp = Array.make 64 0;
    hn = 0;
    rt = Array.make 64 0;
    rk1 = Array.make 64 0;
    rk2 = Array.make 64 0;
    r0 = Array.make 64 0;
    r1 = Array.make 64 0;
    rpos = 0;
    rlen = 0;
    cur = 0;
    n = 0;
  }

let size t = t.n

let is_empty t = t.n = 0

(* ------------------------------------------------------------------ *)
(* Entry pool. *)

let[@dumbnet.hot] entry_grow t =
  let cap = Array.length t.et in
  let cap' = 2 * cap in
  let widen a = Array.append a (Array.make cap 0) in
  t.et <- widen t.et;
  t.ek1 <- widen t.ek1;
  t.ek2 <- widen t.ek2;
  t.e0 <- widen t.e0;
  t.e1 <- widen t.e1;
  let enext' = Array.make cap' nil in
  Array.blit t.enext 0 enext' 0 cap;
  for i = cap to cap' - 2 do
    enext'.(i) <- i + 1
  done;
  t.enext <- enext';
  t.efree <- cap

let[@dumbnet.hot] entry_alloc t ~time ~k1 ~k2 ~d0 ~d1 =
  if t.efree = nil then entry_grow t;
  let e = t.efree in
  t.efree <- t.enext.(e);
  t.et.(e) <- time;
  t.ek1.(e) <- k1;
  t.ek2.(e) <- k2;
  t.e0.(e) <- d0;
  t.e1.(e) <- d1;
  e

let[@dumbnet.hot] entry_free t e =
  t.enext.(e) <- t.efree;
  t.efree <- e

(* ------------------------------------------------------------------ *)
(* 32-bit find-first-set via a de Bruijn multiply (no ctz intrinsic in
   portable OCaml). Input must be nonzero and fit in 32 bits. *)

let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
     21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@dumbnet.hot] ctz32 x = ctz_table.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let[@dumbnet.hot] l0_set_bit t s =
  let w = s lsr 5 in
  let old = t.l0_word.(w) in
  t.l0_word.(w) <- old lor (1 lsl (s land 31));
  if old = 0 then t.l0_sum.(w lsr 5) <- t.l0_sum.(w lsr 5) lor (1 lsl (w land 31))

let[@dumbnet.hot] l0_clear_bit t s =
  let w = s lsr 5 in
  let v = t.l0_word.(w) land lnot (1 lsl (s land 31)) in
  t.l0_word.(w) <- v;
  if v = 0 then t.l0_sum.(w lsr 5) <- t.l0_sum.(w lsr 5) land lnot (1 lsl (w land 31))

(* First occupied slot at index >= [from]. Only called with n_l0 > 0;
   every L0 entry lives in the cursor's block at a slot >= the cursor's
   slot, so the scan always lands. *)
let[@dumbnet.hot] l0_scan t from =
  let w0 = from lsr 5 in
  let m = t.l0_word.(w0) land (-1 lsl (from land 31)) in
  if m <> 0 then (w0 lsl 5) + ctz32 m
  else begin
    let sw = ref (w0 lsr 5) in
    let sm = ref (t.l0_sum.(!sw) land (-1 lsl ((w0 land 31) + 1)) land 0xFFFFFFFF) in
    while !sm = 0 do
      incr sw;
      sm := t.l0_sum.(!sw)
    done;
    let w = (!sw lsl 5) + ctz32 !sm in
    (w lsl 5) + ctz32 t.l0_word.(w)
  end

(* ------------------------------------------------------------------ *)
(* Overflow heap of entry ids, keyed by (time, k1, k2). *)

let[@dumbnet.hot] key_lt t a b =
  t.et.(a) < t.et.(b)
  || (t.et.(a) = t.et.(b)
     && (t.ek1.(a) < t.ek1.(b)
        || (t.ek1.(a) = t.ek1.(b) && t.ek2.(a) < t.ek2.(b))))

let[@dumbnet.hot] heap_push t e =
  if t.hn = Array.length t.hp then t.hp <- Array.append t.hp (Array.make t.hn 0);
  let i = ref t.hn in
  t.hp.(!i) <- e;
  t.hn <- t.hn + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if key_lt t t.hp.(!i) t.hp.(p) then begin
      let x = t.hp.(!i) in
      t.hp.(!i) <- t.hp.(p);
      t.hp.(p) <- x;
      i := p
    end
    else continue := false
  done

let[@dumbnet.hot] heap_pop_min t =
  let e = t.hp.(0) in
  t.hn <- t.hn - 1;
  if t.hn > 0 then begin
    t.hp.(0) <- t.hp.(t.hn);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = if l < t.hn && key_lt t t.hp.(l) t.hp.(!i) then l else !i in
      let m = if r < t.hn && key_lt t t.hp.(r) t.hp.(m) then r else m in
      if m <> !i then begin
        let x = t.hp.(!i) in
        t.hp.(!i) <- t.hp.(m);
        t.hp.(m) <- x;
        i := m
      end
      else continue := false
    done
  end;
  e

(* ------------------------------------------------------------------ *)
(* Routing: place an allocated entry by its time relative to the
   cursor's block. Window invariant: L0 holds the cursor's block, L1
   the next 63 blocks (block mod 64 is collision-free across exactly
   that window), the heap everything farther. *)

let[@dumbnet.hot] route t e =
  let b = t.et.(e) lsr block_shift in
  let cb = t.cur lsr block_shift in
  if b = cb then begin
    let s = (t.et.(e) lsr slot_shift) land l0_mask in
    t.enext.(e) <- t.l0.(s);
    if t.l0.(s) = nil then l0_set_bit t s;
    t.l0.(s) <- e;
    t.n_l0 <- t.n_l0 + 1
  end
  else if b - cb < l1_slots then begin
    let s = b land l1_mask in
    t.enext.(e) <- t.l1.(s);
    t.l1.(s) <- e;
    t.n_l1 <- t.n_l1 + 1
  end
  else heap_push t e

(* Pull every heap entry that the (newly advanced) cursor block brought
   into the L0/L1 window. *)
let[@dumbnet.hot] promote t =
  let cb = t.cur lsr block_shift in
  while t.hn > 0 && (t.et.(t.hp.(0)) lsr block_shift) - cb < l1_slots do
    route t (heap_pop_min t)
  done

(* ------------------------------------------------------------------ *)
(* The run buffer. *)

let[@dumbnet.hot] run_grow t =
  let cap = Array.length t.rt in
  let widen a = Array.append a (Array.make cap 0) in
  t.rt <- widen t.rt;
  t.rk1 <- widen t.rk1;
  t.rk2 <- widen t.rk2;
  t.r0 <- widen t.r0;
  t.r1 <- widen t.r1

let[@dumbnet.hot] run_key_gt t j ~time ~k1 ~k2 =
  t.rt.(j) > time
  || (t.rt.(j) = time && (t.rk1.(j) > k1 || (t.rk1.(j) = k1 && t.rk2.(j) > k2)))

let[@dumbnet.hot] run_gt t a b = run_key_gt t a ~time:t.rt.(b) ~k1:t.rk1.(b) ~k2:t.rk2.(b)

(* Lane-by-lane, no helper closure: this runs inside the zero-alloc
   contract. *)
let[@dumbnet.hot] run_swap t i j =
  let x = t.rt.(i) in
  t.rt.(i) <- t.rt.(j);
  t.rt.(j) <- x;
  let x = t.rk1.(i) in
  t.rk1.(i) <- t.rk1.(j);
  t.rk1.(j) <- x;
  let x = t.rk2.(i) in
  t.rk2.(i) <- t.rk2.(j);
  t.rk2.(j) <- x;
  let x = t.r0.(i) in
  t.r0.(i) <- t.r0.(j);
  t.r0.(j) <- x;
  let x = t.r1.(i) in
  t.r1.(i) <- t.r1.(j);
  t.r1.(j) <- x

(* In-place heapsort of run slots [0, n). Synchronized injection puts a
   whole wave of same-timestamp events into one slot (1024 hosts all
   transmitting at t=0 arrive together), and the slot list hands them
   back in descending key order — insertion sort's worst case. Heapsort
   keeps pathological slots at O(n log n) without allocating. *)
let[@dumbnet.hot] run_siftdown t root len =
  let i = ref root in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let m = if l + 1 < len && run_gt t (l + 1) l then l + 1 else l in
      if run_gt t m !i then begin
        run_swap t !i m;
        i := m
      end
      else continue := false
    end
  done

let[@dumbnet.hot] run_sort t n =
  for i = (n / 2) - 1 downto 0 do
    run_siftdown t i n
  done;
  for e = n - 1 downto 1 do
    run_swap t 0 e;
    run_siftdown t 0 e
  done

(* Insert into the live run at its sorted position (entries before rpos
   are already popped and never move). Rare: only pushes that must fire
   before the already-harvested slot finishes take this path. *)
let[@dumbnet.hot] run_insert t ~time ~k1 ~k2 ~d0 ~d1 =
  if t.rlen = Array.length t.rt then run_grow t;
  let j = ref (t.rlen - 1) in
  while !j >= t.rpos && run_key_gt t !j ~time ~k1 ~k2 do
    t.rt.(!j + 1) <- t.rt.(!j);
    t.rk1.(!j + 1) <- t.rk1.(!j);
    t.rk2.(!j + 1) <- t.rk2.(!j);
    t.r0.(!j + 1) <- t.r0.(!j);
    t.r1.(!j + 1) <- t.r1.(!j);
    decr j
  done;
  let p = !j + 1 in
  t.rt.(p) <- time;
  t.rk1.(p) <- k1;
  t.rk2.(p) <- k2;
  t.r0.(p) <- d0;
  t.r1.(p) <- d1;
  t.rlen <- t.rlen + 1

(* Harvest slot [s]: move its list into the run and sort by full key.
   Slot lists are prepend-ordered, so sorting here is what erases
   insertion order from the dequeue sequence. At the workload's event
   density a 256-ns slot usually holds a handful of entries (insertion
   sort); a synchronized wave that piles a whole topology into one slot
   trips the heapsort instead. *)
let[@dumbnet.hot] harvest t s =
  let e = ref t.l0.(s) in
  t.l0.(s) <- nil;
  l0_clear_bit t s;
  let k = ref 0 in
  while !e <> nil do
    if t.rlen = Array.length t.rt then run_grow t;
    let i = t.rlen in
    t.rt.(i) <- t.et.(!e);
    t.rk1.(i) <- t.ek1.(!e);
    t.rk2.(i) <- t.ek2.(!e);
    t.r0.(i) <- t.e0.(!e);
    t.r1.(i) <- t.e1.(!e);
    t.rlen <- i + 1;
    incr k;
    let nx = t.enext.(!e) in
    entry_free t !e;
    e := nx
  done;
  t.n_l0 <- t.n_l0 - !k;
  if t.rlen > 32 then run_sort t t.rlen
  else
    for i = 1 to t.rlen - 1 do
      let time = t.rt.(i) and k1 = t.rk1.(i) and k2 = t.rk2.(i) in
      let d0 = t.r0.(i) and d1 = t.r1.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && run_key_gt t !j ~time ~k1 ~k2 do
        t.rt.(!j + 1) <- t.rt.(!j);
        t.rk1.(!j + 1) <- t.rk1.(!j);
        t.rk2.(!j + 1) <- t.rk2.(!j);
        t.r0.(!j + 1) <- t.r0.(!j);
        t.r1.(!j + 1) <- t.r1.(!j);
        decr j
      done;
      let p = !j + 1 in
      t.rt.(p) <- time;
      t.rk1.(p) <- k1;
      t.rk2.(p) <- k2;
      t.r0.(p) <- d0;
      t.r1.(p) <- d1
    done

(* Advance the cursor to the next occupied slot and harvest it. The
   cursor never skips an occupied slot: L0 re-scans from its own slot
   (a slot re-armed at the current tick is found again), the L1 scan
   starts one block ahead (the current block's entries are in L0 by the
   window invariant), and a heap jump promotes before re-dispatching. *)
let[@dumbnet.hot] rec advance t =
  if t.n_l0 > 0 then begin
    let s = l0_scan t ((t.cur lsr slot_shift) land l0_mask) in
    t.cur <- ((t.cur lsr block_shift) lsl block_shift) lor (s lsl slot_shift);
    harvest t s;
    true
  end
  else if t.n_l1 > 0 then begin
    let cb = t.cur lsr block_shift in
    let d = ref 1 in
    while t.l1.((cb + !d) land l1_mask) = nil do
      incr d
    done;
    let b = cb + !d in
    t.cur <- b lsl block_shift;
    promote t;
    (* Cascade the block into L0; every entry here has block = b, which
       is now the cursor's block. *)
    let s = b land l1_mask in
    let e = ref t.l1.(s) in
    t.l1.(s) <- nil;
    while !e <> nil do
      let nx = t.enext.(!e) in
      t.n_l1 <- t.n_l1 - 1;
      route t !e;
      e := nx
    done;
    advance t
  end
  else if t.hn > 0 then begin
    t.cur <- (t.et.(t.hp.(0)) lsr block_shift) lsl block_shift;
    promote t;
    advance t
  end
  else false

(* ------------------------------------------------------------------ *)

let[@dumbnet.hot] push t ~time ~k1 ~k2 ~d0 ~d1 =
  t.n <- t.n + 1;
  if
    t.rpos < t.rlen
    &&
    let l = t.rlen - 1 in
    time < t.rt.(l)
    || (time = t.rt.(l) && (k1 < t.rk1.(l) || (k1 = t.rk1.(l) && k2 < t.rk2.(l))))
  then run_insert t ~time ~k1 ~k2 ~d0 ~d1
  else begin
    (* Clamp contract-violating past pushes up to the cursor: they fire
       as soon as possible, matching the heap's behaviour. *)
    let time = if time < t.cur then t.cur else time in
    route t (entry_alloc t ~time ~k1 ~k2 ~d0 ~d1)
  end

let[@dumbnet.hot] min_ready t =
  if t.rpos < t.rlen then true
  else begin
    t.rpos <- 0;
    t.rlen <- 0;
    advance t
  end

let[@dumbnet.hot] min_time t = t.rt.(t.rpos)

let[@dumbnet.hot] min_k1 t = t.rk1.(t.rpos)

let[@dumbnet.hot] min_k2 t = t.rk2.(t.rpos)

let[@dumbnet.hot] min_d0 t = t.r0.(t.rpos)

let[@dumbnet.hot] min_d1 t = t.r1.(t.rpos)

let[@dumbnet.hot] pop t =
  t.rpos <- t.rpos + 1;
  t.n <- t.n - 1
