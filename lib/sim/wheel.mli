(** Hierarchical timing-wheel scheduler: O(1) schedule/expire for the
    dense near-horizon band (4096 slots of 256 ns covering ~1 ms, then
    63 blocks of ~1 ms each), an overflow binary heap for far-future
    events, and a sort-at-expire run buffer so dequeue order is exactly
    ascending (time, k1, k2) — independent of both slot width and
    insertion order. All state lives in pooled int arrays: pushes and
    pops allocate nothing in steady state. Carries two opaque payload
    words per entry; the {!Sharded} engine packs (event info,
    frame-pool slot).

    Keys must be unique per instance (callers derive k2 from per-origin
    counters or a global sequence). Pushes at a time before the last
    popped entry are clamped forward — they fire as soon as possible,
    matching a binary heap's leniency. *)

type t

val create : unit -> t

val push : t -> time:int -> k1:int -> k2:int -> d0:int -> d1:int -> unit

val size : t -> int

val is_empty : t -> bool

val min_ready : t -> bool
(** Materialize the minimum entry so {!min_time} .. {!min_d1} read it;
    [false] iff the wheel is empty. Idempotent until {!pop}. *)

val min_time : t -> int

val min_k1 : t -> int

val min_k2 : t -> int

val min_d0 : t -> int

val min_d1 : t -> int

val pop : t -> unit
(** Drop the minimum. Only valid after {!min_ready} returned [true]. *)
