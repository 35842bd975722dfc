(** Discrete-event engine: a nanosecond clock, a pending-event heap and
    fixed-delay lines. Events scheduled for the same instant run in
    scheduling order, wherever they wait. *)

type t

type line
(** A FIFO for events that all wait the same delay — the host NIC
    stack's transmit and receive latencies. Its due times only
    increase, so it needs no heap; an event on a line fires exactly
    when it would have fired on the heap. *)

type tally
(** Arrivals whose only effect is to be counted: no closure runs when
    one falls due. Each is an event all the same — it counts in
    {!pending} and {!pending_regular} until it falls due and in
    {!events_processed} after, it keeps {!run} alive (so daemons due
    before it still fire), a bounded run cuts it off like any event,
    and a run that fires it ends with the clock at least at its
    time. *)

val create : unit -> t

val now : t -> int
(** Current simulated time in nanoseconds. *)

val schedule : t -> delay_ns:int -> (unit -> unit) -> unit
(** Raises [Invalid_argument] on negative delays. *)

val schedule_at : t -> at_ns:int -> (unit -> unit) -> unit
(** Raises [Invalid_argument] if [at_ns] is in the simulated past. *)

val schedule_daemon : t -> delay_ns:int -> (unit -> unit) -> unit
(** Like {!schedule}, but daemon events do not keep {!run} alive: a run
    without [until_ns] stops once only daemon events remain (heartbeats,
    watchdogs — anything periodic that would otherwise make
    run-to-idle loop forever). Daemons scheduled before pending regular
    events still fire in time order. *)

val line : t -> delay_ns:int -> line
(** The engine's line for this delay, made on first use (one per
    distinct delay). Raises [Invalid_argument] on a negative delay. *)

val schedule_line : line -> (unit -> unit) -> unit
(** [schedule_line l f] is [schedule eng ~delay_ns f] for [l]'s engine
    and delay, in the same order as the heap events around it. *)

val tally : t -> tally
(** A new, empty tally on this engine. *)

val tally_at : tally -> at_ns:int -> unit
(** Record an arrival at [at_ns], ordered after every event scheduled
    so far at that instant. Raises [Invalid_argument] if [at_ns] is in
    the simulated past. *)

val tallied : tally -> int
(** The tally's arrivals that have fallen due: read inside an event,
    those ordered before it. *)

val run : ?until_ns:int -> t -> unit
(** Processes events until no non-daemon events remain. With
    [until_ns], all events (daemons included) up to that time run
    instead and [now] advances to exactly [until_ns]. *)

val pending_regular : t -> int

val pending : t -> int
(** Events waiting on the heap, on every line and in every tally,
    daemons included. *)

val events_processed : t -> int
