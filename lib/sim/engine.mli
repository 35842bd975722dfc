(** Discrete-event engine: a nanosecond clock and a pending-event heap.
    Events scheduled for the same instant run in scheduling order. *)

type t

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

val run : ?until_ns:int -> t -> unit
(** Processes events until no non-daemon events remain. With
    [until_ns], all events (daemons included) up to that time run
    instead and [now] advances to exactly [until_ns]. *)

val pending_regular : t -> int

val pending : t -> int

val events_processed : t -> int
