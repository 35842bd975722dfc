(** Hash-consed tag-stack arena: the memory budget for path-graph
    storage at mega-fabric scale.

    A controller that caches a path graph per pushed (src, dst) pair
    holds two tag stacks (primary and backup source routes) per pair —
    and on a fat tree most of those stacks are {e identical} across
    pairs sharing a pod or a core column. This arena interns each
    distinct stack once, packed one byte per tag ({!Types.max_port} is
    254, so a port always fits a byte) in a single growing buffer, and
    hands out dense int handles. Storing handles instead of [port list]
    turns the per-pair cost of a stack from ~3 words per hop into one
    immediate int, with the bytes of each distinct stack paid once for
    the whole fabric.

    Handles are only meaningful against the arena that issued them.
    The arena never forgets a stack, so a handle stays valid for the
    arena's lifetime. Not domain-safe: confine an arena to one domain
    (the controller that owns the ledger). *)

open Types

type t

type handle = int
(** Dense ids: the [i]-th distinct stack interned got handle [i]. *)

val create : ?initial_bytes:int -> unit -> t
(** An empty arena. [initial_bytes] (default 256) sizes the packed
    buffer; it grows by doubling. *)

val intern : t -> port list -> handle
(** The handle of this stack, interning it first if it is new. Equal
    stacks always yield equal handles. Raises [Invalid_argument] if a
    tag is outside [0..max_port] (it would not round-trip a byte). *)

val get : t -> handle -> port list
(** The stack behind a handle (a fresh list). Raises [Invalid_argument]
    on a handle the arena never issued. *)

val length : t -> handle -> int
(** Tag count of the stack, without materializing it. *)

val iter : t -> handle -> (port -> unit) -> unit
(** [iter t h f] applies [f] to each tag in order, allocation-free —
    the hot-path way to walk a stack. *)

val stacks : t -> int
(** Number of distinct stacks interned so far. *)

val bytes : t -> int
(** Packed payload bytes actually used (the sum of all distinct stack
    lengths) — the numerator of the bench's bytes/pair accounting. *)

val interns : t -> int
(** Total {!intern} calls. [interns - stacks] of them were deduplicated
    against an already-present stack. *)

val pp : Format.formatter -> t -> unit
