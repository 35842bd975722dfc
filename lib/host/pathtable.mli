(** The PathTable: the host agent's fast per-destination cache (§5.2).

    For every destination it holds the k shortest paths (for load
    balancing) plus the backup path, and remembers which choice each
    flow is bound to so a flow stays on one path unless a customized
    routing function says otherwise or the path is invalidated by a
    failure notification. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type entry = {
  paths : Path.t list;  (** k shortest, best first; never empty *)
  backup : Path.t option;
}

type t

val create : unit -> t

val size : t -> int

val set : t -> dst:host_id -> entry -> unit
(** Raises [Invalid_argument] on an entry with no paths. *)

val lookup : t -> dst:host_id -> entry option

val remove : t -> dst:host_id -> unit

val paths_to : t -> dst:host_id -> Path.t list
(** All usable paths: the k choices then the backup; [] on a miss. *)

val choose : t -> dst:host_id -> flow:int -> Path.t option
(** The flow's bound path, binding it (by flow-hash over the k choices)
    on first use. Falls back to the backup when all k paths have been
    invalidated, rebinding the flow. *)

type binding = {
  path : Path.t;
  tags : Tag.t list;  (** [path]'s routing tags, ø-terminated, ready for a frame *)
}

val choose_binding : t -> dst:host_id -> flow:int -> binding option
(** {!choose} with the bound path's tag list, built once when the flow
    is bound rather than per packet. *)

val choose_nth : t -> dst:host_id -> n:int -> Path.t option
(** Deterministically pick choice [n mod k] — the hook the flowlet
    routing function uses ([n] is the flowlet id). *)

val invalidate_end : t -> link_end -> int
(** Like {!invalidate_link} when only one end of the failed link is
    known (the usual case for stage-1 notifications): drops every path
    with a hop exiting through that port. *)

val invalidate_link : t -> Link_key.t -> int
(** Drops every cached path crossing the failed link (entries whose
    last path dies fall back to their backup; entries losing everything
    are removed). Flow bindings to dropped paths are forgotten. Returns
    the number of destinations affected. *)

val restore_requires_requery : t -> dst:host_id -> bool
(** [true] when the entry is degraded (lost paths to failures) and the
    host should re-query the controller for a fresh path graph. *)
