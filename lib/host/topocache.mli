(** The TopoCache: per-destination path graphs aggregated from controller
    responses (§5.2), with a failure overlay maintained from stage-1
    notifications so cached subgraphs route around breakage before any
    controller patch arrives.

    A notification names only one end of the failed link (switch and
    port); the overlay therefore tracks failed {e ends}, and each cached
    path graph resolves an end to its own edge when routing. *)

open Dumbnet_topology
open Types

type t

val create : ?k:int -> rng:Dumbnet_util.Rng.t -> unit -> t
(** [k] (default 4) is how many shortest paths are materialized per
    destination for the PathTable. *)

val k : t -> int

val insert : t -> Pathgraph.t -> unit
(** Merge the controller's response with anything already cached for
    that destination. *)

val get : t -> dst:host_id -> Pathgraph.t option

val known : t -> host_id list

val switch_footprint : t -> int
(** Total switches across all cached path graphs (the Fig 12 cost
    metric at host level). *)

val note_end : t -> link_end -> up:bool -> unit
(** Update the failure overlay from a notification. *)

val failed_ends : t -> link_end list

val resolve_end : t -> link_end -> link_end option
(** Search cached subgraphs for the other end of the link at this port —
    what lets the PathTable drop paths crossing it from either side. *)

val materialize : t -> dst:host_id -> Pathtable.entry option
(** Up to k equal-cost shortest routes (longer routes would waste
    capacity if load-balanced onto) + backup inside the cached subgraph,
    skipping failed links. [None] if nothing is cached or the subgraph
    is fully broken. *)

val reveal : t -> dst:host_id -> Adjacency.t option
(** The extension interface of §6.1: expose the cached (overlay-
    filtered) topology view to an application that wants to run its own
    routing function. *)
