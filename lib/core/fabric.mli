(** One-call fabric assembly: the public entry point of the library.

    [create] takes a built topology, instantiates the simulated network,
    runs host-driven topology discovery from the designated controller
    host, starts the controller service on the discovered view, and
    pushes the bootstrap state (controller location, flood-peer lists,
    path graphs) to every host — leaving a fully operational DumbNet
    fabric ready to carry traffic, lose links, and recover. *)

open Dumbnet_topology
open Dumbnet_topology.Types
open Dumbnet_sim
open Dumbnet_host

type t

val create :
  ?config:Network.config ->
  ?seed:int ->
  ?k:int ->
  ?s:int ->
  ?eps:int ->
  ?jobs:int ->
  ?replicas:int ->
  ?coalesce_ns:int ->
  ?packet_level_discovery:bool ->
  Builder.built ->
  t
(** Raises [Failure] if discovery cannot reach the fabric (controller
    host detached). [k]: paths cached per destination (default 4);
    [s]/[eps]: Algorithm-1 knobs; [jobs] (default 1): the controller's
    path-graph batch parallelism — bootstrap and post-failure pushes
    fan out over that many domains, with answers byte-identical to
    [jobs = 1]; [coalesce_ns] tunes the controller's
    incremental failure repair (see {!Dumbnet_host.Controller.create});
    [packet_level_discovery] sends real probe frames through the
    simulator instead of using the fast oracle (identical protocol,
    much slower — for small fabrics). *)

val engine : t -> Engine.t

val network : t -> Network.t

val controller : t -> Controller.t

val discovery : t -> Dumbnet_control.Discovery.result

val hosts : t -> host_id list

val controller_host : t -> host_id

val agent : t -> host_id -> Agent.t
(** Raises [Not_found] for unknown hosts. *)

val rng : t -> Dumbnet_util.Rng.t

val now_ns : t -> int

val run : ?for_ns:int -> t -> unit
(** Advance the simulation: to quiescence, or by [for_ns]. *)

val send : t -> src:host_id -> dst:host_id -> ?flow:int -> ?seq:int -> size:int -> unit ->
  Agent.send_result

val fail_link : t -> link_end -> unit

val restore_link : t -> link_end -> unit
