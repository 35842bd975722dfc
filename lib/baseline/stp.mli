(** Ethernet Spanning Tree Protocol baseline (paper §7.3, Fig 11b).

    Classic STP/RSTP elects a root bridge and blocks every link off the
    tree, so all traffic follows tree paths; after a link failure the
    distributed protocol re-converges over several BPDU rounds before
    traffic flows again. We reproduce exactly what the comparison
    needs: deterministic tree construction (root = lowest bridge id,
    lowest-port tie-breaks), tree-path forwarding, and a re-convergence
    delay model — RSTP-style proposal/agreement sweeping the affected
    region, several milliseconds per round at testbed scale. *)

open Dumbnet_topology
open Types

type t

val build : Graph.t -> t
(** Compute the spanning tree over up links. Raises [Invalid_argument]
    on a graph with no switches. *)

val root : t -> switch_id

val tree_links : t -> Link_key.t list

val blocks : t -> Link_key.t -> bool
(** [true] for up links not on the tree (the ports STP would block). *)

val path : t -> src:host_id -> dst:host_id -> Path.t option
(** The unique tree path between two hosts. *)

val routing_fn : t ref -> Dumbnet_host.Agent.routing_fn
(** Forward along the current tree (dereferenced per packet, so
    experiments swap in the re-converged tree after the delay). *)

val bpdu_round_ns : int
(** One proposal/agreement wave (hello processing + propagation). *)

val convergence_delay_ns : Graph.t -> int
(** Modelled re-convergence time after a failure: rounds proportional
    to the tree depth, each costing {!bpdu_round_ns}. *)
