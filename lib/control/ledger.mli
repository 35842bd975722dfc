(** The controller's push ledger: every path graph it has pushed to a
    host (bootstrap, query responses, repairs), keyed by (src, dst), and
    the inverted index from each cable to the pairs whose generated
    subgraph contains it.

    A failure re-pushes exactly the pairs subscribed to the failed
    cable (§4.2 stage 2 as a delta re-push). Graphs are held in
    {!Dumbnet_topology.Pathgraph.compact} form: tag stacks interned
    into one {!Dumbnet_topology.Tag_arena} (on a fat tree most source
    routes repeat across pairs, so the ledger stores each distinct
    stack once), and the served graph's cable array kept by reference,
    so the pairs stamped from one switch-pair body share it.

    Pairs and cables are keyed by ints: host ids must lie in
    [0, 2{^30}), switch ids in [0, 2{^22}) and ports in [0, 256).
    Every function given an id outside its range raises
    [Invalid_argument] and leaves the ledger unchanged. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type t

val create : unit -> t

val record_push : t -> Pathgraph.t -> unit
(** Remember that this graph is what its (src, dst) pair now holds:
    intern its tag stacks, store the compact form, and subscribe the
    pair to every cable the graph covers. Replaces the pair's previous
    graph and subscriptions. *)

val unsubscribe : t -> host_id * host_id -> unit
(** Forget a pair: drop its graph and its subscriptions. *)

val affected_pairs : t -> Payload.change list -> (host_id * host_id) list
(** The pairs whose recorded graph the deltas invalidate, sorted. A
    failed cable hits exactly its subscribers; a removed switch hits
    every subscriber of its cables; restores and discoveries hit no one
    (recorded graphs stay valid, hosts only gain options by
    re-querying). A failed cable's ids are range-checked. *)

val cached_graph : t -> src:host_id -> dst:host_id -> Pathgraph.t option
(** Rebuilt from the compact form: a fresh value with the same wire
    form as the graph that was recorded. *)

val pairs : t -> int
(** Number of pairs in the ledger. *)

val pair_list : t -> (host_id * host_id) list
(** The ledger's pairs, sorted. *)

val arena : t -> Tag_arena.t

val words : t -> int
(** Heap words reachable from the compact graphs plus the arena — the
    numerator of the ledger's bytes per pair. The subscription index is
    not counted. *)
