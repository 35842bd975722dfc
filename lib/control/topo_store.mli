(** The controller's authoritative view of the fabric (§4.2 stage 2).

    Holds the discovered topology, applies deduplicated link events to
    it, accumulates the resulting deltas, and emits them as versioned
    topology-patch messages. Serves path-graph queries from the same
    view. Link-up events for ports the store has no cable for cannot be
    resolved locally — the controller must re-probe, so they are handed
    back as [Needs_probe]. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type t

val create : Graph.t -> t
(** Takes its own copy of the graph. *)

val graph : t -> Graph.t

val version : t -> int
(** Incremented once per emitted patch. *)

type outcome =
  | Applied  (** the store changed and a delta was queued *)
  | Ignored  (** duplicate or consistent with current state *)
  | Needs_probe of link_end  (** port-up on an unknown cable: re-probe *)

val apply_event : t -> Payload.link_event -> outcome
(** Raises [Invalid_argument] while a path-graph batch is in flight
    (see {!serve_path_graphs}'s single-writer rule).

    An applied event repairs the memoized distance cache {e in place}
    instead of resetting it: a failed cable evicts only the tables it
    is tight for (both ends reachable, one hop apart), a restored or
    new cable only the tables it could shorten. Both rules are checked
    against the cached tables when the event arrives, so the cache keeps
    no per-cable index. Retained tables are provably byte-identical to
    a fresh BFS on the mutated graph. See {!repair_stats} for the
    eviction/retention counters. *)

val record_discovered_link : t -> link_end -> link_end -> unit
(** Result of re-probing after [Needs_probe]: a brand-new cable. Either
    port being occupied raises [Invalid_argument], as does calling
    during a path-graph batch. *)

val take_patch : t -> Payload.t option
(** Drains pending deltas into a [Topo_patch] (bumping the version);
    [None] when nothing changed since the last patch. *)

val apply_patch : Graph.t -> Payload.change list -> unit
(** Replays patch deltas onto some other party's topology copy (replica
    catch-up, host-side full views). Unknown elements are ignored — a
    patch can reference switches a stale view never saw. *)

val serve_path_graph : ?s:int -> ?eps:int -> t -> src:host_id -> dst:host_id -> Pathgraph.t option
(** Answer a host's path query from the current view. Queries share
    memoized per-switch BFS distance tables, so bursts of queries (the
    bootstrap push, the post-failure re-query storm) cost one BFS per
    distinct switch instead of one per query. The tables are repaired on
    every applied event or discovered link ({!apply_event}) and dropped
    on any other graph mutation, so answers are always identical to a
    fresh {!Pathgraph.generate} without [rng]. Implemented as a one-item
    {!serve_path_graphs} batch — there is exactly one code path. *)

val serve_path_graphs :
  ?s:int ->
  ?eps:int ->
  ?pool:Dumbnet_util.Pool.t ->
  t ->
  (host_id * host_id) array ->
  Pathgraph.t option array
(** Answer a whole batch of [(src, dst)] queries, optionally in
    parallel over [pool]'s worker domains. The batch is grouped by
    (source switch, destination switch): each distinct pair's
    {!Pathgraph.body} is built once, and every query is then stamped on
    its pair's body, sharing it read-only. Bodies are dropped when the
    batch returns. Results align with the input by index and are
    byte-identical to serving each query alone with
    {!Pathgraph.generate}, whatever the pool size or domain scheduling:

    - the graph and the shared distance cache are frozen for the whole
      batch (the single-writer rule below) and every domain reads the
      same CSR adjacency snapshot;
    - each worker builds a disjoint contiguous slice of the bodies with
      a private distance-cache shard, so the hot distance lookup takes
      no lock; shards are folded back into the shared cache after every
      worker has joined (BFS is deterministic, so duplicated entries
      are identical).

    {b Single-writer rule}: while a batch is in flight the store
    accepts no mutation — {!apply_event}, {!record_discovered_link},
    {!invalidate_dist_cache} and nested batches raise
    [Invalid_argument]. Since the batch call itself blocks the caller,
    this can only trigger from another domain or a re-entrant callback,
    both programming errors. {!dist_cache_stats}, {!version} and
    {!in_batch} remain safe to call at any time. *)

val in_batch : t -> bool
(** [true] while a {!serve_path_graphs} batch is in flight. *)

val distances : t -> from:switch_id -> Adjacency.distances
(** The memoized BFS distance table from one switch (read-only): an
    int array indexed by switch id, [-1] for unreachable, read through
    {!Adjacency.distance} so that ids beyond its length read as
    unreachable too. A table retained by scoped repair therefore stays
    valid across a snapshot rebuild. Counts as a cache writer: raises
    [Invalid_argument] during a batch. *)

val invalidate_dist_cache : t -> unit
(** Drop {e all} memoized distance tables unconditionally. Callers never
    need this for correctness — {!apply_event} repairs in place and
    out-of-band graph mutations are caught by the generation check —
    it remains for tests and explicit resets. Counts as a full reset
    in {!repair_stats}. Raises [Invalid_argument] while a batch is in
    flight (single-writer rule). *)

val dist_cache_stats : t -> int * int
(** [(hits, misses)] of the distance cache since creation. Safe to call
    at any time, including while a batch is in flight — the counters
    are folded in only after every worker has joined. *)

(** Counters of the incremental distance-cache repair machinery. *)
type repair_stats = {
  repair_events : int;  (** switch-link events repaired in place *)
  evicted_roots : int;  (** memoized tables dropped by scoped eviction *)
  retained_roots : int;  (** tables that provably survived an event *)
  full_resets : int;
      (** wholesale cache drops: explicit {!invalidate_dist_cache} calls
          or out-of-band graph mutations the repair could not scope *)
}

val repair_stats : t -> repair_stats

val cached_roots : t -> int
(** Number of per-switch BFS tables currently memoized. *)
