(** Sharded discrete-event engine with conservative lookahead.

    The classic {!Engine}/{!Network} pair runs one global binary heap;
    this module partitions the fabric ({!Dumbnet_topology.Partition}) so
    each shard owns its switches' egress state, its hosts, a private
    timing wheel ({!Wheel}) and a private
    {!Dumbnet_packet.Frame_pool}. Shards only interact through cable
    propagation: every cross-shard delivery is at least [lookahead = propagation_ns + switch_latency_ns] in the
    future (hosts co-shard with their access switch, so every cut
    crossing is a switch-to-switch cable), which makes windows of that
    width safe to run concurrently with no rollback — textbook
    conservative-lookahead PDES. Cross-shard frames are batched into
    per-edge mailboxes and exchanged at window boundaries.

    {2 Determinism contract}

    The run is {e byte-identical for any shard count and any pool
    size}: every event carries a partition-invariant key
    [(arrival_time, charge_time, origin*2^32 + per-origin counter)],
    each shard processes its events in key order, and same-window
    events in different shards touch disjoint state. [shards = 1] is a
    dedicated fast path — one wheel, no windows, no mailboxes, zero
    minor allocations per hop ([bench perf] gates
    [minor_words_per_hop <= 1]) — and higher shard counts reproduce
    its results exactly, property-tested in [test_sharded.ml].

    {2 Scope}

    The sharded engine runs the paper's {e data-plane} workloads:
    pre-injected tag-routed frames (with optional INT stamping),
    drop-tail queues, NIC pacing, and scheduled link failures/restores
    applied at global barriers. Control-plane machinery — probe
    programs, monitors, floods, ECN echo — stays on the classic
    engine, which remains untouched. *)

open Dumbnet_topology
open Types

type t

val default_shards : unit -> int
(** [DUMBNET_SHARDS] if set to a positive integer, else 1. *)

val create :
  ?config:Network.config ->
  ?shards:int ->
  graph:Graph.t ->
  unit ->
  t
(** Partition [graph] and build the per-shard state. [shards] defaults
    to {!default_shards}. Raises [Invalid_argument] if [shards > 1]
    while [propagation_ns + switch_latency_ns = 0] — zero lookahead
    means no safe window exists. The graph is snapshotted: mutate it afterwards
    and the simulation will not notice. *)

val shards : t -> int

val partition : t -> Partition.t

val lookahead_ns : t -> int

val inject :
  t ->
  at_ns:int ->
  src:host_id ->
  dst:host_id ->
  tags:port list ->
  ?payload_bytes:int ->
  ?int_enabled:bool ->
  unit ->
  unit
(** Queue one tag-routed frame from [src]'s NIC at [at_ns] (subject to
    the NIC's pacing gap, as {!Network.host_send}). A detached source
    or a downed access link silently sends nothing, mirroring the
    classic engine. [payload_bytes] defaults to 1000. Raises
    [Invalid_argument] after {!run}, for unknown hosts, or for tags
    outside [1..max_port]. *)

val fail_link_at : t -> at_ns:int -> link_end -> unit
(** Schedule a link failure: both directions go down at [at_ns],
    applied as a global barrier before any event at or after that
    instant. Frames already on the wire still arrive (as in the
    classic engine, where link state is read at the forwarding
    decision); frames routed over the dead link afterwards drop.
    Raises [Invalid_argument] on an uncabled port or after {!run}. *)

val restore_link_at : t -> at_ns:int -> link_end -> unit

val run : ?pool:Dumbnet_util.Pool.t -> t -> unit
(** Run to completion. With [shards = 1], or without a pool, or with a
    one-job pool, everything runs on the caller; a pool with [j > 1]
    jobs executes each window's shards concurrently via
    {!Pool.run_chunks} — results are byte-identical either way. A
    second [run] is a no-op. *)

(** {1 Results} *)

val stats : t -> Network.stats
(** Aggregated over shards (a fresh record; ECN / silent-drop / mirror
    counters are always 0 — out of the sharded engine's scope). *)

val hops : t -> int
(** Total switch forwarding decisions — the [bench perf] numerator. *)

val delivered : t -> int

val injected : t -> int

val digest : t -> int
(** Order-sensitive fold over every delivered frame (arrival time,
    endpoints, size, remaining tags, full INT stamp list), folded
    per-host then combined in host-id order — identical across shard
    counts iff the runs delivered identical frame streams. *)

val live_slots : t -> int
(** Frame-pool slots still acquired after {!run} — 0 when every frame
    was delivered or dropped (leak check for the pool tests). *)
