(** The controller service: an ordinary host agent with the global view
    wired in (§4).

    It owns a {!Dumbnet_control.Topo_store}, answers path queries,
    applies link events it hears (stage 1) and floods versioned topology
    patches (stage 2), journals every change through the replica cluster
    standing in for ZooKeeper, and — at bootstrap — pushes each host its
    identity, flood-peer list, the path graph to the controller, and
    path graphs to its flood peers. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type t

val create :
  ?replicas:int ->
  ?s:int ->
  ?eps:int ->
  ?jobs:int ->
  ?query_service_ns:int ->
  ?coalesce_ns:int ->
  agent:Agent.t ->
  topology:Graph.t ->
  hosts:host_id list ->
  unit ->
  t
(** [topology] is the discovered view (the store copies it); [hosts] are
    the fabric's hosts (self excluded automatically). [replicas]
    (default 3) sizes the stand-in ZooKeeper ensemble; [s]/[eps] are the
    Algorithm-1 path-graph knobs used for every response.
    [jobs] (default 1) is the controller's path-graph parallelism: the
    bootstrap push and every post-failure re-push batch their queries
    through a domain pool of that size
    ({!Dumbnet_control.Topo_store.serve_path_graphs}) — when the batch
    is large enough to amortize the spawns
    ({!Dumbnet_util.Pool.worthwhile}); smaller batches run inline.
    Answers are byte-identical whatever the value; [jobs = 1] never
    spawns a domain. [query_service_ns] (default 40 µs) is the
    controller's per-query service time for {e interactive} queries —
    those still queue in arrival order (the Fig 10 tail).

    [coalesce_ns] (default off) arms burst coalescing: an applied link
    event schedules the patch flush that many simulated nanoseconds
    out instead of flushing inline, so every event landing inside the
    window leaves as one combined patch and one delta re-push. With it
    unset, each applied event patches immediately (the historical
    behavior). *)

val jobs : t -> int
(** The controller's batch parallelism (1 = sequential). *)

val agent : t -> Agent.t

val store : t -> Dumbnet_control.Topo_store.t

val replicas : t -> Payload.change Dumbnet_control.Replica.t

val bootstrap_push : t -> unit
(** Send every host: [Controller_hello], its [Peer_list], the host→
    controller path graph, and host→peer path graphs for its overlay. *)

val flood_peers_of : t -> host_id -> host_id list
(** Hosts on the same switch, then on adjacent switches (capped). *)

val serve : t -> src:host_id -> dst:host_id -> Pathgraph.t option
(** Compute a path-graph response (also used as the agent's local path
    service). *)

val patches_sent : t -> int

(** {1 Incremental failure repair}

    The controller keeps a {!Dumbnet_control.Ledger} of every path
    graph it has pushed (bootstrap, interactive query responses,
    repairs) and an inverted index from each cable to the pairs whose
    generated subgraph contains it. A failure patch regenerates and re-sends {e only} the
    subscribed pairs — one batch, pooled when worthwhile — leaving
    every untouched pair's cache live; restore/discovery patches
    re-push nothing. *)

type repush_stats = {
  repair_rounds : int;  (** patches that carried a delta re-push *)
  repushed_pairs : int;  (** cumulative pairs regenerated and re-sent *)
  cached_pairs : int;  (** pairs currently in the ledger *)
  regen_s : float;
      (** cumulative wall seconds recomputing affected path graphs *)
  push_s : float;
      (** cumulative wall seconds re-recording and sending the results *)
}

val repush_stats : t -> repush_stats

val cached_pairs : t -> (host_id * host_id) list
(** The ledger's pairs, sorted — the delta re-push's universe. *)

val cached_graph : t -> src:host_id -> dst:host_id -> Pathgraph.t option
(** The graph the controller last pushed for a pair, rebuilt from the
    ledger's interned form: same wire form as what was sent. *)

val set_prober : t -> Dumbnet_control.Discovery.prober -> unit
(** Arm the probing subsystem used to rediscover newly-added cables
    (§4.2): on a port-up for an unknown port, the controller scans the
    candidate return ports of the new neighbour with targeted
    F·p·0·q·R·ø probes, records the confirmed link and patches all
    hosts. {!Fabric.create} arms it automatically. *)

val start_heartbeats : ?interval_ns:int -> t -> standbys:host_id list -> unit
(** Periodically re-announce [Controller_hello] to the standby replicas
    (default every 100 ms) so they can detect the primary's death.
    Runs for the lifetime of the simulation. *)

(** {1 Packet-level discovery} *)

val packet_prober : agent:Agent.t -> Dumbnet_control.Discovery.prober
(** A {!Dumbnet_control.Discovery.prober} that sends real probe frames
    from this agent through the simulator and runs the engine to
    quiescence to collect the response — the fully in-protocol
    (testbed-style) discovery path. Every other host must already run
    an agent so probes get answered. *)

val discover :
  ?packet_level:bool -> agent:Agent.t -> max_ports:int -> unit ->
  Dumbnet_control.Discovery.result option
(** Run full discovery from this agent's host: packet-level (real
    frames) or, by default, against the fast {!Dumbnet_control.Probe_walk}
    oracle on the ground-truth graph — both execute the identical BFS
    protocol. *)
