(** Topology partitioner for the sharded discrete-event engine.

    Splits the switches of a fabric into [shards] balanced, connected
    regions with few cut cables: seeds are planted as far apart as
    possible (farthest-point BFS), every region grows {e simultaneously}
    around its seed in round-robin turns (bubble growth), and a greedy
    refinement pass then approximates a METIS-style min-cut. On fat
    trees pods are recovered whole — each seed lands in a distinct pod
    and consumes it before any other region's frontier arrives; on
    jellyfish-style random graphs the same growth is a plain min-cut
    heuristic. The partition is a pure function of the wiring (link
    up/down state is ignored), so failure churn never re-partitions a
    running simulation.

    Everything is deterministic: same graph, same [shards], same
    partition — the sharded engine's determinism contract starts here. *)

open Types

type t = {
  shards : int;  (** number of regions, [1 <= shards <= num_switches] *)
  of_switch : int array;  (** dense [switch_id -> shard] assignment *)
  sizes : int array;  (** switches per shard *)
  cut : Link_key.t list;  (** cables whose two ends live in different
                              shards, in canonical key order *)
}

val compute : Graph.t -> shards:int -> t
(** Partition the graph's switches into [shards] regions. [shards] is
    clamped to [1..num_switches]; [shards = 1] assigns everything to
    region 0 with an empty cut. Hosts are not partitioned — a host
    belongs wherever its access switch lands. *)

val cut_fraction : t -> Graph.t -> float
(** |cut| / |cables| — the quality figure the bench reports. 0 when the
    graph has no switch-to-switch cables. *)
