(** Compact CSR-style snapshot of a graph's up switch-to-switch
    adjacency, and every route search that runs on one.

    A snapshot packs the adjacency into int arrays once (CSR: a row
    offset per switch, then per-edge out port, peer compact index and
    peer port, each row in port order). It is the one graph view the
    route searches read: the controller's BFS distance tables and
    Algorithm 1's primary and backup routes on a {!Graph.adjacency}
    snapshot, a host's failover routes and Yen's k shortest routes on a
    cached path graph's packed subgraph ({!of_cables}). The searches
    walk rows by compact index and never hash a neighbour.

    Graph snapshots are generation-stamped: {!Graph.adjacency} rebuilds
    one only when the graph has mutated since (see {!Graph.generation}).
    A snapshot is immutable — mutate the graph, not the snapshot. *)

open Types

type t

val build : generation:int -> (switch_id * (port * switch_id * port) list) list -> t
(** [build ~generation per_switch] packs the per-switch up-neighbor
    lists (strictly ascending switch id, port order within each list)
    into a snapshot. Called by {!Graph.adjacency}. *)

val of_cables : switches:switch_id array -> int array -> t
(** [of_cables ~switches cables] packs a subgraph: [switches] strictly
    ascending, [cables] four ints per cable ([a.sw a.port b.sw b.port]).
    Each cable enters both ends' rows, and each row is sorted by out
    port. Both arrays are kept, not copied: the caller must never write
    to them. Raises [Invalid_argument] if a cable end is not in
    [switches]. The generation is 0. *)

val induced : t -> Bytes.t -> int array
(** [induced t mark] is every cable whose two ends are marked (a byte
    other than ['\000'] at the switch id's offset in [mark]; ids past
    its end are unmarked), in {!of_cables}' layout: each cable once,
    lower end (by switch, then port) first, sorted. *)

val generation : t -> int
(** The graph generation this snapshot was built from. *)

val num_switches : t -> int

val num_edges : t -> int
(** Directed edge slots: each up cable counts once per direction. *)

val id_bound : t -> int
(** One past the highest switch id, [0] for an empty snapshot. *)

val neighbors : t -> switch_id -> (port * switch_id * port) list
(** [(out_port, peer, peer_in_port)] in increasing port order, built on
    each call; [[]] for unknown switches (matching
    {!Graph.switch_neighbors} on an empty view). *)

val peer_at : t -> link_end -> link_end option
(** The far end of the cable leaving at this out port, [None] if the
    snapshot has none there. *)

val lowest_port_toward : t -> switch_id -> switch_id -> port
(** The lowest out port of a cable from the first switch to the
    second, [-1] if there is none. *)

(** {1 Distance tables} *)

type distances = int array
(** Hop distances from one root, indexed by switch id: [-1] marks an
    unreachable switch, and so does any id at or beyond the array's
    length — so a table stays readable for ids a later snapshot adds. *)

val distance : distances -> switch_id -> int
(** [distance d sw] is [d.(sw)], or [-1] when [sw] is out of range. *)

val bfs_distances : t -> from:switch_id -> distances
(** Hop distances from [from] over the snapshot, as an id-indexed
    table. An unknown [from] yields [[||]]. *)

(** {1 Shortest routes} *)

val shortest_route :
  ?rng:Dumbnet_util.Rng.t ->
  ?dist:distances ->
  t ->
  src:switch_id ->
  dst:switch_id ->
  switch_id list option
(** One shortest switch sequence [src..dst]: a walk from [src] down the
    hop distances to [dst], choosing among the distinct peers one hop
    closer (ascending switch id) with one [rng] draw per hop, even for
    a lone candidate — or the lowest id without [rng]. This is the walk
    every {!k_shortest_routes} route takes too. [dist], the table of
    [bfs_distances ~from:dst], is only read, so one BFS can serve many
    sources (the controller's distance cache relies on this); without
    it a BFS from [dst] runs until it reaches [src]. [src = dst] yields
    [Some [src]]; an unknown endpoint or no route yields [None]. *)

(** {1 Primary-avoiding search} *)

type avoiding =
  | Route of switch_id list  (** [src..dst], fewer than [max_hops] hops *)
  | Too_long  (** [dst] is reachable, but only in [max_hops] hops or more *)
  | Unreachable  (** no route avoids the cables, or an endpoint is unknown *)

val route_avoiding :
  t -> avoid:switch_id list -> max_hops:int -> src:switch_id -> dst:switch_id -> avoiding
(** FIFO BFS from [src] over the snapshot minus every cable (parallel
    cables included) joining two switches adjacent on [avoid], a
    loop-free route. Neighbours are visited in port order and each
    switch keeps the predecessor that discovered it first, so on unit
    weights the route is the one {!penalized_route} returns. The search
    stops once [dst] is discovered; it costs the neighbourhood explored
    plus three [num_switches]-long scratch arrays allocated per call. *)

val penalized_route :
  t -> penalty:int -> avoid:switch_id list -> src:switch_id -> dst:switch_id -> switch_id list option
(** Dijkstra from [src] to [dst] where a cable joining two switches
    adjacent on the loop-free route [avoid] weighs [penalty] and every
    other cable 1. Ties pop first in, first out, and each switch relaxes
    its cables in port order. [src = dst] yields [Some [src]]; an
    unknown endpoint or no route yields [None]. *)

(** {1 Yen's k shortest routes} *)

val k_shortest_routes :
  ?rng:Dumbnet_util.Rng.t -> t -> src:switch_id -> dst:switch_id -> k:int -> switch_id list list
(** Yen's algorithm: up to [k] distinct loop-free routes [src..dst] in
    nondecreasing length order, ties in the order they were found. Each
    route takes {!shortest_route}'s walk from its start. A spur
    search bans the root prefix before the spur and every cable, in
    both directions, between the spur and the next switch of each
    chosen route sharing that root. [src = dst] yields [[[src]]]; an
    unknown endpoint yields [[]]. Scratch arrays are allocated once
    per call, not per spur. *)
