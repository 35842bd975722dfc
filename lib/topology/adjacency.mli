(** Compact CSR-style snapshot of a graph's up switch-to-switch
    adjacency.

    The hot paths — the BFS distance tables and the primary-avoiding
    backup search of path-graph generation, Yen's spur scans —
    previously re-walked the graph's port tables and allocated a fresh
    neighbor list per visit. A snapshot packs the same adjacency into
    int arrays once (CSR: a row offset per switch, then per-edge out
    port, peer compact index and peer port), and additionally
    pre-builds the per-switch [(out, peer, peer_in)] lists so the
    {!Path.adjacency} closure interface stays allocation-free per call.
    The array searches below walk those rows by compact index and
    never hash a neighbour.

    Snapshots are generation-stamped: {!Graph.adjacency} rebuilds one
    only when the graph has mutated since (see {!Graph.generation}). A
    snapshot is immutable — mutate the graph, not the snapshot. *)

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
    to them. The per-switch lists are built on each {!neighbors} call
    instead of once. Raises [Invalid_argument] if a cable end is not in
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
(** In increasing port order; [[]] for unknown switches (matching
    {!Graph.switch_neighbors} on an empty view). On a graph snapshot the
    prebuilt list; on an {!of_cables} subgraph a fresh one. *)

val fn : t -> switch_id -> (port * switch_id * port) list
(** The snapshot as a {!Path.adjacency}-shaped function. *)

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
(** Hop distances from [from] over the snapshot, the same values as
    {!Routing.bfs_distances} but computed on int arrays and returned
    as an id-indexed table. An unknown [from] yields [[||]]. *)

(** {1 Primary-avoiding search} *)

type avoiding =
  | Route of switch_id list  (** [src..dst], fewer than [max_hops] hops *)
  | Too_long  (** [dst] is reachable, but only in [max_hops] hops or more *)
  | Unreachable  (** no route avoids the cables, or an endpoint is unknown *)

val route_avoiding :
  t -> avoid:switch_id list -> max_hops:int -> src:switch_id -> dst:switch_id -> avoiding
(** FIFO BFS from [src] over the snapshot minus every cable (parallel
    cables included) joining two switches adjacent on [avoid], a
    loop-free route. Neighbours are visited in {!fn} order and each
    switch keeps the predecessor that discovered it first, so on unit
    weights the route is the one a FIFO-tie-breaking Dijkstra returns.
    The search stops once [dst] is discovered; it costs the
    neighbourhood explored plus three [num_switches]-long scratch
    arrays allocated per call. *)

(** {1 Yen's k shortest routes} *)

val k_shortest_routes :
  ?rng:Dumbnet_util.Rng.t -> t -> src:switch_id -> dst:switch_id -> k:int -> switch_id list list
(** Yen's algorithm: up to [k] distinct loop-free routes [src..dst] in
    nondecreasing length order, ties in the order they were found. Each
    route walks a BFS distance table down from its start, choosing
    among the distinct peers one hop closer (ascending switch id) with
    one [rng] draw per hop — or the lowest id without [rng]. A spur
    search bans the root prefix before the spur and every cable, in
    both directions, between the spur and the next switch of each
    chosen route sharing that root. [src = dst] yields [[[src]]]; an
    unknown endpoint yields [[]]. Scratch arrays are allocated once
    per call, not per spur. *)
