(** Routing algorithms over switch-level adjacency.

    Most functions operate on an abstract {!Path.adjacency} so they run
    both on the ground-truth {!Graph} (controller side) and on a host's
    cached path graph; the array searches (backup routes, Yen's
    k shortest routes) run on an {!Adjacency.t} snapshot. All routes are
    loop-free switch sequences. *)

open Types

val graph_adjacency : Graph.t -> Path.adjacency
(** Adjacency view of a graph (up links only). *)

val bfs_distances : Path.adjacency -> from:switch_id -> (switch_id, int) Hashtbl.t
(** Hop distance from [from] to every reachable switch. *)

val route_via_distances :
  ?rng:Dumbnet_util.Rng.t ->
  Path.adjacency ->
  src:switch_id ->
  dst:switch_id ->
  (switch_id -> int) ->
  switch_id list option
(** Walk from [src] toward [dst] given a distance-to-[dst] accessor (a
    table from [bfs_distances ~from:dst] or {!Adjacency.bfs_distances}
    read through a function; negative means unreachable). The table is
    only read, so one BFS can serve many source switches (the
    controller's distance cache relies on exactly this). Equivalent to
    {!shortest_route} when the table is fresh. *)

val shortest_route :
  ?rng:Dumbnet_util.Rng.t ->
  Path.adjacency ->
  src:switch_id ->
  dst:switch_id ->
  switch_id list option
(** One shortest switch sequence from [src] to [dst] (inclusive). With
    [rng], ties between equal-cost predecessors are broken uniformly at
    random, as the paper's load-balancing path generation requires. *)

val shortest_route_avoiding :
  ?rng:Dumbnet_util.Rng.t ->
  banned_nodes:Switch_set.t ->
  banned_edges:(switch_id * switch_id) list ->
  Path.adjacency ->
  src:switch_id ->
  dst:switch_id ->
  switch_id list option
(** Shortest route that uses neither a banned node nor a banned
    (unordered) switch pair. *)

val weighted_route :
  weight:(link_end -> link_end -> float) ->
  Path.adjacency ->
  src:switch_id ->
  dst:switch_id ->
  switch_id list option
(** Dijkstra with per-link weights, ties broken FIFO; used to
    generate backup paths by penalising links of the primary path. *)

val primary_penalty : int
(** Weight of a cable joining two switches adjacent on the primary
    route in backup searches (every other cable weighs 1): 100. *)

val penalize : switch_id list -> link_end -> link_end -> float
(** [penalize route] is the backup-search weight: {!primary_penalty}
    for a cable whose ends are adjacent on [route], 1 otherwise. *)

val backup_route :
  Adjacency.t -> primary:switch_id list -> src:switch_id -> dst:switch_id -> switch_id list option
(** The route [weighted_route ~weight:(penalize primary)] returns on
    the snapshot, found by {!Adjacency.route_avoiding} whenever a
    route avoiding the primary's cables has fewer than
    {!primary_penalty} hops, else by that Dijkstra itself. [primary]
    must be loop-free. *)

val host_route :
  ?rng:Dumbnet_util.Rng.t -> Graph.t -> src:host_id -> dst:host_id -> Path.t option
(** Shortest concrete path between two attached hosts, [None] if either
    host is detached or unreachable. [src] and [dst] must differ. *)

val k_host_paths :
  ?rng:Dumbnet_util.Rng.t -> Graph.t -> src:host_id -> dst:host_id -> k:int -> Path.t list
(** Up to [k] concrete paths between two attached hosts:
    {!Adjacency.k_shortest_routes} on [Graph.adjacency g] between their
    access switches. [[]] if either host is detached or unreachable. *)
