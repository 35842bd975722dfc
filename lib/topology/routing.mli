(** Host-level routes over a graph's {!Adjacency} snapshot.

    The searches themselves — shortest walks, Yen's k shortest routes,
    the primary-avoiding BFS and the penalized Dijkstra — live in
    {!Adjacency} and run on a snapshot, the ground-truth graph's
    (controller side) or a cached path graph's (host side). All routes
    are loop-free switch sequences. *)

open Types

val primary_penalty : int
(** Weight of a cable joining two switches adjacent on the primary
    route in backup searches (every other cable weighs 1): 100. *)

val backup_route :
  Adjacency.t -> primary:switch_id list -> src:switch_id -> dst:switch_id -> switch_id list option
(** The route [Adjacency.penalized_route ~penalty:primary_penalty
    ~avoid:primary] returns on the snapshot, found by
    {!Adjacency.route_avoiding} whenever a route avoiding the primary's
    cables has fewer than {!primary_penalty} hops, else by that
    Dijkstra itself. [primary] must be loop-free. *)

val host_route :
  ?rng:Dumbnet_util.Rng.t -> Graph.t -> src:host_id -> dst:host_id -> Path.t option
(** Shortest concrete path between two attached hosts,
    {!Adjacency.shortest_route} on [Graph.adjacency g] between their
    access switches; [None] if either host is detached or unreachable.
    [src] and [dst] must differ. *)

val k_host_paths :
  ?rng:Dumbnet_util.Rng.t -> Graph.t -> src:host_id -> dst:host_id -> k:int -> Path.t list
(** Up to [k] concrete paths between two attached hosts:
    {!Adjacency.k_shortest_routes} on [Graph.adjacency g] between their
    access switches. [[]] if either host is detached or unreachable. *)
