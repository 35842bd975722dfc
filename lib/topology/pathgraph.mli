(** Path graphs (paper §4.3, Algorithm 1).

    A path graph is the controller's answer to a host's path query: a
    small subgraph of the topology containing a primary shortest path,
    "s-steps, ε-good" local detours around it, and a backup path sharing
    as few links as possible with the primary. Hosts cache path graphs
    and route within them — including around failed links — without
    contacting the controller again. *)

open Types

type t
(** Immutable once built. Path graphs stamped from one {!body} share its
    switch-level subgraph, so nothing may patch a served graph in place:
    hosts route around failures with the [avoid] overlay of
    {!find_route} and {!k_routes}. *)

val generate :
  ?s:int ->
  ?eps:int ->
  ?rng:Dumbnet_util.Rng.t ->
  ?dist:(from:switch_id -> Adjacency.distances) ->
  Graph.t ->
  src:host_id ->
  dst:host_id ->
  t option
(** Builds the path graph between two attached hosts ([s] defaults to 2,
    [eps] to 1). [None] if either host is detached or unreachable. The
    {!body} of the hosts' two switches, then the {!stamp} of the hosts
    on it: one code path.

    [dist], when given, supplies the BFS distance table for a given
    source switch in place of a fresh BFS — the controller passes its
    memoized per-switch tables here so the O(hosts²) query pattern
    shares them. The provider must return tables that read, through
    {!Adjacency.distance}, the same as {!Adjacency.bfs_distances} on the
    current graph (stale tables produce wrong path graphs — invalidate
    on every mutation), and the returned tables are never written to.

    Cost: each Algorithm 1 window scans its two id-indexed tables side
    by side, and the backup route is a breadth-first search that skips
    the primary's cables and stops at the destination
    ({!Routing.backup_route}); only a backup that cannot avoid the
    primary in under {!Routing.primary_penalty} hops runs the penalized
    Dijkstra ({!Adjacency.penalized_route}) over the whole fabric. *)

(** {1 Body and stamp}

    Without [rng], everything Algorithm 1 computes — the primary route,
    the windows, the backup route and the induced subgraph — depends
    only on the two switches the hosts attach to. Only the host ends of
    the two paths are per host. A batch of queries builds one body per
    switch pair and stamps every query on it. *)

type body
(** The switch-level part of a path graph: primary and backup routes
    and the packed subgraph. Immutable. *)

val body :
  ?s:int ->
  ?eps:int ->
  ?rng:Dumbnet_util.Rng.t ->
  ?dist:(from:switch_id -> Adjacency.distances) ->
  Graph.t ->
  src_sw:switch_id ->
  dst_sw:switch_id ->
  body option
(** Algorithm 1 between two switches, with {!generate}'s parameters.
    [None] if [dst_sw] is unreachable from [src_sw]. Raises
    [Invalid_argument] if [s <= 0] or [eps < 0]. *)

val stamp : Graph.t -> body -> src:host_id -> dst:host_id -> t option
(** The path graph of two hosts on a body's switches: the primary and
    backup routes tagged with the host ends, everything else shared with
    the body. The graph must be the one the body was built on. [None] if
    either host is detached or not attached to the body's switches. *)

val src : t -> host_id

val dst : t -> host_id

val src_loc : t -> link_end
(** Where the source host is attached. *)

val dst_loc : t -> link_end

val primary : t -> Path.t

val backup : t -> Path.t option
(** Absent when no second path exists at all. *)

val switch_count : t -> int
(** Number of switches cached (the Fig 12 storage metric). *)

val link_count : t -> int

val switches : t -> Switch_set.t

val contains_link : t -> Link_key.t -> bool
(** A binary search of the sorted cables. *)

val links : t -> Link_set.t
(** The subgraph's cable set, built on each call. *)

val iter_cables : t -> (switch_id -> port -> switch_id -> port -> unit) -> unit
(** [iter_cables t f] calls [f a.sw a.port b.sw b.port] for each cable,
    lower end first, in wire order. *)

val adjacency : ?avoid:Link_set.t -> t -> Adjacency.t
(** The subgraph's own CSR, or, when [avoid] (the host's failed-link
    overlay) removes a cable, a CSR of the cables left. *)

val find_route : ?rng:Dumbnet_util.Rng.t -> ?avoid:Link_set.t -> t -> Path.t option
(** Best route currently available inside the subgraph minus [avoid]:
    {!Adjacency.shortest_route} on {!adjacency}. *)

val k_routes : ?rng:Dumbnet_util.Rng.t -> ?avoid:Link_set.t -> t -> k:int -> Path.t list
(** Up to [k] distinct loop-free routes within the subgraph minus
    [avoid], shortest first; used to fill the host PathTable:
    {!Adjacency.k_shortest_routes} on {!adjacency}. *)

val reversed : t -> t option
(** The same subgraph serving the opposite direction: endpoints swapped
    and primary/backup recomputed. [None] if no reverse route exists.
    The backup is {!Adjacency.penalized_route} around the reverse
    primary. *)

val count_paths : t -> max_len:int -> cap:int -> int
(** Number of distinct simple src→dst routes of at most [max_len] switch
    hops inside the subgraph, counting at most [cap] (the Fig 12 path
    metric). *)

(** Flat, serialization-friendly form used by the controller's
    path-response messages. *)
type wire = {
  w_src : host_id;
  w_dst : host_id;
  w_src_loc : link_end;
  w_dst_loc : link_end;
  w_primary : Path.t;
  w_backup : Path.t option;
  w_edges : (link_end * link_end) list;  (** each cable once, canonical order *)
}

val to_wire : t -> wire
(** Lists the packed cables. *)

val of_wire : wire -> t
(** Canonicalises the edge list, as a decoder of untrusted bytes must:
    each cable once with its lower end first, sorted, whatever order,
    orientation or repetition the list had; an edge joining a port to
    itself is dropped. *)

val equal : t -> t -> bool
(** Equal wire forms. *)

(** {1 Interned storage form}

    What the controller's push ledger holds at mega-fabric scale: the
    host ends as ints, the primary/backup tag stacks replaced by
    {!Tag_arena} handles, so the source-route stacks are stored once per
    {e distinct} stack fabric-wide instead of once per pair, and the
    graph's own cable array by reference, so every pair stamped from
    one body shares one copy. Converting back through the issuing arena
    is exact: [of_compact a (to_compact a t)] has the same wire form as
    [t]. *)

type compact

val to_compact : Tag_arena.t -> t -> compact
(** Interns the primary and backup tag stacks into the arena. *)

val of_compact : Tag_arena.t -> compact -> t
(** Rebuilds the full path graph. The arena must be the one that built
    the compact (raises [Invalid_argument] on foreign handles). *)

val compact_src : compact -> host_id

val compact_dst : compact -> host_id

val compact_switch_count : compact -> int
(** Distinct switches in the stored subgraph (matches {!switch_count}
    of the rebuilt graph). *)

val compact_cables : compact -> int array
(** The stored cables in {!iter_cables}' layout, four ints each — lets
    a ledger index compacts by cable without rebuilding them. Shared
    with the graph it came from: never write to it. *)

val merge : t -> t -> t
(** Union of the two subgraphs, a merge of their sorted cable arrays;
    primary/backup are taken from the first. When the union is one of
    the two subgraphs, that subgraph is shared, not copied. Requires
    equal (src, dst); raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
