(** Host-to-host source routes.

    A path records, for every switch along the way, the output port the
    packet must take — exactly the tag sequence written into the packet
    header (the final ø marker is added by the codec, not stored here). *)

open Types

type t = {
  src : host_id;
  hops : (switch_id * port) list;  (** (switch, output port), in order *)
  dst : host_id;
}

type adjacency = switch_id -> (port * switch_id * port) list
(** Up switch-to-switch adjacency: [(out_port, peer, peer_in_port)].
    Both {!Graph} and path-graph caches provide this view. *)

val length : t -> int
(** Number of switch hops. *)

val tags : t -> port list
(** The output-port tag sequence, one per switch. *)

val switches : t -> switch_id list

val of_route :
  adj:adjacency ->
  src:host_id ->
  src_loc:link_end ->
  dst:host_id ->
  dst_loc:link_end ->
  switch_id list ->
  t option
(** [of_route ~adj ~src ~src_loc ~dst ~dst_loc route] converts an ordered
    switch sequence (starting at [src]'s switch and ending at [dst]'s)
    into a concrete path, choosing for each consecutive switch pair the
    lowest-numbered up link. [None] if the route does not start/end at
    the right switches or a consecutive pair is not adjacent. *)

val of_route_toward :
  toward:(switch_id -> switch_id -> port) ->
  src:host_id ->
  src_loc:link_end ->
  dst:host_id ->
  dst_loc:link_end ->
  switch_id list ->
  t option
(** {!of_route} with the link choice given directly: [toward a b] is
    the out port from [a] to [b], or a negative number if none. *)

val validate : Graph.t -> t -> bool
(** [true] iff walking the graph from [src]'s port with these tags
    traverses only up links and lands exactly on [dst]. This mirrors the
    check a stateless switch chain performs implicitly. *)

val reverse : Graph.t -> t -> t option
(** The path back from [dst] to [src] through the same switches, i.e.
    the tag sequence a probe-message receiver uses to reply. [None] if
    the forward path does not validate. *)

val uses_link : t -> Graph.t -> Link_key.t -> bool
(** Whether the path crosses the given switch-to-switch link. *)

val crosses : t -> Link_key.t -> bool
(** Graph-free variant: [true] iff some hop exits through either end of
    the link. Sufficient for hosts that only know the key of a failed
    link, since a path traversing a cable must exit via one of its two
    ports. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
