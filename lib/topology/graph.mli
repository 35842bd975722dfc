(** Mutable fabric topology: switches with numbered ports, hosts attached
    to switch ports, and switch-to-switch links that can be up or down.

    This structure is the ground truth the simulator runs on, and also the
    representation the controller reconstructs through discovery and that
    hosts cache as path graphs. *)

open Types

type t

val create : unit -> t

(** {1 Construction} *)

val add_switch : t -> ports:int -> switch_id
(** Adds a switch with ports numbered [1..ports]. Ids are dense and
    assigned in creation order starting at 0. Raises [Invalid_argument]
    if [ports] exceeds {!Types.max_port} or is not positive, or the next
    id exceeds {!Types.max_switch_id}. *)

val add_host : t -> host_id
(** Adds an unattached host. Ids are dense from 0. Raises
    [Invalid_argument] past {!Types.max_host_id}. *)

val add_switch_with_id : t -> id:switch_id -> ports:int -> unit
(** Adds a switch under a caller-chosen id — used when reconstructing a
    topology from discovered identities. Raises [Invalid_argument] if
    the id is taken or outside [0..]{!Types.max_switch_id}, so an id the
    push ledger cannot key is refused here, where it enters the model.
    Mixing with {!add_switch} is safe: automatic ids skip past explicit
    ones. *)

val add_host_with_id : t -> id:host_id -> unit
(** As {!add_switch_with_id}, for a host: ids outside
    [0..]{!Types.max_host_id} raise [Invalid_argument]. *)

val connect : t -> link_end -> link_end -> unit
(** Cables two switch ports together. Raises [Invalid_argument] if either
    port is occupied, out of range, or both ends are the same port. *)

val attach_host : t -> host_id -> link_end -> unit
(** Plugs a host into a switch port. A host has exactly one NIC; raises
    [Invalid_argument] if the host is already attached or the port is
    occupied. *)

val remove_link : t -> link_end -> unit
(** Unplugs whatever is cabled at that port (both ends). No-op if the
    port is empty. *)

(** {1 Interrogation} *)

val num_switches : t -> int

val num_hosts : t -> int

val switch_ids : t -> switch_id list

val host_ids : t -> host_id list

val ports_of : t -> switch_id -> int
(** Number of ports on the switch. Raises [Not_found] for unknown ids. *)

val endpoint_at : t -> link_end -> endpoint option
(** What is plugged into this port, regardless of link state. [None] if
    the port is empty or out of range. *)

val peer_port : t -> link_end -> link_end option
(** For a switch-to-switch link, the other end. *)

val host_location : t -> host_id -> link_end option
(** Where the host is plugged in. *)

val hosts_on_switch : t -> switch_id -> (port * host_id) list

val neighbors : t -> switch_id -> (port * endpoint) list
(** All occupied ports whose link is up, in increasing port order. *)

val switch_neighbors : t -> switch_id -> (port * switch_id * port) list
(** Up switch-to-switch adjacency: [(out_port, peer, peer_in_port)]. *)

(** {1 Link state} *)

val link_up : t -> link_end -> bool
(** [true] iff the port is cabled and the link is administratively up. *)

val port_link_up : t -> switch_id -> port -> bool
(** Same as {!link_up} without building a [link_end] — for per-hop
    checks on the simulator's forwarding path. *)

val port_state_fn : t -> switch_id -> port -> bool
(** [port_state_fn t sw] is a reader equivalent to [port_link_up t sw]
    with the switch lookup done once. The closure shares the graph's
    own port table, so it stays current across link flaps and
    re-cabling of this switch. Raises [Invalid_argument] for unknown
    switches. *)

val set_link_state : t -> link_end -> up:bool -> unit
(** Marks the link at this port (both ends see it) up or down. Raises
    [Invalid_argument] on an empty port. *)

val links : t -> (link_end * endpoint * bool) list
(** Every cable once: [(one_end, other_endpoint, up)]. Switch-switch
    links are reported from their canonical lower end. *)

val switch_links : t -> (Link_key.t * bool) list
(** Switch-to-switch cables with their state. *)

(** {1 Snapshots and generations} *)

val generation : t -> int
(** Bumped on every mutation (cabling, hosts, link state). Cached
    derived structures — {!Adjacency.t} snapshots, the controller's
    BFS distance maps — compare generations to know when to rebuild. *)

val wiring_generation : t -> int
(** Bumped only when the cabling itself changes (connect, attach,
    remove, new switch) — link up/down flaps leave it alone, so
    port-indexed caches that ignore link state survive failure churn. *)

val adjacency : t -> Adjacency.t
(** The graph's up switch-to-switch adjacency as a CSR snapshot,
    rebuilt only if the graph mutated since the last call. The snapshot
    reflects this instant — do not hold it across mutations. *)

(** {1 Whole-graph operations} *)

val copy : t -> t

val equal : t -> t -> bool
(** Structural equality: same switches, ports, hosts, cables and link
    states. *)

val connected : t -> bool
(** [true] iff all switches are mutually reachable over up links (the
    empty graph is connected). *)

val pp : Format.formatter -> t -> unit
