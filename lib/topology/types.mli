(** Identifiers shared across the fabric.

    Ports are numbered from 1 as in the paper: tag [0] is reserved for
    the switch-ID query and [0xFF] encodes the end-of-path marker, so a
    switch can expose at most 254 ports. *)

type switch_id = int

type host_id = int

type port = int

type endpoint =
  | Switch of switch_id
  | Host of host_id

val max_port : int
(** Highest usable port number (254). *)

val max_switch_id : int
(** Highest switch id a topology accepts (2{^22} - 1), so a cable
    [a.sw a.port b.sw b.port] packs into one int key. *)

val max_host_id : int
(** Highest host id a topology accepts (2{^30} - 1), so a host pair
    packs into one int key. *)

val pp_endpoint : Format.formatter -> endpoint -> unit

val equal_endpoint : endpoint -> endpoint -> bool

(** A link end: one side of a cable plugged into a switch. *)
type link_end = { sw : switch_id; port : port }

val pp_link_end : Format.formatter -> link_end -> unit

(** Canonical (order-independent) key of a switch-to-switch link, usable
    in sets and as a hashtable key. *)
module Link_key : sig
  type t

  val make : link_end -> link_end -> t

  val ends : t -> link_end * link_end

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

module Link_set : Set.S with type elt = Link_key.t

module Switch_set : Set.S with type elt = switch_id
