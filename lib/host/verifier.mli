(** The path verifier (§6.1): routes supplied by applications are checked
    before entering the PathTable, so a buggy or malicious routing
    function cannot inject traffic onto links outside its permitted
    view.

    Checks compose: structural validity against a topology view, a
    switch allow-list (network virtualization isolation), a hop budget
    (MPLS headroom) and arbitrary custom policies. *)

open Dumbnet_topology
open Types

type violation =
  | Broken_at of int  (** hop index where the view has no such link *)
  | Forbidden_switch of switch_id
  | Too_long of int  (** actual hop count over the budget *)
  | Policy_rejected of string

type t

val create :
  ?allowed_switches:Switch_set.t ->
  ?max_hops:int ->
  ?policies:(string * (Path.t -> bool)) list ->
  view:Adjacency.t ->
  src_loc:link_end ->
  dst_loc:link_end ->
  unit ->
  t

val verify : t -> Path.t -> (unit, violation) result

val pp_violation : Format.formatter -> violation -> unit
