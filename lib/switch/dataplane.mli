(** The dumb switch data plane (paper §3.1, §5.3).

    A DumbNet switch does exactly three things: forward packets by the
    first routing tag (no table lookup), answer ID queries, and flood
    hop-limited port notices. It keeps no forwarding state, so the whole
    data plane is a pure function from an arriving frame to actions; the
    only inputs besides the frame are the physical port states the
    hardware can observe directly. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type drop_reason =
  | No_tags  (** a 0x9800 frame with an empty tag stack *)
  | Path_ended_at_switch  (** first tag was ø but switches host no stacks *)
  | Port_down of port
  | Port_out_of_range of port
  | Untagged  (** plain Ethernet: a dumb switch has no tables to forward it *)
  | Ttl_expired  (** a port notice whose hop budget is spent *)

type action =
  | Forward of port * Frame.t  (** emit the frame (first tag consumed) on this port *)
  | Forward_many of (port * Frame.t) list
      (** a probe program fired MIRROR: the surviving frame (if its
          egress is up) followed by the ingress-bound copies, in order *)
  | Flood of Frame.t  (** emit on every up port except the ingress *)
  | Drop of drop_reason

val handle :
  self:switch_id ->
  num_ports:int ->
  port_up:(port -> bool) ->
  ?stamp:(port -> Int_stamp.t) ->
  in_port:port ->
  Frame.t ->
  action
(** One frame in, one action out. ID queries are answered by rewriting
    the frame in place: the [Id_query] tag is consumed, the payload
    becomes [Id_reply self] with the switch as source, and the remaining
    tags route the reply — all in the same pass, no state retained.

    [stamp] is the hardware's view of one egress (backlog, clock) for
    in-band telemetry: INT-flagged frames get [stamp p] appended as they
    are forwarded out port [p]. Like ECN marking it reads only values
    the port logic already has — the switch keeps no telemetry state.

    Frames carrying a {!Dumbnet_packet.Probe_prog} region are run
    through the per-hop interpreter instead of the implicit INT stamp:
    eligible STAMP instructions append the stamp, eligible MIRROR
    instructions add ingress-bound copies (program stripped), and the
    first eligible BOUNCE redirects the frame itself out [in_port] with
    its continuation tags — even when the popped egress is down, which
    is what lets a probe report on a dead egress from its near side.
    Fired MIRROR/BOUNCE instructions are deleted and every remaining
    countdown ticks; the rewritten program travels in the frame, so the
    switch still retains nothing. *)

val plain_pop : num_ports:int -> port_up:(port -> bool) -> Frame.t -> Tag.t list -> port
(** [plain_pop ~num_ports ~port_up frame tags] is [p] when the frame,
    carrying the tag stack [tags] in place of its own, takes the common
    hop: a DumbNet frame with no probe program and no INT flag whose
    first tag is [Forward p], [p] an up port in range. {!handle} then
    returns [Forward (p, f)] with [f] the frame minus that one tag, so a
    forwarder may keep the frame as it is and advance its own cursor
    past the tag. [0] when the hop needs {!handle}. *)

val notice_spent : Frame.t -> bool
(** A port notice whose hop budget is spent: {!handle} drops it
    ([Ttl_expired]) at any switch, whatever the state of its ports, so
    its arrival changes nothing but the hop and drop counts. *)

val pp_drop_reason : Format.formatter -> drop_reason -> unit
