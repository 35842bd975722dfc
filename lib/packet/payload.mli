(** Typed packet payloads.

    Application traffic is opaque [Data]; everything else is a
    control-plane message of the host-based protocols: topology
    discovery (probe messages and replies, §4.1), the two-stage failure
    protocol (port notices, host floods, topology patches, §4.2) and the
    path-query protocol between host agents and the controller (§4.3).
    A binary codec is provided so the formats are concrete and testable;
    the simulator passes the structured values around. *)

open Dumbnet_topology
open Dumbnet_topology.Types

(** A port state transition observed by switch hardware. *)
type link_event = {
  position : link_end;  (** which switch port changed *)
  up : bool;
  event_seq : int;  (** per-switch sequence for duplicate suppression *)
}

(** A single topology delta carried by a controller patch. *)
type change =
  | Link_failed of link_end * link_end
  | Link_restored of link_end * link_end
  | Link_discovered of link_end * link_end
  | Switch_removed of switch_id

type t =
  | Data of { flow : int; seq : int; size : int; sent_ns : int }
      (** opaque application bytes; [size] is the payload length the
          simulator charges to links and [sent_ns] the sender's
          timestamp (iperf/ping-style, used for latency measurement) *)
  | Probe of { origin : host_id; forward_tags : port list }
      (** PM: the full outbound tag sequence rides in the payload so the
          receiver can compute the reverse path *)
  | Probe_reply of { responder : host_id; knows_controller : host_id option }
  | Id_reply of { switch : switch_id }
  | Port_notice of { event : link_event; hops_left : int }
      (** switch-originated hop-limited broadcast (stage 1, on fabric) *)
  | Host_flood of { event : link_event; origin : host_id }
      (** host-to-host flooding of the same event (stage 1, on hosts) *)
  | Topo_patch of { version : int; changes : change list }
      (** controller-originated repair/patch broadcast (stage 2) *)
  | Path_query of { requester : host_id; target : host_id }
  | Path_response of Pathgraph.t
      (** the graph itself, so a simulated delivery shares it; the
          decoder rebuilds one with {!Pathgraph.of_wire}, which
          canonicalises the edge list it read *)
  | Controller_hello of { controller : host_id }
      (** lets hosts learn the controller's location during bootstrap *)
  | Peer_list of { peers : host_id list }
      (** the controller's suggested flood-overlay neighbours (hosts on
          the same and adjacent switches) for stage-1 dissemination *)
  | Ecn_echo of { flow : int; marks : int; latest_sent_ns : int }
      (** receiver-to-sender congestion feedback: [marks] CE-marked
          packets seen on [flow] since the last echo, the newest of
          which was sent at [latest_sent_ns] — so the sender can ignore
          feedback about packets that predate its last reroute (the ECN
          extension of §6.2/§8) *)
  | Rts of { flow : int; bytes : int }
      (** request-to-send: a pHost-style sender announces a flow before
          transmitting data (§6.1's "source-routing based optimizations
          such as pHost") *)
  | Token of { flow : int; packets : int }
      (** receiver-driven credit: permission to send [packets] more
          MTU-sized packets of [flow] *)
  | Int_probe of { origin : host_id; seq : int; sent_ns : int }
      (** an active-telemetry loop probe: the origin source-routes it
          out and back to itself with the INT flag set, so the returned
          stamp chain describes every egress on the loop (the
          {!Dumbnet_telemetry} prober's keep-estimates-fresh traffic) *)

val byte_size : t -> int
(** Bytes this payload occupies on the wire: the declared [size] for
    [Data], otherwise exactly [Bytes.length (encode p)], computed by
    arithmetic from the codec's fixed field widths (ints 8 bytes;
    ports, tags, flags and hop budgets 1; list lengths 2; option tags
    1) without encoding anything. Total: it never raises. *)

val encode : t -> Bytes.t

val decode : Bytes.t -> t
(** Raises {!Wire.Truncated} on malformed input. *)

(** {2 Zero-copy path}

    The hot transmit path encodes straight into the frame's destination
    buffer and decodes regions of a received frame in place — no
    intermediate [Bytes] on either side. *)

val write : Wire.Writer.t -> t -> unit
(** Append the encoding to a writer (growable or {!Wire.Writer.onto}).
    [encode t = contents of a fresh writer after write]. *)

val encode_into : t -> Bytes.t -> pos:int -> int
(** Encode at [pos] in a caller-owned buffer; returns the end position.
    Raises {!Wire.Truncated} if the buffer is too small — nothing else
    is allocated or copied. *)

val decode_from : Bytes.t -> pos:int -> len:int -> t
(** Decode the [pos, pos+len) region in place (no [Bytes.sub]). Raises
    {!Wire.Truncated} on malformed input, exactly as {!decode}. *)

val equal : t -> t -> bool
(** Structural; path responses compare with {!Pathgraph.equal}. *)

val pp : Format.formatter -> t -> unit
