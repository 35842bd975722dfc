(** Ethernet-compatible DumbNet frames (paper §5.1, Figure 3).

    A frame keeps the original Ethernet header intact; routing tags sit
    between it and the payload under the dedicated EtherType 0x9800, so
    DumbNet traffic coexists with normal Ethernet on the same fabric.
    The simulator passes the structured value around; [to_bytes] /
    [of_bytes] realize the exact on-wire layout (including the ø
    terminator and the frame check sequence) for conformance tests. *)

open Dumbnet_topology
open Types

(** Frame addressing. Switches are addressable only as sources (ID
    replies, port notices) — they never parse destination MACs. *)
type addr =
  | Node of endpoint
  | Broadcast

(** Two-level strict priority (paper §3.1: multi-queue/priority are
    hardware features that keep the switch stateless — the class rides
    in the packet, the switch just serves the high queue first).
    Control-plane frames default to [High]. *)
type priority =
  | High
  | Normal

val ethertype_dumbnet : int
(** 0x9800 — tagged DumbNet frames. *)

val ethertype_notice : int
(** 0x9801 — hop-limited switch port notices (not source-routed). *)

val ethertype_ip : int
(** 0x0800 — what the payload reverts to once tags are stripped. *)

type t = {
  dst : addr;
  src : addr;
  ethertype : int;
  tags : Tag.t list;  (** present iff [ethertype = ethertype_dumbnet] *)
  ecn : bool;  (** congestion-experienced mark (IP ECN CE); switches set
                   it statelessly when their egress queue is deep *)
  priority : priority;
  int_enabled : bool;  (** TOS bit 3: switches append an {!Int_stamp} on
                           every pop while the region has room *)
  int_rev_stamps : Int_stamp.t list;
      (** telemetry region in reverse wire order (newest hop first), so
          the per-hop append is a cons — read it through {!int_stamps} *)
  int_count : int;  (** number of stamps, maintained so frame sizing
                        never walks the stamp list *)
  prog : Probe_prog.t option;
      (** TOS bit 4: a probe program the switches interpret per tag pop
          — the generalized form of the INT stamp region *)
  payload : Payload.t;
}

val int_stamps : t -> Int_stamp.t list
(** The telemetry region in wire order, first hop first. O(stamps). *)

val stamp_count : t -> int
(** O(1). *)

val mark_ecn : t -> t

val with_int : t -> t
(** Arm in-band telemetry: sets the INT flag (with an initially empty
    stamp region) so every switch on the path appends a stamp. *)

val with_prog : Probe_prog.t -> t -> t
(** Attach a probe program (sets TOS bit 4). Stamp instructions only
    take effect when the INT region is also armed with {!with_int} —
    the program decides {e when} to stamp, the region holds the
    stamps. *)

val strip_prog : t -> t
(** Remove the program region (what a switch does to a mirror copy). *)

val add_stamp : Int_stamp.t -> t -> t
(** What a switch does per hop: append one stamp. No-op if the INT flag
    is off or the region already holds {!Int_stamp.max_per_frame}
    stamps (the frame still forwards — telemetry saturates, traffic
    does not suffer). *)

val with_priority : priority -> t -> t

val with_tags : Tag.t list -> t -> t
(** The frame with this tag stack; the frame itself when [tags] is
    already its stack (physically). *)

val priority_of_payload : Payload.t -> priority
(** [High] for everything except bulk [Data] and [Int_probe] (probes
    must share the data lane to measure its queueing). *)

val dumbnet : src:host_id -> dst:addr -> tags:Tag.t list -> payload:Payload.t -> t
(** A source-routed frame as a host agent emits it; priority defaults
    by payload class. Raises [Invalid_argument] if [tags] lacks a final
    [End_of_path]. *)

val along_path : src:host_id -> dst:host_id -> tags_of:port list -> payload:Payload.t -> t
(** Convenience: tag the given output-port sequence and terminate it. *)

val notice : origin:switch_id -> event:Payload.link_event -> hops_left:int -> t
(** A switch's hop-limited broadcast after a port state change. *)

val plain : src:host_id -> dst:host_id -> payload:Payload.t -> t
(** An untagged Ethernet/IP frame (what remains after ø removal, or
    host-to-host traffic outside the fabric). *)

val header_bytes : t -> int
(** Ethernet header + tag bytes + telemetry region + FCS — everything
    except the payload. Grows by {!Int_stamp.wire_size} per hop on
    INT-enabled frames. *)

val byte_size : t -> int
(** Total wire size charged to links by the simulator:
    {!header_bytes} plus {!Payload.byte_size}. Pure arithmetic over
    the frame's fields — no region or payload is serialized. *)

val byte_size_with : t -> tag_count:int -> int
(** {!byte_size} of the frame with a stack of [tag_count] tags in place
    of its own: a forwarder that pops tags with a cursor sizes the frame
    without walking or rebuilding the stack. *)

val write : Wire.Writer.t -> t -> unit
(** Append the full on-wire form (header, regions, payload, CRC) to a
    writer in a single pass — no intermediate [Bytes]. With a reused
    {!Wire.Writer.reset} writer the steady-state transmit path performs
    zero codec allocations. *)

val to_bytes : t -> Bytes.t
(** Exact wire layout: dst MAC, src MAC, EtherType, tags (0x9800 only),
    TOS byte, telemetry region (TOS bit 3 only: count byte + stamps),
    probe-program region (TOS bit 4 only), encoded payload, CRC-32
    FCS. *)

val of_bytes : Bytes.t -> t
(** Raises {!Wire.Truncated} on malformed input or FCS mismatch. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
