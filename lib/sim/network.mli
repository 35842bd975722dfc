(** The simulated fabric: a topology instantiated into switch devices,
    links with bandwidth/propagation/queueing, and host NICs.

    Switch behaviour comes from {!Dumbnet_switch.Dataplane} (pure) and
    {!Dumbnet_switch.Monitor} (port alarms); everything host-side is a
    callback, so the control plane and host agents live entirely outside
    the network — exactly the paper's division of labour. *)

open Dumbnet_topology
open Types
open Dumbnet_packet

type config = {
  bandwidth_gbps : float;  (** per link direction *)
  propagation_ns : int;
  queue_bytes : int;  (** drop-tail egress queue per port *)
  switch_latency_ns : int;  (** per-hop pop-and-forward time *)
  ecn_threshold_bytes : int option;
      (** mark frames ECN when the egress backlog exceeds this; [None]
          disables marking (the paper's future-work switch extension —
          stateless, the mark depends only on instantaneous queue
          depth) *)
}

val default_config : config
(** 10 GbE, 500 ns propagation, 512 KiB queues, 400 ns switch latency,
    ECN off. *)

type stats = {
  mutable host_tx : int;
  mutable ecn_marked : int;
  mutable host_rx : int;
  mutable switch_hops : int;
  mutable queue_drops : int;
  mutable dataplane_drops : int;  (** bad tag, down port, untagged... *)
  mutable bytes_delivered : int;
  mutable int_stamped : int;  (** telemetry stamps appended by switches *)
  mutable silent_drops : int;  (** frames eaten by injected forwarding faults *)
  mutable probe_mirrors : int;  (** extra emissions from probe-program MIRROR ops *)
  mutable nic_drops : int;
      (** frames counted in [host_tx] but lost in the NIC: the access
          link went down before the transmit stack let them out *)
}

(** An injected forwarding-plane fault on a cable: the link stays
    administratively up and no monitor fires, but frames crossing it
    vanish — always ([Silent_drop]) or with probability [rate] per
    crossing ([Corrupting], deterministic via [seed]). *)
type fault =
  | Silent_drop
  | Corrupting of {
      rate : float;
      seed : int;
    }

type t

val create : ?config:config -> engine:Engine.t -> graph:Graph.t -> unit -> t
(** Builds devices for the graph's current switches, links and hosts.
    The graph is owned by the network afterwards: inject failures
    through {!fail_link}, not by mutating the graph directly. *)

val engine : t -> Engine.t

val graph : t -> Graph.t
(** Ground truth, including current link states. Control-plane code must
    not read it — it exists for the simulator and for test oracles. *)

val stats : t -> stats
(** The network's counters, current as of this call: a spent notice
    copy's arrival (one switch hop and one dataplane drop) is counted
    in the engine and credited here when read, so read the record
    again after running the engine. *)

val set_host_handler : t -> host_id -> (Frame.t -> unit) -> unit
(** Delivery callback, already past the NIC receive path. *)

val set_host_nic : t -> host_id -> Nic.mode -> unit
(** Default: [Dumbnet_agent]. *)

val host_send : t -> host_id -> Frame.t -> unit
(** Sends through the host's NIC (minimum gap + stack latency) onto its
    access link. Silently dropped if the host is detached or its link is
    down — like a real cable pull. A frame whose link goes down while it
    is in the transmit stack counts in [host_tx] and [nic_drops]. *)

val set_port_bandwidth : t -> link_end -> gbps:float -> unit
(** Caps one egress direction (the paper rate-limits spine ports to
    500 Mbps for the HiBench runs). *)

val add_link : t -> link_end -> link_end -> unit
(** Plug a new cable between two free switch ports at runtime: both
    ends' monitors emit port-up notices, which lead the controller to
    probe and adopt the new link (§4.2 link addition). Raises
    [Invalid_argument] if either port is occupied or unknown. *)

val set_cable_fault : t -> link_end -> fault option -> unit
(** Install ([Some _]) or clear ([None]) a hidden fault on the cable at
    this port — both directions at once (corrupting faults get an
    independent deterministic stream per direction). Unlike
    {!fail_link} this raises no alarms anywhere: it is the ground-truth
    adversity the diagnosis engine must localize from probe outcomes
    alone. Raises [Invalid_argument] unless the port holds a
    switch-to-switch cable or the rate is outside [0, 1]. *)

val clear_faults : t -> unit

val rewire_swap : t -> link_end -> link_end -> unit
(** Silently swap the far ends of the two cables plugged at these ports:
    (a—b), (c—d) become (a—d), (c—b) — the classic mis-patched pair.
    Ports never transition so no monitor or notice fires; only the
    physical identity of each cable's far side changes. Raises
    [Invalid_argument] unless both ports hold switch-to-switch cables
    (or if the two ends share one cable). *)

val fail_link : t -> link_end -> unit
(** Takes the link at this port down: both ends' monitors may emit
    hop-limited notices, which then flood through the fabric. *)

val restore_link : t -> link_end -> unit

val monitor : t -> switch_id -> Dumbnet_switch.Monitor.t
(** The switch's port monitor (for alarm statistics in tests). *)

val port_counters : t -> link_end -> int * int
(** (packets, bytes) transmitted out of this switch port — the paper's
    §8 stateless per-port statistics. Raises [Invalid_argument] on an
    unknown port. *)

val busiest_ports : t -> top:int -> (link_end * int) list
(** The [top] egress ports by bytes sent, busiest first (hotspot
    telemetry built on the counters). *)

val queue_backlog_bytes : t -> link_end -> int
(** Instantaneous normal-lane egress backlog at this switch port — the
    engine-side ground truth that INT stamps sample, exposed so
    experiments can check collector estimates against reality. Raises
    [Invalid_argument] on an unknown port. *)
