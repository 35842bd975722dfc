(** The DumbNet host agent (§5.2): everything a host runs.

    It owns the two-level path cache (TopoCache of controller-supplied
    path graphs, PathTable of k paths + backup per destination), inserts
    routing tags on send, validates and strips the ø tag on receive,
    answers probe messages, floods failure notifications over the host
    overlay, patches its caches from notifications and controller
    patches, and queries the controller on cache misses — queueing the
    triggering packets until the path graph arrives.

    The controller is itself an agent with extra services wired in via
    the hooks at the bottom ({!set_query_hook} etc.). *)

open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim

type t

type send_result =
  | Sent of Path.t
  | Queued  (** no cached path; a path query is in flight *)
  | No_route  (** no path, and no controller to ask *)

type stats = {
  mutable data_sent : int;
  mutable data_received : int;
  mutable bytes_received : int;
  mutable latency_count : int;  (** data packets received with a latency sample *)
  mutable latency_sum_ns : int;  (** send-to-receive latencies, summed *)
  mutable latency_max_ns : int;
  mutable latency_last_ns : int;  (** the most recent sample; 0 before any *)
  mutable queries_sent : int;
  mutable responses_received : int;
  mutable floods_sent : int;
  mutable probe_replies : int;
  mutable bad_frames : int;  (** arrived without a clean ø termination *)
}

val create :
  ?k:int -> ?nic:Nic.mode -> network:Network.t -> rng:Dumbnet_util.Rng.t -> self:host_id ->
  unit -> t
(** Registers the agent as [self]'s frame handler on the network. *)

val self : t -> host_id

val network : t -> Network.t

val stats : t -> stats

val topocache : t -> Topocache.t

val pathtable : t -> Pathtable.t

val controller : t -> host_id option

val set_controller : t -> host_id -> unit

val peers : t -> host_id list

val set_peers : t -> host_id list -> unit

(** {1 Sending} *)

val send_data : t -> dst:host_id -> flow:int -> ?seq:int -> size:int -> unit -> send_result

val send_payload : t -> dst:host_id -> Payload.t -> send_result
(** Control traffic rides the same cached paths; never queued. *)

val send_raw : t -> Frame.t -> unit
(** Inject a fully-formed frame (discovery probes, replies along
    leftover tags). *)

val on_data : t -> (src:host_id -> Payload.t -> unit) -> unit
(** Application receive callback (after ø validation and strip). *)

(** {1 Extension interface (§6.1)} *)

type routing_fn = t -> now_ns:int -> dst:host_id -> flow:int -> Path.t option
(** A customized routing function consulted before the default
    flow-sticky PathTable choice. Returning [None] falls through. *)

val set_routing_fn : t -> routing_fn option -> unit

val install_custom_path : t -> dst:host_id -> Path.t -> (unit, Verifier.violation) result
(** Application-supplied route: verified against the cached topology
    view before being admitted to the PathTable (prepended as the
    preferred choice). *)

val reveal_topology : t -> dst:host_id -> Path.adjacency option
(** Give an application the cached (failure-filtered) subgraph. *)

(** {1 Cache interiors} *)

val learn_pathgraph : t -> Pathgraph.t -> unit
(** Insert a path graph (bootstrap push or response) and refresh the
    PathTable entry for its destination. *)

val query_path : t -> dst:host_id -> bool
(** Explicitly ask the controller; [false] if no controller path. *)

(** {1 Controller-side and instrumentation hooks} *)

val set_query_hook : t -> (requester:host_id -> target:host_id -> unit) -> unit
(** Invoked on [Path_query] frames (the controller service answers). *)

val set_event_hook : t -> (Payload.link_event -> unit) -> unit
(** Invoked once per fresh link event, after local cache patching
    (controller store updates; experiment delay measurements). *)

val set_patch_hook : t -> (version:int -> Payload.change list -> unit) -> unit
(** Invoked once per fresh topology patch. *)

val set_control_sink : t -> (Frame.t -> unit) -> unit
(** Receives discovery traffic addressed to this host: bounced own
    probes, ID replies, probe replies. *)

val set_mark_hook : t -> (src:host_id -> flow:int -> sent_ns:int -> unit) -> unit
(** Invoked per CE-marked data packet received (the ECN extension's
    receiver side). *)

val set_echo_hook : t -> (flow:int -> marks:int -> latest_sent_ns:int -> unit) -> unit
(** Invoked on [Ecn_echo] feedback (the ECN extension's sender side). *)

val set_hello_hook : t -> (controller:host_id -> unit) -> unit
(** Invoked on every [Controller_hello] — standby controllers use it as
    the primary's heartbeat. *)

val set_transport_hook : t -> (src:host_id -> Payload.t -> unit) -> unit
(** Invoked on transport control messages ([Rts], [Token]) — the
    receiver-driven transport extension's dispatch point. *)

(** {1 In-band telemetry} *)

val set_int_enabled : t -> bool -> unit
(** When on, every frame this agent tags also carries the INT flag, so
    switches stamp it hop by hop and the receiver's collector learns
    the path's queue/latency state for free (default off). *)

val int_enabled : t -> bool

val set_stamp_hook : t -> (src:host_id option -> stamps:Int_stamp.t list -> unit) -> unit
(** Invoked on every received frame carrying INT stamps, before payload
    dispatch — the telemetry collector's feed. [src] is [None] for
    switch-originated or broadcast frames. *)

val set_int_probe_hook : t -> (seq:int -> sent_ns:int -> stamps:Int_stamp.t list -> unit) -> unit
(** Invoked when one of our own [Int_probe] loop probes returns with
    its stamp chain (the active prober's completion signal). *)

val demote_link : t -> link_end -> int
(** Telemetry-driven failover: mark the link end failed in the cache
    overlay and drop every PathTable path through it — the same local
    actions a stage-1 down notification triggers, so a gray-failing
    link is evicted without any switch alarm or controller re-probe.
    Returns the number of affected destinations. *)

val promote_link : t -> link_end -> unit
(** Undo a {!demote_link} once estimates recover: clear the overlay and
    refresh degraded entries from the cached subgraphs. *)

val set_local_path_service : t -> (host_id -> Pathgraph.t option) -> unit
(** Short-circuits controller queries: the controller's own agent
    resolves misses from the local store instead of the network. *)

val set_stage1_enabled : t -> bool -> unit
(** Ablation switch (default on): when off, the host ignores stage-1
    link notifications — no cache patching, no re-flooding — and
    recovers only from controller patches, modelling the naive
    controller-first design §4.2 argues against. *)
