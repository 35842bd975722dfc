(** Forwarding-plane fault localization by prefix-bounce probing.

    The forwarding plane can lie in ways the control plane never sees:
    a link that eats frames while its PHY still reports up (silent
    drop), a cable moved to the wrong port during maintenance
    (miswiring), a flaky transceiver corrupting some fraction of
    traffic. DumbNet's source routing turns localizing these from a
    tomography problem into a unit test: the sender knows the exact
    cable sequence under every cached path, so it can interrogate each
    prefix of the path independently.

    For a cached path [s_1 .. s_n], batch [b] sends one probe per hop
    [k]: the full forward tag stack plus a program
    [[stamp_all; bounce ~pred:(at_hop k) continuation]]. The bounce
    fires at hop [k] {e whatever switch actually sits there} (the
    predicate is a hop countdown carried in the packet, not a switch
    match — a miswired path still bounces), sends the frame back out
    its ingress — physically re-crossing the suspect cable — and the
    continuation walks it home over the already-verified prefix.

    Reading a batch:

    - Probes whose stamp chain names a wrong switch at position [i],
      or whose bounce stamp names the right switch but the wrong
      ingress port, identify a {e miswiring} of the cable into hop
      [i+1]; the stamp itself carries the true landing point (the
      bounce stamps its ingress port, which is exactly where our cable
      now lands).
    - A clean contiguous prefix — probes [1..r] return, [r+1..n] do
      not — indicts the single cable [r -> r+1]. One confirming batch
      with the same signature upgrades it to a {e silent drop} verdict
      (a corrupting link rarely fails contiguously twice).
    - Anything else accumulates into a {!Suspects} table across
      batches; when batches run out, the cable with the highest
      failure fraction is ranked a {e degraded} link.

    Verdicts feed {!Dumbnet_host.Agent.demote_link} for both cable
    ends, so localization triggers the same local repair path a
    port-down notification would. *)

open Dumbnet_topology
open Types
open Dumbnet_sim
open Dumbnet_host
open Dumbnet_telemetry

type fault_class =
  | Healthy  (** two consecutive batches came home without a single loss *)
  | Silent_drop of {
      near : link_end;
      far : link_end;
    }  (** confirmed contiguous cut at this cable *)
  | Miswired of {
      near : link_end;
      far : link_end;  (** where the cable {e should} land *)
      actual : switch_id;  (** who actually answered *)
      actual_port : port;  (** the port our cable really feeds *)
    }
  | Degraded of {
      near : link_end;
      far : link_end;
      probe_loss : float;  (** observed probe failure fraction *)
    }
  | Inconclusive
      (** no covering evidence — e.g. losses on the access cable, or a
          fault that healed mid-diagnosis *)

type verdict = {
  v_dst : host_id;  (** destination whose path was interrogated *)
  v_path : Path.t;
  v_class : fault_class;
  v_probes : int;  (** program probes spent *)
  v_batches : int;  (** batches spent (one probe per hop each) *)
  v_started_ns : int;
  v_elapsed_ns : int;  (** wall-clock from first probe to verdict *)
}

type t

val create : ?demote:bool -> engine:Engine.t -> agent:Agent.t -> prober:Prober.t -> unit -> t
(** [demote] (default true): push each faulty verdict's cable ends
    through {!Dumbnet_host.Agent.demote_link} so cached paths reroute. *)

val diagnose :
  ?path:Path.t -> ?max_batches:int -> t -> dst:host_id -> on_done:(verdict -> unit) -> bool
(** Interrogate the cached primary path to [dst] (or [path], which must
    be resolvable against the cached path graph's adjacency). Probes
    are dispatched immediately; [on_done] fires once the verdict is in
    — run the engine to let probes and timeouts resolve. Deterministic
    faults settle in 2 batches; probabilistic ones may take
    [max_batches] (default 4). Returns false when [dst] is not cached
    or the path crosses no fabric cable. *)

val diagnose_suspect :
  ?max_batches:int -> t -> Health.suspect -> on_done:(verdict -> unit) -> bool
(** Aim {!diagnose} at a gray-failure suspect: picks the first cached
    destination whose primary path crosses the suspect link end.
    Returns false if no cached path covers it. *)

val attach_health : ?max_batches:int -> t -> Health.t -> unit
(** Subscribe to the health monitor's structured suspect stream
    ({!Dumbnet_telemetry.Health.set_on_suspect}), launching a
    diagnosis for each newly flagged link. Verdicts accumulate in
    {!verdicts}. *)

val verdicts : t -> verdict list
(** Every verdict so far, oldest first. *)

val pp_class : Format.formatter -> fault_class -> unit

val pp_verdict : Format.formatter -> verdict -> unit
