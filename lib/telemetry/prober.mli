(** Active loop prober: keeps telemetry fresh for idle destinations.

    Data traffic only measures the paths it happens to use. The prober
    round-robins over every cached destination and every cached path,
    sending an INT-flagged {e loop probe}: a frame source-routed out
    along the path and back to its own sender (forward egress tags,
    then the reverse ingress ports read from the cached path graph's
    adjacency, then the sender's access port). The destination host is
    never involved — the fabric itself answers. Every switch on the
    round trip stamps the frame, so one probe prices both directions
    of the path.

    Probes ride the {e Normal} (data) priority lane on purpose: they
    must experience the same queueing as the traffic whose fate they
    predict.

    A probe that fails to return within the timeout charges one loss to
    every egress on its loop via {!Collector.note_loss} — the signal
    the {!Health} monitor turns into a gray-failure verdict for
    silently dropping links. *)

open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host

type t

val create :
  ?interval_ns:int ->
  ?timeout_ns:int ->
  engine:Engine.t ->
  agent:Agent.t ->
  collector:Collector.t ->
  unit ->
  t
(** One probe every [interval_ns] (default 200 µs); a probe outstanding
    for [timeout_ns] (default 5 ms) counts as lost. Wires itself as
    [agent]'s [Int_probe] return hook. Stamp chains are {e not} folded
    into the collector here — wire {!Dumbnet_host.Agent.set_stamp_hook}
    to {!Collector.observe} (as {!Endpoint.attach} does) so probe and
    data stamps share one feed without double counting. *)

val start : t -> unit
(** Begin the probe loop (daemon events — probing alone never keeps the
    simulation alive). [start] on a running prober is a no-op. *)

val stop : t -> unit

val probe_once : t -> bool
(** Send the next round-robin probe immediately; [false] when nothing
    is cached yet or the chosen path graph cannot supply the reverse
    ports. *)

val on_return : t -> (seq:int -> rtt_ns:int -> stamps:Int_stamp.t list -> unit) -> unit

val sent : t -> int

val returned : t -> int

val lost : t -> int

(** {1 Program probes}

    Beyond the periodic loop probes, the prober can dispatch one-shot
    frames carrying a {!Dumbnet_packet.Probe_prog} — the diagnosis
    engine's raw operation. Program probes share the loop probes'
    sequence space and return hook but report through their own
    callback, and their losses are {e not} charged to the collector
    (the caller interprets silence itself). *)

type outcome = {
  o_seq : int;
  o_returned : bool;
  o_rtt_ns : int;  (** the timeout when [o_returned] is false *)
  o_stamps : Int_stamp.t list;  (** stamp chain as received, first hop first *)
}

val send_program :
  t ->
  tags:port list ->
  prog:Probe_prog.t ->
  ?timeout_ns:int ->
  on_done:(outcome -> unit) ->
  unit ->
  int
(** Send a self-addressed frame with the given forward tags and probe
    program; [on_done] fires exactly once — on return or on timeout
    (default: the prober's loop timeout). Returns the sequence number. *)

val prog_sent : t -> int

(** One cable of a path, both ends: the egress the tag names and the
    ingress it lands on. *)
type leg = {
  leg_from : link_end;
  leg_to : link_end;
}

val path_legs : adj:Adjacency.t -> Path.t -> leg list option
(** The cables a cached path crosses, in order, resolved against the
    path graph's adjacency — [None] if the adjacency does not cover a
    hop. The diagnosis engine derives both its probe continuations and
    its suspect sets from these. *)
