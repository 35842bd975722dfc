open Dumbnet_topology
open Types
open Dumbnet_packet
module Dataplane = Dumbnet_switch.Dataplane
module Monitor = Dumbnet_switch.Monitor

type config = {
  bandwidth_gbps : float;
  propagation_ns : int;
  queue_bytes : int;
  switch_latency_ns : int;
  ecn_threshold_bytes : int option;
}

let default_config =
  {
    bandwidth_gbps = 10.;
    propagation_ns = 500;
    queue_bytes = 512 * 1024;
    switch_latency_ns = 400;
    ecn_threshold_bytes = None;
  }

type stats = {
  mutable host_tx : int;
  mutable ecn_marked : int;
  mutable host_rx : int;
  mutable switch_hops : int;
  mutable queue_drops : int;
  mutable dataplane_drops : int;
  mutable bytes_delivered : int;
  mutable int_stamped : int;
  mutable silent_drops : int;
  mutable probe_mirrors : int;
  mutable nic_drops : int;
}

(* An injected forwarding-plane fault on one egress direction: the link
   reports up, monitors stay quiet, and frames vanish (always, or with
   a probability). This models the gray failures the diagnosis engine
   exists to localize — invisible to control-plane machinery by
   construction. *)
type fault =
  | Silent_drop
  | Corrupting of {
      rate : float;
      seed : int;
    }

type fault_state =
  | F_drop
  | F_rate of float * Dumbnet_util.Rng.t

(* One egress direction of a link (from a switch port or a host NIC).
   Two virtual lanes model strict priority (paper §3.1): high-priority
   frames only queue behind other high-priority frames, normal frames
   behind everything. Packet/byte counters are the switch's stateless
   statistics (paper §8). *)
type egress = {
  mutable bandwidth_gbps : float;
  mutable busy_until : int; (* all traffic *)
  mutable high_busy_until : int; (* the high-priority lane *)
  mutable packets : int;
  mutable bytes : int;
}

(* Where a host is plugged in, with a link-state reader sharing its
   switch's port table (so it stays current across flaps). *)
type access = {
  at : link_end;
  port_up : port -> bool;
}

type host_state = {
  mutable nic : Nic.mode;
  (* the engine's lines for [nic]'s transmit and receive latencies *)
  mutable tx_line : Engine.line;
  mutable rx_line : Engine.line;
  mutable handler : (Frame.t -> unit) option;
  mutable next_tx : int; (* earliest time the NIC may emit again *)
  out : egress;
  mutable access : access option; (* as of [wiring_gen]; [None] detached *)
}

(* What is cabled at a switch port, resolved once per wiring change so
   the per-hop forwarding path never consults the graph's port tables.
   Link up/down is NOT encoded here — state flaps are checked against
   the graph, so failure churn does not invalidate these arrays. *)
type link_target =
  | T_empty
  | T_host of host_id
  | T_switch of link_end (* the peer switch's ingress port *)

(* Everything one forwarding decision needs, in one record found with a
   single array read per hop: egress state, cabling targets, and a
   link-state reader sharing the graph's own port table. *)
type sw_state = {
  self : switch_id;
  egress : egress array; (* per-port, index 0 unused *)
  port_up : port -> bool;
  mutable targets : link_target array;
}

type t = {
  eng : Engine.t;
  g : Graph.t;
  config : config;
  switches : sw_state option array; (* by switch id; ids may be sparse *)
  hosts : host_state option array; (* by host id *)
  mutable wiring_gen : int; (* Graph.wiring_generation targets and accesses match *)
  monitors : (switch_id, Monitor.t) Hashtbl.t;
  faults : (link_end, fault_state) Hashtbl.t;
  stats : stats;
  (* Notice copies that reach a switch only to expire: each is one hop
     and one dataplane drop, credited to [stats] on read. *)
  expired : Engine.tally;
  mutable expired_credited : int;
}

let[@dumbnet.hot] engine t = t.eng

let graph t = t.g

let stats t =
  let due = Engine.tallied t.expired - t.expired_credited in
  if due > 0 then begin
    t.stats.switch_hops <- t.stats.switch_hops + due;
    t.stats.dataplane_drops <- t.stats.dataplane_drops + due;
    t.expired_credited <- t.expired_credited + due
  end;
  t.stats

let target_array g sw =
  let n = Graph.ports_of g sw in
  Array.init (n + 1) (fun p ->
      if p = 0 then T_empty
      else
        match Graph.endpoint_at g { sw; port = p } with
        | None -> T_empty
        | Some (Host h) -> T_host h
        | Some (Switch _) -> (
          match Graph.peer_port g { sw; port = p } with
          | Some pe -> T_switch pe
          | None -> T_empty))

let[@dumbnet.hot] switch_state t sw =
  if sw >= 0 && sw < Array.length t.switches then t.switches.(sw) else None

let[@dumbnet.hot] host_access g h =
  match Graph.host_location g h with
  | Some at -> Some { at; port_up = Graph.port_state_fn g at.sw }
  | None -> None

let[@dumbnet.hot] refresh_targets t =
  let gen = Graph.wiring_generation t.g in
  if gen <> t.wiring_gen then begin
    Array.iter
      (function
        | Some ss -> ss.targets <- target_array t.g ss.self
        | None -> ())
      t.switches;
    Array.iteri
      (fun h -> function
        | Some hs -> hs.access <- host_access t.g h
        | None -> ())
      t.hosts;
    t.wiring_gen <- gen
  end

let create ?(config = default_config) ~engine:eng ~graph:g () =
  let switch_ids = Graph.switch_ids g and host_ids = Graph.host_ids g in
  let t =
    {
      eng;
      g;
      config;
      switches = Array.make (List.fold_left max (-1) switch_ids + 1) None;
      hosts = Array.make (List.fold_left max (-1) host_ids + 1) None;
      wiring_gen = Graph.wiring_generation g - 1; (* force the first build *)
      monitors = Hashtbl.create 64;
      faults = Hashtbl.create 4;
      stats =
        {
          host_tx = 0;
          ecn_marked = 0;
          host_rx = 0;
          switch_hops = 0;
          queue_drops = 0;
          dataplane_drops = 0;
          bytes_delivered = 0;
          int_stamped = 0;
          silent_drops = 0;
          probe_mirrors = 0;
          nic_drops = 0;
        };
      expired = Engine.tally eng;
      expired_credited = 0;
    }
  in
  let fresh_egress () =
    {
      bandwidth_gbps = config.bandwidth_gbps;
      busy_until = 0;
      high_busy_until = 0;
      packets = 0;
      bytes = 0;
    }
  in
  List.iter
    (fun sw ->
      Hashtbl.replace t.monitors sw (Monitor.create ~self:sw ());
      t.switches.(sw) <-
        Some
          {
            self = sw;
            egress = Array.init (Graph.ports_of g sw + 1) (fun _ -> fresh_egress ());
            port_up = Graph.port_state_fn g sw;
            targets = [||];
          })
    switch_ids;
  let nic = Nic.Dumbnet_agent in
  let tx_line = Engine.line eng ~delay_ns:(Nic.tx_latency_ns nic)
  and rx_line = Engine.line eng ~delay_ns:(Nic.rx_latency_ns nic) in
  List.iter
    (fun h ->
      t.hosts.(h) <-
        Some
          {
            nic;
            tx_line;
            rx_line;
            handler = None;
            next_tx = 0;
            out = fresh_egress ();
            access = None;
          })
    host_ids;
  refresh_targets t;
  t

let egress_opt t sw p =
  match switch_state t sw with
  | Some ss when p >= 1 && p < Array.length ss.egress -> Some ss.egress.(p)
  | Some _ | None -> None

let[@dumbnet.hot] host_state t h =
  match if h >= 0 && h < Array.length t.hosts then t.hosts.(h) else None with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Network: unknown host %d" h)

let set_host_handler t h f = (host_state t h).handler <- Some f

let set_host_nic t h mode =
  let hs = host_state t h in
  hs.nic <- mode;
  hs.tx_line <- Engine.line t.eng ~delay_ns:(Nic.tx_latency_ns mode);
  hs.rx_line <- Engine.line t.eng ~delay_ns:(Nic.rx_latency_ns mode)

let set_port_bandwidth t le ~gbps =
  match egress_opt t le.sw le.port with
  | Some e -> e.bandwidth_gbps <- gbps
  | None -> invalid_arg "Network.set_port_bandwidth: unknown port"

let monitor t sw =
  match Hashtbl.find_opt t.monitors sw with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Network.monitor: unknown switch %d" sw)

let port_counters t le =
  match egress_opt t le.sw le.port with
  | Some e -> (e.packets, e.bytes)
  | None -> invalid_arg "Network.port_counters: unknown port"

(* Top-N selection over a size-[top] min-heap instead of sorting every
   port: O(P log top) and no intermediate list of all ports. *)
let busiest_ports t ~top =
  if top <= 0 then []
  else begin
    let module H = Dumbnet_util.Heap in
    let h = H.create ~compare in
    Array.iter
      (function
        | None -> ()
        | Some ss ->
          let sw = ss.self in
          for port = 1 to Array.length ss.egress - 1 do
            let bytes = ss.egress.(port).bytes in
            if H.size h < top then H.push h bytes { sw; port }
            else
              match H.peek h with
              | Some (least, _) when bytes > least ->
                ignore (H.pop h);
                H.push h bytes { sw; port }
              | Some _ | None -> ()
          done)
      t.switches;
    let rec drain acc =
      match H.pop h with
      | Some (bytes, le) -> drain ((le, bytes) :: acc)
      | None -> acc
    in
    drain []
  end

let serialization_ns egress ~bytes =
  int_of_float (Float.of_int (bytes * 8) /. egress.bandwidth_gbps)

(* Bytes still queued at [now] on a lane of this egress that is busy
   until [until] — what the drop-tail check, the ECN mark and the INT
   stamp all read. *)
let[@dumbnet.hot] backlog_until egress ~until ~now =
  let backlog_ns = if until > now then until - now else 0 in
  int_of_float (Float.of_int backlog_ns *. egress.bandwidth_gbps /. 8.)

(* The instantaneous normal-lane backlog. *)
let backlog_bytes egress ~now = backlog_until egress ~until:egress.busy_until ~now

(* The lane a frame queues in: high-priority frames only wait for the
   high lane — strict priority, approximated with two virtual clocks. *)
let[@dumbnet.hot] lane_until egress frame =
  match frame.Frame.priority with
  | Frame.High -> egress.high_busy_until
  | Frame.Normal -> egress.busy_until

let queue_backlog_bytes t le =
  match egress_opt t le.sw le.port with
  | Some e -> backlog_bytes e ~now:(Engine.now t.eng)
  | None -> invalid_arg "Network.queue_backlog_bytes: unknown port"

(* Stateless ECN: mark when this instant's backlog is deep — unless
   drop-tail is about to discard the frame, which [charge] decides from
   the same backlog. Marking does not change the wire size (the TOS
   byte is always present). *)
let[@dumbnet.hot] ecn_mark t egress frame =
  match t.config.ecn_threshold_bytes with
  | None -> frame
  | Some threshold ->
    let backlog =
      backlog_until egress ~until:(lane_until egress frame) ~now:(Engine.now t.eng)
    in
    if backlog > threshold && backlog <= t.config.queue_bytes then begin
      t.stats.ecn_marked <- t.stats.ecn_marked + 1;
      Frame.mark_ecn frame
    end
    else frame

(* Charge a [bytes]-long frame to an egress direction: drop-tail if the
   lane's backlog already exceeds the queue (returns -1), otherwise
   serialize after the lane drains and return when the frame reaches
   the far end of the cable. The caller schedules the arrival — one
   closure per hop. *)
let[@dumbnet.hot] charge t egress frame ~bytes =
  let now = Engine.now t.eng in
  let lane_until = lane_until egress frame in
  if backlog_until egress ~until:lane_until ~now > t.config.queue_bytes then begin
    t.stats.queue_drops <- t.stats.queue_drops + 1;
    -1
  end
  else begin
    egress.packets <- egress.packets + 1;
    egress.bytes <- egress.bytes + bytes;
    let start = if lane_until > now then lane_until else now in
    let finish = start + serialization_ns egress ~bytes in
    (match frame.Frame.priority with
    | Frame.High ->
      egress.high_busy_until <- finish;
      (* Normal traffic also waits behind the high lane. *)
      if finish > egress.busy_until then egress.busy_until <- finish
    | Frame.Normal -> egress.busy_until <- finish);
    finish + t.config.propagation_ns
  end

(* Through the receive stack: an unstamped frame waits the stack's
   fixed latency on its line; parsing telemetry stamps adds a per-frame
   amount, so a stamped frame waits on the heap. *)
let[@dumbnet.hot] deliver_to_host t h frame ~bytes =
  let hs = host_state t h in
  let deliver () =
    t.stats.host_rx <- t.stats.host_rx + 1;
    t.stats.bytes_delivered <- t.stats.bytes_delivered + bytes;
    match hs.handler with
    | Some f -> f frame
    | None -> ()
  in
  let stamps = Frame.stamp_count frame in
  if stamps = 0 then Engine.schedule_line hs.rx_line deliver
  else
    Engine.schedule t.eng
      ~delay_ns:(Nic.rx_latency_ns hs.nic + (Nic.int_parse_ns hs.nic * stamps))
      deliver

(* The INT stamp source: the very values this port's hardware already
   holds (its clock, the egress backlog the ECN/drop logic reads). *)
let[@dumbnet.hot] stamp_source t ss p =
  let now = Engine.now t.eng in
  let queue_depth =
    if p >= 1 && p < Array.length ss.egress then backlog_bytes ss.egress.(p) ~now else 0
  in
  { Dumbnet_packet.Int_stamp.switch = ss.self; port = p; queue_depth; timestamp_ns = now }

(* The switch's forwarding decision, running at the frame's arrival
   time plus the switch latency. Callers fold that latency into the
   schedule that delivers the frame here (one engine event per hop, not
   two) — [Engine.now] already reads arrival + switch_latency.

   [tags] is the frame's tag stack as of this arrival and [ntags] its
   length: a tag cursor beside the frame. A plain pop advances the
   cursor and leaves the frame as it was built; the frame is rebuilt
   with its stack only where the dataplane rewrites it (INT, probe
   programs, ID queries, drops) and where a host receives it. *)
let[@dumbnet.hot] rec switch_process t (at : link_end) frame tags ntags =
  t.stats.switch_hops <- t.stats.switch_hops + 1;
  match switch_state t at.sw with
  | None -> t.stats.dataplane_drops <- t.stats.dataplane_drops + 1
  | Some ss -> (
    refresh_targets t;
    let p =
      Dataplane.plain_pop ~num_ports:(Array.length ss.egress - 1) ~port_up:ss.port_up frame tags
    in
    if p = 0 then rewrite t ss ~in_port:at.port (Frame.with_tags tags frame)
    else
      match tags with
      | _ :: rest -> emit t ss p frame rest (ntags - 1)
      | [] -> ())

(* Every hop but a plain pop: the dataplane's full decision on the
   rebuilt frame. *)
and[@dumbnet.hot] rewrite t ss ~in_port frame =
  let num_ports = Array.length ss.egress - 1 in
  (* Only INT-flagged frames and probe programs read the stamp source,
     so only they pay for its closure. *)
  let stamp =
    match frame.Frame.prog with
    | Some _ -> Some (stamp_source t ss)
    | None -> if frame.Frame.int_enabled then Some (stamp_source t ss) else None
  in
  match Dataplane.handle ~self:ss.self ~num_ports ~port_up:ss.port_up ?stamp ~in_port frame with
  | Dataplane.Drop _ -> t.stats.dataplane_drops <- t.stats.dataplane_drops + 1
  | Dataplane.Forward (p, frame') ->
    if Frame.stamp_count frame' > Frame.stamp_count frame then
      t.stats.int_stamped <- t.stats.int_stamped + 1;
    emit_frame t ss p frame'
  | Dataplane.Forward_many emissions ->
    (* A probe program fired MIRROR (and possibly BOUNCE): the frame
       plus its ingress-bound copies, each charged to its egress. *)
    t.stats.probe_mirrors <- t.stats.probe_mirrors + max 0 (List.length emissions - 1);
    List.iter
      (fun (p, frame') ->
        if Frame.stamp_count frame' > Frame.stamp_count frame then
          t.stats.int_stamped <- t.stats.int_stamped + 1;
        emit_frame t ss p frame')
      emissions
  | Dataplane.Flood frame' -> flood t ss ~except:in_port frame'

(* The injected-fault check on one egress direction. Runs after the
   port-up test on purpose: the link looks perfectly healthy to the
   dataplane and to both monitors — the frame simply never arrives. *)
and faulted t ss p =
  Hashtbl.length t.faults > 0
  &&
  match Hashtbl.find_opt t.faults { sw = ss.self; port = p } with
  | Some F_drop ->
    t.stats.silent_drops <- t.stats.silent_drops + 1;
    true
  | Some (F_rate (rate, rng)) ->
    if Dumbnet_util.Rng.float rng 1.0 < rate then begin
      t.stats.silent_drops <- t.stats.silent_drops + 1;
      true
    end
    else false
  | None -> false

(* Whether a frame sent out port [p] leaves the switch at all. *)
and[@dumbnet.hot] live t ss p =
  p >= 1 && p < Array.length ss.egress && ss.port_up p && not (faulted t ss p)

and[@dumbnet.hot] emit_frame t ss p frame = emit t ss p frame frame.Frame.tags (List.length frame.Frame.tags)

(* Out port [p], the frame carrying the tag stack [tags] of length
   [ntags]. *)
and[@dumbnet.hot] emit t ss p frame tags ntags =
  if live t ss p then
    match ss.targets.(p) with
    | T_empty -> ()
    | T_host h ->
      let egress = ss.egress.(p) in
      let frame = ecn_mark t egress frame in
      let bytes = Frame.byte_size_with frame ~tag_count:ntags in
      let arrive = charge t egress frame ~bytes in
      if arrive >= 0 then begin
        let frame = Frame.with_tags tags frame in
        Engine.schedule_at t.eng ~at_ns:arrive (fun () -> deliver_to_host t h frame ~bytes)
      end
    | T_switch peer -> send_to_switch t ss.egress.(p) frame tags ntags ~peer

(* Onto a cable whose far end is the switch port [peer]: the arrival
   event already includes the peer's switch latency. *)
and[@dumbnet.hot] send_to_switch t egress frame tags ntags ~peer =
  let frame = ecn_mark t egress frame in
  let arrive = charge t egress frame ~bytes:(Frame.byte_size_with frame ~tag_count:ntags) in
  if arrive >= 0 then
    Engine.schedule_at t.eng ~at_ns:(arrive + t.config.switch_latency_ns) (fun () ->
        switch_process t peer frame tags ntags)

(* Emit on every cabled port but [except], increasing port order — the
   target array already knows what is cabled where, so flooding never
   rebuilds a neighbor list. Down links are filtered per-port, matching
   the old [Graph.neighbors] walk. A copy of a spent notice still
   queues on its egress like any frame, but the switch it reaches only
   drops it: its arrival goes to the [expired] tally, not the heap. *)
and[@dumbnet.hot] flood t ss ~except frame =
  let spent = Dataplane.notice_spent frame in
  let tags = frame.Frame.tags in
  let ntags = List.length tags in
  for p = 1 to Array.length ss.targets - 1 do
    if p <> except then
      match ss.targets.(p) with
      | T_empty -> ()
      | T_switch _ when spent ->
        if live t ss p then begin
          let egress = ss.egress.(p) in
          let frame = ecn_mark t egress frame in
          let arrive = charge t egress frame ~bytes:(Frame.byte_size_with frame ~tag_count:ntags) in
          if arrive >= 0 then
            Engine.tally_at t.expired ~at_ns:(arrive + t.config.switch_latency_ns)
        end
      | T_host _ | T_switch _ -> emit t ss p frame tags ntags
  done

let flood_from t sw ~except frame =
  refresh_targets t;
  match switch_state t sw with
  | None -> ()
  | Some ss -> flood t ss ~except frame

(* Through the transmit stack: an idle NIC starts now, so the frame
   waits the stack's fixed latency on its line; a busy one starts when
   its pacing gap ends, so the frame waits on the heap. A frame whose
   access link goes down while it is in the stack is a NIC drop. *)
let[@dumbnet.hot] host_send t h frame =
  refresh_targets t;
  let hs = host_state t h in
  match hs.access with
  | None -> ()
  | Some acc ->
    if acc.port_up acc.at.port then begin
      t.stats.host_tx <- t.stats.host_tx + 1;
      let now = Engine.now t.eng in
      let start = if hs.next_tx > now then hs.next_tx else now in
      hs.next_tx <- start + Nic.min_tx_gap_ns hs.nic;
      let depart () =
        if acc.port_up acc.at.port then
          send_to_switch t hs.out frame frame.Frame.tags
            (List.length frame.Frame.tags)
            ~peer:acc.at
        else t.stats.nic_drops <- t.stats.nic_drops + 1
      in
      if start = now then Engine.schedule_line hs.tx_line depart
      else Engine.schedule_at t.eng ~at_ns:(start + Nic.tx_latency_ns hs.nic) depart
    end

(* A link transition fires both ends' hardware monitors; unsuppressed
   alarms flood from their switch. Host-side transitions have no switch
   monitor on the host end. *)
let port_transition t le ~up =
  let fire le =
    match Hashtbl.find_opt t.monitors le.sw with
    | None -> ()
    | Some mon -> (
      match Monitor.on_port_event mon ~now_ns:(Engine.now t.eng) ~port:le.port ~up with
      | None -> ()
      | Some notice -> flood_from t le.sw ~except:le.port notice)
  in
  let other = Graph.peer_port t.g le in
  (* State must change before monitors emit so notices don't cross the
     dead link; for link-up the reverse, so set state first always. *)
  Graph.set_link_state t.g le ~up;
  fire le;
  match other with
  | Some o -> fire o
  | None -> ()

let add_link t a b =
  if not (egress_opt t a.sw a.port <> None && egress_opt t b.sw b.port <> None) then
    invalid_arg "Network.add_link: unknown port";
  Graph.connect t.g a b;
  (* Both ends see the port come up. *)
  let fire le =
    match Hashtbl.find_opt t.monitors le.sw with
    | None -> ()
    | Some mon -> (
      match Monitor.on_port_event mon ~now_ns:(Engine.now t.eng) ~port:le.port ~up:true with
      | None -> ()
      | Some notice -> flood_from t le.sw ~except:le.port notice)
  in
  fire a;
  fire b

let set_cable_fault t le fault =
  match Graph.peer_port t.g le with
  | None -> invalid_arg "Network.set_cable_fault: not a switch-to-switch cable"
  | Some peer -> (
    let set e f =
      match f with
      | None -> Hashtbl.remove t.faults e
      | Some Silent_drop -> Hashtbl.replace t.faults e F_drop
      | Some (Corrupting { rate; seed }) ->
        if not (rate >= 0. && rate <= 1.) then
          invalid_arg "Network.set_cable_fault: rate outside [0,1]";
        Hashtbl.replace t.faults e (F_rate (rate, Dumbnet_util.Rng.create seed))
    in
    set le fault;
    match fault with
    | Some (Corrupting { rate; seed }) ->
      (* Independent randomness per direction, both deterministic. *)
      set peer (Some (Corrupting { rate; seed = seed + 1 }))
    | Some Silent_drop | None -> set peer fault)

let clear_faults t = Hashtbl.reset t.faults

let rewire_swap t a c =
  match (Graph.peer_port t.g a, Graph.peer_port t.g c) with
  | Some b, Some d ->
    (* Cables (a—b) and (c—d) become (a—d) and (c—b): the swapped pair
       a mis-patched panel creates. No monitor fires — the ports never
       see a transition, only the far-end identity changes. The
       forwarding target arrays refresh off the wiring generation on
       the next hop. *)
    Graph.remove_link t.g a;
    Graph.remove_link t.g c;
    Graph.connect t.g a d;
    Graph.connect t.g c b;
    refresh_targets t
  | None, _ | _, None ->
    invalid_arg "Network.rewire_swap: both ends must be switch-to-switch cables"

let fail_link t le =
  if Graph.link_up t.g le then port_transition t le ~up:false

let restore_link t le =
  if not (Graph.link_up t.g le) then begin
    match Graph.endpoint_at t.g le with
    | None -> invalid_arg "Network.restore_link: empty port"
    | Some _ -> port_transition t le ~up:true
  end
