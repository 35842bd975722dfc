(* One repetition of one fabric-benchmark workload, in its own process.

   usage: fabbench.exe WORKLOAD --seed N [--trace FILE] [--run-id R]

   Builds the fabric, runs the workload and prints one JSON object on
   stdout: raw samples (simulated nanoseconds, wall milliseconds),
   counters, output digests and check results. run.py aggregates
   repetitions into metrics.

   Untraced, the fabric comes from [Fabric.create]. With --trace it is
   stood up through the same public calls [Fabric.create] composes, each
   call into a layer is timed as a span, the result is checked against
   an identically seeded [Fabric.create], and the spans are written to
   FILE as JSON lines when the run ends.

   Exit code 2 means a wrong answer; a missing answer is only counted in
   the [failed] field. *)

open Dumbnet
module Types = Topology.Types
module Builder = Topology.Builder
module Graph = Topology.Graph
module Path = Topology.Path
module Pathgraph = Topology.Pathgraph
module Engine = Sim.Engine
module Network = Sim.Network
module Agent = Host.Agent
module Controller = Host.Controller
module Pathtable = Host.Pathtable
module Topocache = Host.Topocache
module Discovery = Control.Discovery
module Topo_store = Control.Topo_store
module Monitor = Switch.Monitor
module Rng = Util.Rng

let wall = Unix.gettimeofday

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* --- spans ------------------------------------------------------------- *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 at the root *)
    start : float;
    stop : float;
  }

  (* Calls too frequent for one span each (a send per packet) are timed
     in aggregate instead. *)
  type timer = {
    mutable calls : int;
    mutable total_s : float;
  }

  type t = {
    on : bool;
    run : int;
    mutable next : int;
    mutable stack : int list;
    mutable spans : span list;
  }

  let create ~on ~run = { on; run; next = 0; stack = []; spans = [] }

  let span t name f =
    if not t.on then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent =
        match t.stack with
        | p :: _ -> p
        | [] -> -1
      in
      t.stack <- id :: t.stack;
      let start = wall () in
      let close () =
        (t.stack <-
           match t.stack with
           | _ :: rest -> rest
           | [] -> []);
        t.spans <- { id; name; parent; start; stop = wall () } :: t.spans
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  let timer () = { calls = 0; total_s = 0. }

  let time tm f =
    let t0 = wall () in
    let v = f () in
    tm.calls <- tm.calls + 1;
    tm.total_s <- tm.total_s +. (wall () -. t0);
    v

  let mean_us tm = if tm.calls = 0 then 0. else tm.total_s /. float_of_int tm.calls *. 1e6

  let named t name = List.filter (fun s -> s.name = name) t.spans

  let total_s spans = List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0. spans

  (* Wall seconds of the spans called [name], and the part of them their
     direct children cover. *)
  let coverage t name =
    let roots = named t name in
    let covered =
      List.fold_left
        (fun acc r -> acc +. total_s (List.filter (fun s -> s.parent = r.id) t.spans))
        0. roots
    in
    (total_s roots, covered)

  let write t file =
    let oc = open_out file in
    let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"run\":%d,\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_ms\":%.3f,\"end_ms\":%.3f}\n"
          t.run s.id s.name s.parent
          ((s.start -. origin) *. 1e3)
          ((s.stop -. origin) *. 1e3))
      (List.rev t.spans);
    close_out oc
end

(* --- JSON output ------------------------------------------------------- *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec to_buffer b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Str s -> Printf.bprintf b "%S" s
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "%S:" k;
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let ints l = List (List.map (fun i -> Int i) l)

let floats l = List (List.map (fun f -> Float f) l)

(* --- the fabric under test --------------------------------------------- *)

type stack = {
  eng : Engine.t;
  net : Network.t;
  ctrl : Controller.t;
  agent : Types.host_id -> Agent.t;
  hosts : Types.host_id list;
  controller : Types.host_id;
  disco : Discovery.result;
}

let of_fabric fab =
  {
    eng = Fabric.engine fab;
    net = Fabric.network fab;
    ctrl = Fabric.controller fab;
    agent = Fabric.agent fab;
    hosts = Fabric.hosts fab;
    controller = Fabric.controller_host fab;
    disco = Fabric.discovery fab;
  }

(* Deeper drop-tail queues than the default, so that the traffic mix
   completes every flow: the paced sender has no retransmit. *)
let net_config = { Network.default_config with Network.queue_bytes = 4 * 1024 * 1024 }

(* The steps of [Fabric.create], in its order, each timed as a span. *)
let stand_up tr ~seed built =
  let rng = Rng.create seed in
  let eng, net, agents =
    Trace.span tr "sim.network.create" (fun () ->
        let eng = Engine.create () in
        let net = Network.create ~config:net_config ~engine:eng ~graph:built.Builder.graph () in
        let agents = Hashtbl.create 64 in
        List.iter
          (fun h ->
            Hashtbl.replace agents h (Agent.create ~network:net ~rng:(Rng.split rng) ~self:h ()))
          built.Builder.hosts;
        (eng, net, agents))
  in
  let ctrl_agent = Hashtbl.find agents built.Builder.controller in
  let max_ports =
    List.fold_left
      (fun acc sw -> max acc (Graph.ports_of built.Builder.graph sw))
      1
      (Graph.switch_ids built.Builder.graph)
  in
  let disco =
    match
      Trace.span tr "control.discovery" (fun () ->
          Controller.discover ~agent:ctrl_agent ~max_ports ())
    with
    | Some d -> d
    | None -> wrong "discovery failed"
  in
  let ctrl =
    Trace.span tr "host.controller.create" (fun () ->
        Controller.create ~jobs:1 ~agent:ctrl_agent ~topology:disco.Discovery.topology
          ~hosts:built.Builder.hosts ())
  in
  Controller.set_prober ctrl (fun tags ->
      Control.Probe_walk.probe (Network.graph net) ~origin:built.Builder.controller ~tags);
  Trace.span tr "host.controller.bootstrap_push" (fun () -> Controller.bootstrap_push ctrl);
  Trace.span tr "sim.engine.bootstrap_drain" (fun () -> Engine.run eng);
  {
    eng;
    net;
    ctrl;
    agent = Hashtbl.find agents;
    hosts = built.Builder.hosts;
    controller = built.Builder.controller;
    disco;
  }

let ft8 () = Builder.fat_tree ~k:8 ()

let ft16 () = Builder.fat_tree ~k:16 ()

(* What the stand-up leaves behind, to compare against [Fabric.create]. *)
type standup_view = {
  topology : Graph.t;
  pairs : (Types.host_id * Types.host_id) list;
  now_ns : int;
  events : int;
}

let view s =
  {
    topology = s.disco.Discovery.topology;
    pairs = Controller.cached_pairs s.ctrl;
    now_ns = Engine.now s.eng;
    events = Engine.events_processed s.eng;
  }

let same_view a b =
  if not (Graph.equal a.topology b.topology) then wrong "traced stand-up: discovered topology differs";
  if a.pairs <> b.pairs then wrong "traced stand-up: cached pairs differ";
  if a.now_ns <> b.now_ns || a.events <> b.events then
    wrong "traced stand-up: bootstrap simulation differs"

let setup tr ~seed topo =
  let t0 = wall () in
  if not tr.Trace.on then begin
    let fab = Fabric.create ~config:net_config ~seed ~jobs:1 (topo ()) in
    (of_fabric fab, wall () -. t0)
  end
  else begin
    let s =
      Trace.span tr "setup" (fun () ->
          let built = Trace.span tr "topology.build" topo in
          stand_up tr ~seed built)
    in
    (s, wall () -. t0)
  end

(* --- counters ---------------------------------------------------------- *)

type counters = {
  events : int;
  hops : int;
  host_tx : int;
  host_rx : int;
  queue_drops : int;
  dp_drops : int;
  silent_drops : int;
  floods : int;
  alarms : int;
  suppressed : int;
  regen_s : float;
  push_s : float;
  repushed : int;
  evicted : int;
  retained : int;
  dist_hits : int;
  dist_misses : int;
  minor_words : float;
  major_gcs : int;
}

let counters s =
  let st = Network.stats s.net in
  let floods =
    List.fold_left (fun acc h -> acc + (Agent.stats (s.agent h)).Agent.floods_sent) 0 s.hosts
  in
  let alarms, suppressed =
    List.fold_left
      (fun (a, b) sw ->
        let m = Network.monitor s.net sw in
        (a + Monitor.alarms_emitted m, b + Monitor.alarms_suppressed m))
      (0, 0)
      (Graph.switch_ids (Network.graph s.net))
  in
  let r = Controller.repush_stats s.ctrl in
  let store = Controller.store s.ctrl in
  let rs = Topo_store.repair_stats store in
  let hits, misses = Topo_store.dist_cache_stats store in
  let gc = Gc.quick_stat () in
  {
    events = Engine.events_processed s.eng;
    hops = st.Network.switch_hops;
    host_tx = st.Network.host_tx;
    host_rx = st.Network.host_rx;
    queue_drops = st.Network.queue_drops;
    dp_drops = st.Network.dataplane_drops;
    silent_drops = st.Network.silent_drops;
    floods;
    alarms;
    suppressed;
    regen_s = r.Controller.regen_s;
    push_s = r.Controller.push_s;
    repushed = r.Controller.repushed_pairs;
    evicted = rs.Topo_store.evicted_roots;
    retained = rs.Topo_store.retained_roots;
    dist_hits = hits;
    dist_misses = misses;
    minor_words = gc.Gc.minor_words;
    major_gcs = gc.Gc.major_collections;
  }

let diff a b =
  {
    events = b.events - a.events;
    hops = b.hops - a.hops;
    host_tx = b.host_tx - a.host_tx;
    host_rx = b.host_rx - a.host_rx;
    queue_drops = b.queue_drops - a.queue_drops;
    dp_drops = b.dp_drops - a.dp_drops;
    silent_drops = b.silent_drops - a.silent_drops;
    floods = b.floods - a.floods;
    alarms = b.alarms - a.alarms;
    suppressed = b.suppressed - a.suppressed;
    regen_s = b.regen_s -. a.regen_s;
    push_s = b.push_s -. a.push_s;
    repushed = b.repushed - a.repushed;
    evicted = b.evicted - a.evicted;
    retained = b.retained - a.retained;
    dist_hits = b.dist_hits - a.dist_hits;
    dist_misses = b.dist_misses - a.dist_misses;
    minor_words = b.minor_words -. a.minor_words;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let add a b =
  {
    events = a.events + b.events;
    hops = a.hops + b.hops;
    host_tx = a.host_tx + b.host_tx;
    host_rx = a.host_rx + b.host_rx;
    queue_drops = a.queue_drops + b.queue_drops;
    dp_drops = a.dp_drops + b.dp_drops;
    silent_drops = a.silent_drops + b.silent_drops;
    floods = a.floods + b.floods;
    alarms = a.alarms + b.alarms;
    suppressed = a.suppressed + b.suppressed;
    regen_s = a.regen_s +. b.regen_s;
    push_s = a.push_s +. b.push_s;
    repushed = a.repushed + b.repushed;
    evicted = a.evicted + b.evicted;
    retained = a.retained + b.retained;
    dist_hits = a.dist_hits + b.dist_hits;
    dist_misses = a.dist_misses + b.dist_misses;
    minor_words = a.minor_words +. b.minor_words;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let counters_json c =
  Obj
    [
      ("events", Int c.events);
      ("hops", Int c.hops);
      ("host_tx", Int c.host_tx);
      ("host_rx", Int c.host_rx);
      ("queue_drops", Int c.queue_drops);
      ("dataplane_drops", Int c.dp_drops);
      ("floods", Int c.floods);
      ("alarms", Int c.alarms);
      ("suppressed", Int c.suppressed);
      ("regen_s", Float c.regen_s);
      ("push_s", Float c.push_s);
      ("repushed", Int c.repushed);
      ("evicted", Int c.evicted);
      ("retained", Int c.retained);
      ("dist_misses", Int c.dist_misses);
      ("dist_lookups", Int (c.dist_hits + c.dist_misses));
      ("minor_words", Float c.minor_words);
      ("major_collections", Int c.major_gcs);
    ]

(* The phase whose wall time the end-to-end metrics are taken over. *)
let measured ~wall_s ~sim_ns c =
  Obj
    [
      ("wall_s", Float wall_s);
      ("hops", Int c.hops);
      ("sim_ns", Int sim_ns);
      ("counters", counters_json c);
    ]

(* --- the query phase: first-contact path queries ----------------------- *)

type query_result = {
  q_pairs : (Types.host_id * Types.host_id) array;  (** the queries issued *)
  q_answered : int;
  q_json : json;
  q_measured : json;
}

(* Issue [Agent.query_path] for every pair whose source has no path to
   the destination yet, drain the engine, and check that every query
   was answered with paths that are valid on the ground-truth graph. *)
let query_phase tr s pairs =
  let query_tm = Trace.timer () in
  let fresh = Hashtbl.create 1024 in
  let issued = ref [] in
  let c0 = counters s in
  let sim0 = Engine.now s.eng in
  let t0 = wall () in
  Trace.span tr "phase.queries" (fun () ->
      Trace.span tr "host.agent.query_path" (fun () ->
          List.iter
            (fun (src, dst) ->
              let a = s.agent src in
              if
                src <> dst
                && (not (Hashtbl.mem fresh (src, dst)))
                && Pathtable.lookup (Agent.pathtable a) ~dst = None
              then begin
                Hashtbl.replace fresh (src, dst) ();
                let sent =
                  if tr.Trace.on then Trace.time query_tm (fun () -> Agent.query_path a ~dst)
                  else Agent.query_path a ~dst
                in
                if sent then issued := (src, dst) :: !issued
              end)
            pairs);
      Trace.span tr "sim.engine.query_drain" (fun () -> Engine.run s.eng));
  let wall_s = wall () -. t0 in
  let c1 = counters s in
  let g = Network.graph s.net in
  let answered =
    List.fold_left
      (fun acc (src, dst) ->
        match Pathtable.paths_to (Agent.pathtable (s.agent src)) ~dst with
        | [] -> acc
        | paths ->
          List.iter
            (fun p ->
              if not (Path.validate g p) then wrong "query H%d->H%d: path invalid on the fabric" src dst)
            paths;
          acc + 1)
      0 !issued
  in
  let q_pairs = Array.of_list (List.rev !issued) in
  let digest =
    let b = Buffer.create 4096 in
    Array.iter
      (fun (src, dst) ->
        Printf.bprintf b "%d>%d:" src dst;
        List.iter
          (fun p -> List.iter (fun t -> Printf.bprintf b "%d." t) (Path.tags p))
          (Pathtable.paths_to (Agent.pathtable (s.agent src)) ~dst);
        Buffer.add_char b ';')
      q_pairs;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    q_pairs;
    q_answered = answered;
    q_json =
      Obj
        [
          ("issued", Int (Array.length q_pairs));
          ("answered", Int answered);
          ("wall_s", Float wall_s);
          ("digest", Str digest);
          ("query_us", Float (Trace.mean_us query_tm));
          ("counters", counters_json (diff c0 c1));
        ];
    q_measured = measured ~wall_s ~sim_ns:(Engine.now s.eng - sim0) (diff c0 c1);
  }

(* Replay the issued pairs through [Controller.serve] and the served
   graphs through [Agent.learn_pathgraph] on an identically seeded,
   untouched fabric, timing each layer on its own. With [expect], every
   served graph must equal what the live controller pushed. *)
let replay ref_stack ?expect pairs =
  let serve_tm = Trace.timer () and learn_tm = Trace.timer () in
  Array.iter
    (fun (src, dst) ->
      if src <> ref_stack.controller then
        match Trace.time serve_tm (fun () -> Controller.serve ref_stack.ctrl ~src ~dst) with
        | None -> wrong "replay: no path graph for H%d->H%d" src dst
        | Some pg ->
          (match expect with
          | Some live -> (
            match Controller.cached_graph live ~src ~dst with
            | Some pushed when Pathgraph.to_wire pushed = Pathgraph.to_wire pg -> ()
            | Some _ | None -> wrong "replay: H%d->H%d differs from the pushed graph" src dst)
          | None -> ());
          Trace.time learn_tm (fun () -> Agent.learn_pathgraph (ref_stack.agent src) pg))
    pairs;
  (Trace.mean_us serve_tm, Trace.mean_us learn_tm, serve_tm.Trace.calls)

(* --- inputs -------------------------------------------------------------- *)

type flow = {
  id : int;
  src : Types.host_id;
  dst : Types.host_id;
  bytes : int;
  pkt : int;  (** payload bytes per packet *)
  gap_ns : int;  (** pacing between packets *)
  start_ns : int;  (** offset from the start of the traffic phase *)
}

let elephant_pkts = 1_000

let mtu = 1450

let elephant_gap_ns = 8_000

let mouse_pkts = 4

let mouse_pkt = 256

let mouse_gap_ns = 1_000

let mice_per_s = 125_000.

(* Each host sends one elephant of MTU-sized packets to a random
   permutation partner; small-packet mice between random hosts arrive
   on a Poisson schedule, open loop, while the elephants run. *)
let ft8_mix rng hosts =
  let elephants =
    Workload.Flow.permutation ~rng ~hosts ~bytes:(elephant_pkts * mtu) ()
    |> List.mapi (fun i sp ->
           {
             id = i;
             src = sp.Workload.Flow.src;
             dst = sp.Workload.Flow.dst;
             bytes = sp.Workload.Flow.bytes;
             pkt = mtu;
             gap_ns = elephant_gap_ns;
             start_ns = Rng.int rng 50_000;
           })
  in
  let harr = Array.of_list hosts in
  let n = Array.length harr in
  let horizon_ns = elephant_pkts * elephant_gap_ns in
  let rec mice acc id t_ns =
    let t_ns = t_ns + int_of_float (Rng.exponential rng (1e9 /. mice_per_s)) in
    if t_ns >= horizon_ns then List.rev acc
    else begin
      let i = Rng.int rng n in
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      mice
        ({
           id;
           src = harr.(i);
           dst = harr.(j);
           bytes = mouse_pkts * mouse_pkt;
           pkt = mouse_pkt;
           gap_ns = mouse_gap_ns;
           start_ns = t_ns;
         }
        :: acc)
        (id + 1) t_ns
    end
  in
  elephants @ mice [] (List.length elephants) 0

(* --- traffic_ft8 ------------------------------------------------------- *)

type progress = {
  mutable sent : int;
  mutable seq : int;
  mutable received : int;
  mutable done_ns : int;  (** -1 until complete *)
}

let traffic tr s flows =
  let flows = Array.of_list flows in
  let prog = Array.map (fun _ -> { sent = 0; seq = 0; received = 0; done_ns = -1 }) flows in
  let send_tm = Trace.timer () in
  let sends = ref 0 and misses = ref 0 and bytes_sent = ref 0 and bytes_recv = ref 0 in
  let stream = Buffer.create 65536 in
  let fcts = ref [] in
  let t_start = Engine.now s.eng in
  List.iter
    (fun h ->
      Agent.on_data (s.agent h) (fun ~src:_ payload ->
          match payload with
          | Dumbnet.Packet.Payload.Data { flow; size; _ } when flow >= 0 && flow < Array.length prog ->
            let p = prog.(flow) in
            p.received <- p.received + size;
            bytes_recv := !bytes_recv + size;
            if p.received >= flows.(flow).bytes && p.done_ns < 0 then begin
              let now = Engine.now s.eng in
              p.done_ns <- now;
              fcts := (now - (t_start + flows.(flow).start_ns)) :: !fcts;
              Printf.bprintf stream "%d@%d;" flow now
            end
          | _ -> ()))
    s.hosts;
  let rec pump f () =
    let p = prog.(f.id) in
    let size = min f.pkt (f.bytes - p.sent) in
    let a = s.agent f.src in
    let r =
      if tr.Trace.on then
        Trace.time send_tm (fun () -> Agent.send_data a ~dst:f.dst ~flow:f.id ~seq:p.seq ~size ())
      else Agent.send_data a ~dst:f.dst ~flow:f.id ~seq:p.seq ~size ()
    in
    incr sends;
    (match r with
    | Agent.Sent _ -> ()
    | Agent.Queued | Agent.No_route -> incr misses);
    (match r with
    | Agent.Sent _ | Agent.Queued -> bytes_sent := !bytes_sent + size
    | Agent.No_route -> ());
    p.sent <- p.sent + size;
    p.seq <- p.seq + 1;
    if p.sent < f.bytes then Engine.schedule s.eng ~delay_ns:f.gap_ns (pump f)
  in
  Array.iter (fun f -> Engine.schedule_at s.eng ~at_ns:(t_start + f.start_ns) (pump f)) flows;
  let c0 = counters s in
  let t0 = wall () in
  Trace.span tr "phase.traffic" (fun () ->
      Trace.span tr "sim.engine.drain" (fun () -> Engine.run s.eng));
  let wall_s = wall () -. t0 in
  let c1 = counters s in
  (* Every frame a host put on the wire was delivered or dropped. *)
  let tx = c1.host_tx - c0.host_tx and rx = c1.host_rx - c0.host_rx in
  let dropped = c1.queue_drops - c0.queue_drops + (c1.dp_drops - c0.dp_drops) in
  if tx <> rx + dropped + (c1.silent_drops - c0.silent_drops) then
    wrong "traffic: %d frames sent, %d delivered, %d dropped" tx rx dropped;
  if dropped = 0 && !bytes_sent <> !bytes_recv then
    wrong "traffic: %d bytes sent, %d delivered, no drops" !bytes_sent !bytes_recv;
  if !bytes_recv > !bytes_sent then wrong "traffic: more bytes delivered than sent";
  let incomplete = Array.fold_left (fun acc p -> if p.done_ns < 0 then acc + 1 else acc) 0 prog in
  ( Obj
      [
        ("flows", Int (Array.length flows));
        ("incomplete", Int incomplete);
        ("fct_ns", ints (List.rev !fcts));
        ("bytes_sent", Int !bytes_sent);
        ("bytes_delivered", Int !bytes_recv);
        ("digest", Str (Digest.to_hex (Digest.string (Buffer.contents stream))));
        ("sends", Int !sends);
        ("send_misses", Int !misses);
        ("send_us", Float (Trace.mean_us send_tm));
      ],
    measured ~wall_s ~sim_ns:(Engine.now s.eng - t_start) (diff c0 c1),
    Array.length flows,
    incomplete )

(* --- failover_ft8 ------------------------------------------------------ *)

let failures = 8

let settle_ns = 1_100_000_000

(* A closed loop of seeded cable failures: fail, run to quiescence, wait
   out the monitors' up-suppression window, restore, run to quiescence.
   After each convergence, check the hosts' routes and one repaired
   controller answer. *)
let failover tr rng s =
  let observed = Array.of_list (List.filter (fun h -> h <> s.controller) s.hosts) in
  let nobs = Array.length observed in
  let notify = Array.make nobs (-1) and patch = Array.make nobs (-1) in
  let in_failure = ref false and t_fail = ref 0 in
  Array.iteri
    (fun i h ->
      let a = s.agent h in
      Agent.set_event_hook a (fun ev ->
          if !in_failure && (not ev.Dumbnet.Packet.Payload.up) && notify.(i) < 0 then
            notify.(i) <- Engine.now s.eng - !t_fail);
      Agent.set_patch_hook a (fun ~version:_ _ ->
          if !in_failure && patch.(i) < 0 then patch.(i) <- Engine.now s.eng - !t_fail))
    observed;
  let cables =
    Graph.switch_links (Network.graph s.net) |> List.map fst |> Array.of_list
  in
  let store = Controller.store s.ctrl in
  let converge_ms = ref [] and converge_sim = ref [] in
  let notify_ns = ref [] and patch_ns = ref [] in
  let missing_notify = ref 0 and missing_patch = ref 0 in
  let regen = ref [] and push = ref [] in
  let failed = ref 0 in
  let stream = Buffer.create 65536 in
  let zero = counters s in
  let conv = ref (diff zero zero) and restored = ref (diff zero zero) in
  let restore_ms = ref [] and restore_sim = ref [] in
  let t0 = wall () in
  Trace.span tr "phase.failover" (fun () ->
      for k = 1 to failures do
        let key = Rng.pick_array rng cables in
        let le, _ = Types.Link_key.ends key in
        let affected =
          Trace.span tr "bench.pick_affected" (fun () ->
              List.filter
                (fun (src, dst) ->
                  match Controller.cached_graph s.ctrl ~src ~dst with
                  | Some pg -> Pathgraph.contains_link pg key
                  | None -> false)
                (Controller.cached_pairs s.ctrl)
              |> Array.of_list)
        in
        let sample = if Array.length affected = 0 then None else Some (Rng.pick_array rng affected) in
        Array.fill notify 0 nobs (-1);
        Array.fill patch 0 nobs (-1);
        let c0 = counters s in
        in_failure := true;
        t_fail := Engine.now s.eng;
        let w0 = wall () in
        Trace.span tr "sim.network.fail_link" (fun () -> Network.fail_link s.net le);
        Trace.span tr "sim.engine.converge_drain" (fun () -> Engine.run s.eng);
        let w1 = wall () in
        in_failure := false;
        let d = diff c0 (counters s) in
        conv := add !conv d;
        converge_ms := ((w1 -. w0) *. 1e3) :: !converge_ms;
        converge_sim := (Engine.now s.eng - !t_fail) :: !converge_sim;
        regen := (d.regen_s *. 1e3) :: !regen;
        push := (d.push_s *. 1e3) :: !push;
        Printf.bprintf stream "F%d:%d.%d;" k le.Types.sw le.Types.port;
        Array.iteri
          (fun i d ->
            if d < 0 then incr missing_notify else notify_ns := d :: !notify_ns;
            let pd = patch.(i) in
            if pd < 0 then incr missing_patch else patch_ns := pd :: !patch_ns;
            Printf.bprintf stream "%d,%d;" d pd)
          notify;
        let ok =
          Trace.span tr "bench.oracle" (fun () ->
              (* No host may still route a pushed pair over the dead cable. *)
              let routes_ok =
                List.for_all
                  (fun (src, dst) ->
                    src = s.controller
                    ||
                    match Pathtable.choose (Agent.pathtable (s.agent src)) ~dst ~flow:0 with
                    | Some p -> not (Path.crosses p key)
                    | None -> false)
                  (Controller.cached_pairs s.ctrl)
              in
              (* The repaired answer equals a cold store's on the current view. *)
              (match sample with
              | None -> ()
              | Some (src, dst) -> (
                let cold = Topo_store.create (Graph.copy (Topo_store.graph store)) in
                let fresh = Topo_store.serve_path_graph ~s:2 ~eps:1 cold ~src ~dst in
                match (Controller.cached_graph s.ctrl ~src ~dst, fresh) with
                | Some a, Some b when Pathgraph.to_wire a = Pathgraph.to_wire b -> ()
                | None, None -> ()
                | _ -> wrong "failover %d: repaired graph H%d->H%d differs from a cold store" k src dst));
              routes_ok)
        in
        if not ok then incr failed;
        Trace.span tr "sim.engine.settle" (fun () ->
            Engine.run ~until_ns:(Engine.now s.eng + settle_ns) s.eng);
        let c2 = counters s and t_restore = Engine.now s.eng in
        let w2 = wall () in
        Trace.span tr "sim.network.restore_link" (fun () -> Network.restore_link s.net le);
        Trace.span tr "sim.engine.restore_drain" (fun () -> Engine.run s.eng);
        restore_ms := ((wall () -. w2) *. 1e3) :: !restore_ms;
        restore_sim := (Engine.now s.eng - t_restore) :: !restore_sim;
        restored := add !restored (diff c2 (counters s))
      done);
  let loop_s = wall () -. t0 in
  let sum = List.fold_left ( +. ) 0. and sum_ns = List.fold_left ( + ) 0 in
  ( Obj
      [
        ("failures", Int failures);
        ("failed", Int !failed);
        ("loop_s", Float loop_s);
        ("converge_ms", floats (List.rev !converge_ms));
        ("converge_sim_ns", ints (List.rev !converge_sim));
        ("converge_counters", counters_json !conv);
        ("restore_ms", floats (List.rev !restore_ms));
        ("regen_ms", floats (List.rev !regen));
        ("push_ms", floats (List.rev !push));
        ("notify_ns", ints (List.rev !notify_ns));
        ("patch_ns", ints (List.rev !patch_ns));
        ("missing_notify", Int !missing_notify);
        ("missing_patch", Int !missing_patch);
        ("digest", Str (Digest.to_hex (Digest.string (Buffer.contents stream))));
      ],
    (* The §4.2 machinery at work: every fail and restore window. *)
    measured
      ~wall_s:((sum !converge_ms +. sum !restore_ms) /. 1e3)
      ~sim_ns:(sum_ns !converge_sim + sum_ns !restore_sim)
      (add !conv !restored),
    failures,
    !failed )

(* --- querystorm_ft16 ------------------------------------------------------ *)

let storm_fanout = 4

(* Every non-controller host picks a few destinations it holds no path
   graph for. *)
let storm_pairs rng s =
  let harr = Array.of_list s.hosts in
  let n = Array.length harr in
  List.concat_map
    (fun h ->
      if h = s.controller then []
      else begin
        let a = s.agent h in
        let chosen = ref [] in
        while List.length !chosen < storm_fanout do
          let d = harr.(Rng.int rng n) in
          if
            d <> h
            && (not (List.mem d !chosen))
            && Topocache.get (Agent.topocache a) ~dst:d = None
          then chosen := d :: !chosen
        done;
        List.rev_map (fun d -> (h, d)) !chosen
      end)
    s.hosts

(* The machine's speed at the moment, measured by a fixed stdlib-only
   kernel that churns the minor and major heap and a hash table the way
   the simulator does. On a shared machine the speed drifts by tens of
   percent over tens of seconds; run.py divides each wall time by the
   kernel's time before the setup and after the phases, so a metric
   tracks the code, not the neighbours. The kernel never touches the
   library, so a change to the library cannot move it. *)
let calibrate () =
  let t0 = wall () in
  let ring = Array.make 16_384 [] in
  let tbl = Hashtbl.create 65536 in
  let x = ref 12345 in
  for i = 1 to 800_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let slot = !x land 16_383 in
    (ring.(slot) <-
       (i, !x)
       ::
       (match ring.(slot) with
       | _ :: tl when List.length tl < 3 -> tl
       | _ -> []));
    let k = (!x lsr 8) land 65535 in
    Hashtbl.replace tbl k (i + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done;
  ignore (Sys.opaque_identity ring);
  wall () -. t0

(* --- main ------------------------------------------------------------------ *)

let peak_rss_kib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let v = scan () in
  close_in ic;
  v

let usage () =
  prerr_endline
    "usage: fabbench.exe (traffic_ft8|failover_ft8|querystorm_ft16) --seed N [--trace FILE] \
     [--run-id R]";
  exit 64

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let workload, seed, trace_file, run_id =
    let rec go w seed tf rid = function
      | [] -> (w, seed, tf, rid)
      | "--seed" :: v :: rest -> go w (int_of_string_opt v) tf rid rest
      | "--trace" :: v :: rest -> go w seed (Some v) rid rest
      | "--run-id" :: v :: rest -> go w seed tf (Option.value ~default:0 (int_of_string_opt v)) rest
      | x :: rest when w = None -> go (Some x) seed tf rid rest
      | _ -> usage ()
    in
    match go None None None 0 args with
    | Some w, Some seed, tf, rid -> (w, seed, tf, rid)
    | _ -> usage ()
  in
  let tr = Trace.create ~on:(trace_file <> None) ~run:run_id in
  let rng = Rng.create seed in
  let topo =
    match workload with
    | "traffic_ft8" | "failover_ft8" -> ft8
    | "querystorm_ft16" -> ft16
    | _ -> usage ()
  in
  try
    (* The first kernel pays the process's page faults; time the second. *)
    ignore (calibrate ());
    let cal_before = calibrate () in
    let s, setup_s = setup tr ~seed topo in
    let standup = view s in
    let setup_json =
      Obj
        [
          ("probes", Int s.disco.Discovery.stats.Discovery.probes_sent);
          ("bootstrap_pairs", Int (List.length standup.pairs));
          ("bootstrap_events", Int standup.events);
          ("bootstrap_sim_ns", Int standup.now_ns);
        ]
    in
    let queries, phase, measured, attempted, failed =
      match workload with
      | "querystorm_ft16" ->
        let q = query_phase tr s (storm_pairs rng s) in
        let n = Array.length q.q_pairs in
        (q, Obj [], q.q_measured, n, n - q.q_answered)
      | _ ->
        let flows = ft8_mix rng s.hosts in
        let q = query_phase tr s (List.map (fun f -> (f.src, f.dst)) flows) in
        let unanswered = Array.length q.q_pairs - q.q_answered in
        let phase, m, n, bad =
          if workload = "traffic_ft8" then traffic tr s flows else failover tr rng s
        in
        (q, phase, m, n + Array.length q.q_pairs, bad + unanswered)
    in
    (* Read before the last kernel, whose garbage is not the fabric's. *)
    let peak_rss = peak_rss_kib () in
    let cal_after = calibrate () in
    let traced =
      if not tr.Trace.on then []
      else begin
        (* The reference: an identically seeded fabric from Fabric.create. *)
        let fab = Fabric.create ~config:net_config ~seed ~jobs:1 (topo ()) in
        let ref_stack = of_fabric fab in
        same_view standup (view ref_stack);
        let expect = if workload = "failover_ft8" then None else Some s.ctrl in
        let serve_us, learn_us, replayed = replay ref_stack ?expect queries.q_pairs in
        let spans name = Trace.total_s (Trace.named tr name) in
        (* The spans of the phase the end-to-end metrics measure. *)
        let phase_name, drains =
          match workload with
          | "traffic_ft8" -> ("phase.traffic", [ "sim.engine.drain" ])
          | "failover_ft8" ->
            ("phase.failover", [ "sim.engine.converge_drain"; "sim.engine.restore_drain" ])
          | _ -> ("phase.queries", [ "sim.engine.query_drain" ])
        in
        let phase_s, covered_s = Trace.coverage tr phase_name in
        [
          ( "spans",
            Obj
              [
                ("discovery_s", Float (spans "control.discovery"));
                ("controller_create_s", Float (spans "host.controller.create"));
                ("bootstrap_push_s", Float (spans "host.controller.bootstrap_push"));
                ("bootstrap_drain_s", Float (spans "sim.engine.bootstrap_drain"));
                ("network_create_s", Float (spans "sim.network.create"));
                ("topology_build_s", Float (spans "topology.build"));
                ("query_drain_s", Float (spans "sim.engine.query_drain"));
                ("drain_s", Float (List.fold_left (fun acc n -> acc +. spans n) 0. drains));
                ("phase_s", Float phase_s);
                ("covered_s", Float covered_s);
                ("serve_us", Float serve_us);
                ("learn_us", Float learn_us);
                ("replayed", Int replayed);
              ] );
        ]
      end
    in
    (match trace_file with
    | Some f -> Trace.write tr f
    | None -> ());
    let out =
      Obj
        ([
           ("workload", Str workload);
           ("seed", Int seed);
           ("traced", Bool tr.Trace.on);
           ("setup_s", Float setup_s);
           ("setup", setup_json);
           ("queries", queries.q_json);
           ("phase", phase);
           ("measured", measured);
           ("attempted", Int attempted);
           ("failed", Int failed);
         ]
        @ traced
        @ [
            ("calibration_s", floats [ cal_before; cal_after ]);
            ("peak_rss_kib", Int peak_rss);
          ])
    in
    let b = Buffer.create 65536 in
    to_buffer b out;
    print_endline (Buffer.contents b)
  with Wrong msg ->
    Printf.eprintf "fabbench: wrong answer: %s\n" msg;
    exit 2
