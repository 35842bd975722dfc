open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim
module Topo_store = Dumbnet_control.Topo_store
module Replica = Dumbnet_control.Replica
module Ledger = Dumbnet_control.Ledger
module Discovery = Dumbnet_control.Discovery
module Probe_walk = Dumbnet_control.Probe_walk
module Pool = Dumbnet_util.Pool

let log_src = Dumbnet_util.Logging.src "controller"

module Log = (val Logs.src_log log_src : Logs.LOG)

type repush_stats = {
  repair_rounds : int;
  repushed_pairs : int;
  cached_pairs : int;
  regen_s : float;
  push_s : float;
}

type t = {
  agent : Agent.t;
  store : Topo_store.t;
  replicas : Payload.change Replica.t;
  s : int;
  eps : int;
  jobs : int;
  query_service_ns : int;
  coalesce_ns : int option;
  others : host_id list;
  (* Every path graph the controller has pushed (bootstrap, query
     responses, repairs) and the cable -> pairs subscription index. A
     failure re-pushes exactly the subscribed pairs — the delta re-push
     that replaces the wholesale post-patch storm. *)
  ledger : Ledger.t;
  mutable patches : int;
  mutable repair_rounds : int;
  mutable repushed_pairs : int;
  (* Wall seconds the delta re-push spent in each phase: [regen_s]
     recomputing the affected path graphs (the batch, possibly pooled),
     [push_s] re-recording subscriptions and emitting the response
     frames. Separating them shows whether repair time is compute- or
     dissemination-bound. *)
  mutable regen_s : float;
  mutable push_s : float;
  mutable flush_scheduled : bool;
  mutable busy_until_ns : int;
  mutable prober : Discovery.prober option;
}

let agent t = t.agent

let store t = t.store

let replicas t = t.replicas

let patches_sent t = t.patches

let serve t ~src ~dst =
  Topo_store.serve_path_graph ~s:t.s ~eps:t.eps t.store ~src ~dst

let jobs t = t.jobs

(* Batch entry point for the storm-shaped workloads (bootstrap push,
   post-failure re-push): one call, optionally fanned out over a
   domain pool. jobs = 1 never spawns a domain — the batch runs inline
   on the controller's own core, identical to the sequential path. *)
let serve_batch t queries =
  if Pool.worthwhile ~jobs:t.jobs ~items:(Array.length queries) then
    Pool.with_pool ~jobs:t.jobs (fun pool ->
        Topo_store.serve_path_graphs ~s:t.s ~eps:t.eps ~pool t.store queries)
  else
    (* Too few queries to amortize spawning domains: inline,
       byte-identical to the pooled path. *)
    Topo_store.serve_path_graphs ~s:t.s ~eps:t.eps t.store queries

let cached_pairs t = Ledger.pair_list t.ledger

let cached_graph t ~src ~dst = Ledger.cached_graph t.ledger ~src ~dst

let repush_stats t : repush_stats =
  {
    repair_rounds = t.repair_rounds;
    repushed_pairs = t.repushed_pairs;
    cached_pairs = Ledger.pairs t.ledger;
    regen_s = t.regen_s;
    push_s = t.push_s;
  }

let max_peers = 10

(* Hosts on the same switch first, then hosts at switch distance <= 2,
   nearest first; the controller is always included so every overlay
   reaches it. *)
let flood_peers_of t h =
  let g = Topo_store.graph t.store in
  match Graph.host_location g h with
  | None -> []
  | Some loc ->
    let adj = Graph.adjacency g in
    let ring0 = [ loc.sw ] in
    let ring1 = List.map (fun (_, sw, _) -> sw) (Adjacency.neighbors adj loc.sw) in
    let ring2 =
      List.concat_map
        (fun sw -> List.map (fun (_, z, _) -> z) (Adjacency.neighbors adj sw))
        ring1
    in
    let seen = Hashtbl.create 16 in
    let peers = ref [] in
    let consider sw =
      List.iter
        (fun (_, peer) ->
          if peer <> h && (not (Hashtbl.mem seen peer)) && List.length !peers < max_peers
          then begin
            Hashtbl.replace seen peer ();
            peers := peer :: !peers
          end)
        (Graph.hosts_on_switch g sw)
    in
    List.iter consider (ring0 @ ring1 @ ring2);
    let self = Agent.self t.agent in
    let result = List.rev !peers in
    if h <> self && not (List.mem self result) then self :: result else result

(* Stage 2 as a delta re-push (§4.2): every host still receives the
   patch, but fresh path graphs go only to the pairs whose cached
   subgraph a failed cable actually crossed — the subscription index
   scopes the recompute to the blast radius instead of the fabric.
   Connectivity stays guaranteed: a host whose controller path died
   is, by construction, subscribed to the dead cable and gets a fresh
   graph in the same round. Affected pairs are regenerated as one
   (optionally pooled) batch before any frame goes out. *)
let broadcast_patch t payload changes =
  t.patches <- t.patches + 1;
  let self = Agent.self t.agent in
  let affected = Ledger.affected_pairs t.ledger changes in
  Log.info (fun m ->
      m "controller H%d: broadcasting topology patch #%d (%d/%d pairs re-pushed)"
        (Agent.self t.agent) t.patches (List.length affected) (Ledger.pairs t.ledger));
  List.iter (fun h -> ignore (Agent.send_payload t.agent ~dst:h payload)) t.others;
  match affected with
  | [] -> ()
  | _ :: _ ->
    t.repair_rounds <- t.repair_rounds + 1;
    let queries = Array.of_list affected in
    let t0 = Unix.gettimeofday () in
    let graphs = serve_batch t queries in
    let t1 = Unix.gettimeofday () in
    t.regen_s <- t.regen_s +. (t1 -. t0);
    Array.iteri
      (fun i (src, dst) ->
        match graphs.(i) with
        | Some pg ->
          t.repushed_pairs <- t.repushed_pairs + 1;
          Ledger.record_push t.ledger pg;
          if src <> self then
            ignore (Agent.send_payload t.agent ~dst:src (Payload.Path_response pg))
        | None ->
          (* Currently unroutable (partition): retire the subscription;
             the host re-queries once a restore patch arrives. *)
          Ledger.unsubscribe t.ledger (src, dst))
      queries;
    t.push_s <- t.push_s +. (Unix.gettimeofday () -. t1)

let journal t changes =
  List.iter (fun change -> ignore (Replica.append t.replicas change)) changes

let flush_patch t =
  match Topo_store.take_patch t.store with
  | Some (Payload.Topo_patch { changes; _ } as payload) ->
    journal t changes;
    broadcast_patch t payload changes
  | Some _ | None -> ()

(* Burst coalescing: with [coalesce_ns] set, an applied event arms one
   deferred flush instead of patching immediately; every further event
   landing inside the window joins the same pending-change list, so
   the burst leaves as ONE combined patch and one delta re-push. *)
let schedule_flush t =
  match t.coalesce_ns with
  | None -> flush_patch t
  | Some delay ->
    if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      let engine = Dumbnet_sim.Network.engine (Agent.network t.agent) in
      (Dumbnet_sim.Engine.schedule_at engine
         ~at_ns:(Dumbnet_sim.Engine.now engine + delay)
         (fun () ->
           t.flush_scheduled <- false;
           flush_patch t)
      [@dumbnet.partial
        "flush_patch reaches Pool.run_chunks, whose only raise rethrows an \
         exception from its own callback; the batched serve callbacks are total"])
    end

(* A port-up on a cable the store has never seen: rediscover it with
   targeted probes (§4.2 "the controller will probe the ports to
   discover and verify the newly added links"). The controller knows
   routes to the port's switch, so one F·p·0·q·R·ø scan over the
   candidate return ports finds and confirms the new peer. *)
let probe_new_link t le =
  match t.prober with
  | None -> ()
  | Some prober -> (
    let g = Topo_store.graph t.store in
    let self = Agent.self t.agent in
    match Graph.host_location g self with
    | None -> ()
    | Some own_loc -> (
      let adj = Dumbnet_topology.Routing.graph_adjacency g in
      match
        Dumbnet_topology.Routing.shortest_route adj ~src:own_loc.sw ~dst:le.sw
      with
      | None -> ()
      | Some route_to_sw -> (
        (* Forward tags to the switch, and its reverse back to us. *)
        let snap = Graph.adjacency g in
        let rec ports acc = function
          | [] | [ _ ] -> Some (List.rev acc)
          | a :: (b :: _ as rest) -> (
            match
              List.find_opt (fun (_, peer, _) -> peer = b) (Adjacency.neighbors snap a)
            with
            | Some (out, _, _) -> ports (out :: acc) rest
            | None -> None)
        in
        let rev_route = List.rev route_to_sw in
        match (ports [] route_to_sw, ports [] rev_route) with
        | Some fwd, Some ret_tail -> (
          let ret = ret_tail @ [ own_loc.port ] in
          let tag p = Tag.forward p in
          let probe_tags q =
            List.map tag fwd @ [ tag le.port; Tag.Id_query; tag q ] @ List.map tag ret
            @ [ Tag.End_of_path ]
          in
          let max_ports = Graph.ports_of g le.sw in
          let rec scan q =
            if q > max_ports then ()
            else
              match prober (probe_tags q) with
              | Dumbnet_control.Probe_walk.Switch_id x
                when Graph.endpoint_at g { sw = x; port = q } = None ->
                Log.info (fun m ->
                    m "controller: new link S%d-%d <-> S%d-%d discovered by probing" le.sw
                      le.port x q);
                Topo_store.record_discovered_link t.store le { sw = x; port = q };
                flush_patch t
              | _ -> scan (q + 1)
          in
          scan 1)
        | None, _ | _, None -> ())))

let on_event t event =
  match Topo_store.apply_event t.store event with
  | Topo_store.Applied ->
    (* apply_event already repaired the distance cache in place —
       surgically evicting only the tables the event's cable could
       have changed — so nothing is dropped here anymore. *)
    let r = Topo_store.repair_stats t.store in
    Log.debug (fun m ->
        m "controller H%d: scoped cache repair (lifetime %d evicted / %d retained tables)"
          (Agent.self t.agent) r.Topo_store.evicted_roots r.Topo_store.retained_roots);
    schedule_flush t
  | Topo_store.Ignored -> ()
  | Topo_store.Needs_probe le -> probe_new_link t le

let default_query_service_ns = 40_000

let create ?(replicas = 3) ?(s = 2) ?(eps = 1) ?(jobs = 1)
    ?(query_service_ns = default_query_service_ns) ?coalesce_ns ~agent
    ~topology ~hosts () =
  if jobs < 1 then invalid_arg "Controller.create: jobs must be >= 1";
  (match coalesce_ns with
  | Some d when d < 0 -> invalid_arg "Controller.create: coalesce_ns must be >= 0"
  | Some _ | None -> ());
  let self = Agent.self agent in
  let t =
    {
      agent;
      store = Topo_store.create topology;
      replicas = Replica.create ~replicas;
      s;
      eps;
      jobs;
      query_service_ns;
      coalesce_ns;
      others = List.filter (fun h -> h <> self) hosts;
      ledger = Ledger.create ();
      patches = 0;
      repair_rounds = 0;
      repushed_pairs = 0;
      regen_s = 0.;
      push_s = 0.;
      flush_scheduled = false;
      busy_until_ns = 0;
      prober = None;
    }
  in
  Agent.set_controller agent self;
  Agent.set_local_path_service agent (fun dst -> serve t ~src:self ~dst);
  (* Queries queue at the controller: one CPU serves them in arrival
     order, each costing the path-graph computation plus the userspace
     turnaround. This serialization is what produces the paper's
     synchronized-start tail (Fig 10). *)
  let engine = Dumbnet_sim.Network.engine (Agent.network agent) in
  Agent.set_query_hook agent (fun ~requester ~target ->
      let module Engine = Dumbnet_sim.Engine in
      let start = max (Engine.now engine) t.busy_until_ns in
      let finish = start + t.query_service_ns in
      t.busy_until_ns <- finish;
      (Engine.schedule_at engine ~at_ns:finish (fun () ->
           match serve t ~src:requester ~dst:target with
           | Some pg ->
             (* The requester will cache this graph, so it joins the
                repair ledger: a failure crossing it re-pushes it. *)
             if requester <> self then Ledger.record_push t.ledger pg;
             ignore (Agent.send_payload agent ~dst:requester (Payload.Path_response pg))
           | None -> ())
      [@dumbnet.partial
        "serve reaches Pool.run_chunks, whose only raise rethrows an exception \
         from its own callback; the path-graph serve callbacks are total"]));
  Agent.set_event_hook agent (fun event -> on_event t event);
  t

let bootstrap_push t =
  let self = Agent.self t.agent in
  Agent.set_peers t.agent (flood_peers_of t self);
  (* Plan every path-graph query of the whole push — each host's graph
     back to the controller plus one per flood peer — and serve them as
     a single (optionally parallel) batch. The sends then replay in the
     exact order the sequential implementation used. *)
  let plans = List.map (fun h -> (h, flood_peers_of t h)) t.others in
  let queries =
    Array.of_list
      (List.concat_map
         (fun (h, peers) -> (h, self) :: List.map (fun peer -> (h, peer)) peers)
         plans)
  in
  let graphs = serve_batch t queries in
  let cursor = ref 0 in
  let send_next h =
    (match graphs.(!cursor) with
    | Some pg ->
      Ledger.record_push t.ledger pg;
      ignore (Agent.send_payload t.agent ~dst:h (Payload.Path_response pg))
    | None -> ());
    incr cursor
  in
  List.iter
    (fun (h, peers) ->
      ignore (Agent.send_payload t.agent ~dst:h (Payload.Controller_hello { controller = self }));
      ignore (Agent.send_payload t.agent ~dst:h (Payload.Peer_list { peers }));
      send_next h;
      List.iter (fun _peer -> send_next h) peers)
    plans

let set_prober t prober = t.prober <- Some prober

let start_heartbeats ?(interval_ns = 100_000_000) t ~standbys =
  let engine = Dumbnet_sim.Network.engine (Agent.network t.agent) in
  let self = Agent.self t.agent in
  let rec beat () =
    List.iter
      (fun h ->
        if h <> self then
          ignore (Agent.send_payload t.agent ~dst:h (Payload.Controller_hello { controller = self })))
      standbys;
    Dumbnet_sim.Engine.schedule_daemon engine ~delay_ns:interval_ns beat
  in
  beat ()

(* --- discovery --- *)

let tag_bytes tags = List.map (fun tag -> Char.code (Tag.to_byte tag)) tags

let packet_prober ~agent =
  let net = Agent.network agent in
  let eng = Network.engine net in
  let origin = Agent.self agent in
  let captured = ref None in
  Agent.set_control_sink agent (fun frame -> captured := Some frame);
  fun tags ->
    captured := None;
    let frame =
      Frame.dumbnet ~src:origin ~dst:Frame.Broadcast ~tags
        ~payload:(Payload.Probe { origin; forward_tags = tag_bytes tags })
    in
    Agent.send_raw agent frame;
    Engine.run eng;
    match !captured with
    | None -> Probe_walk.Lost
    | Some f -> (
      match f.Frame.payload with
      | Payload.Probe { origin = o; _ } when o = origin -> Probe_walk.Bounced
      | Payload.Id_reply { switch } -> Probe_walk.Switch_id switch
      | Payload.Probe_reply { responder; knows_controller } ->
        Probe_walk.Host_reply { responder; knows_controller }
      | _ -> Probe_walk.Lost)

let discover ?(packet_level = false) ~agent ~max_ports () =
  let origin = Agent.self agent in
  let prober =
    if packet_level then packet_prober ~agent
    else begin
      let g = Network.graph (Agent.network agent) in
      fun tags -> Probe_walk.probe g ~origin ~tags
    end
  in
  Discovery.run ~prober ~origin ~max_ports ()
