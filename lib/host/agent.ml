open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim
module Event_dedup = Dumbnet_control.Event_dedup

let log_src = Dumbnet_util.Logging.src "agent"

module Log = (val Logs.src_log log_src : Logs.LOG)

type send_result =
  | Sent of Path.t
  | Queued
  | No_route

(* Packets waiting for a path graph, plus when we last asked the
   controller, so an in-flight query is not repeated per packet. *)
type pending_queue = {
  mutable asked_ns : int;
  mutable items : Payload.t list; (* newest first *)
}

let requery_after_ns = 50_000_000

type stats = {
  mutable data_sent : int;
  mutable data_received : int;
  mutable bytes_received : int;
  mutable latency_count : int;
  mutable latency_sum_ns : int;
  mutable latency_max_ns : int;
  mutable latency_last_ns : int;
  mutable queries_sent : int;
  mutable responses_received : int;
  mutable floods_sent : int;
  mutable probe_replies : int;
  mutable bad_frames : int;
}

type t = {
  self : host_id;
  net : Network.t;
  rng : Dumbnet_util.Rng.t;
  cache : Topocache.t;
  table : Pathtable.t;
  dedup : Event_dedup.t;
  stats : stats;
  pending : (host_id, pending_queue) Hashtbl.t; (* awaiting a path graph *)
  mutable ctrl : host_id option;
  mutable peer_hosts : host_id list;
  mutable data_cb : (src:host_id -> Payload.t -> unit) option;
  mutable routing_fn : routing_fn option;
  mutable query_hook : (requester:host_id -> target:host_id -> unit) option;
  mutable event_hook : (Payload.link_event -> unit) option;
  mutable patch_hook : (version:int -> Payload.change list -> unit) option;
  mutable control_sink : (Frame.t -> unit) option;
  mutable mark_hook : (src:host_id -> flow:int -> sent_ns:int -> unit) option;
  mutable echo_hook : (flow:int -> marks:int -> latest_sent_ns:int -> unit) option;
  mutable hello_hook : (controller:host_id -> unit) option;
  mutable transport_hook : (src:host_id -> Payload.t -> unit) option;
  mutable stamp_hook : (src:host_id option -> stamps:Int_stamp.t list -> unit) option;
  mutable int_probe_hook : (seq:int -> sent_ns:int -> stamps:Int_stamp.t list -> unit) option;
  mutable local_paths : (host_id -> Pathgraph.t option) option;
  mutable last_patch_version : int;
  mutable stage1_enabled : bool;
  mutable int_enabled : bool;
}

and routing_fn = t -> now_ns:int -> dst:host_id -> flow:int -> Path.t option

let self t = t.self

let network t = t.net

let stats t = t.stats

let topocache t = t.cache

let pathtable t = t.table

let controller t = t.ctrl

let set_controller t c = t.ctrl <- Some c

let peers t = t.peer_hosts

let set_peers t l = t.peer_hosts <- List.filter (fun h -> h <> t.self) l

let on_data t f = t.data_cb <- Some f

let set_routing_fn t f = t.routing_fn <- f

let set_query_hook t f = t.query_hook <- Some f

let set_event_hook t f = t.event_hook <- Some f

let set_patch_hook t f = t.patch_hook <- Some f

let set_control_sink t f = t.control_sink <- Some f

let set_mark_hook t f = t.mark_hook <- Some f

let set_echo_hook t f = t.echo_hook <- Some f

let set_hello_hook t f = t.hello_hook <- Some f

let set_transport_hook t f = t.transport_hook <- Some f

let set_stamp_hook t f = t.stamp_hook <- Some f

let set_int_probe_hook t f = t.int_probe_hook <- Some f

let set_int_enabled t enabled = t.int_enabled <- enabled

let int_enabled t = t.int_enabled

let set_local_path_service t f = t.local_paths <- Some f

let set_stage1_enabled t enabled = t.stage1_enabled <- enabled

let[@dumbnet.hot] now t = Engine.now (Network.engine t.net)

let[@dumbnet.hot] send_raw t frame = Network.host_send t.net t.self frame

let reveal_topology t ~dst = Topocache.reveal t.cache ~dst

(* Refresh the PathTable entry for [dst] from the cached subgraph. *)
let refresh_table t ~dst =
  match Topocache.materialize t.cache ~dst with
  | Some entry -> Pathtable.set t.table ~dst entry
  | None -> Pathtable.remove t.table ~dst

let learn_pathgraph t pg =
  let pg = if Pathgraph.src pg = t.self then Some pg else Pathgraph.reversed pg in
  match pg with
  | None -> ()
  | Some pg ->
    Topocache.insert t.cache pg;
    refresh_table t ~dst:(Pathgraph.dst pg)

let path_for t ~dst ~flow =
  let custom =
    match t.routing_fn with
    | Some f -> f t ~now_ns:(now t) ~dst ~flow
    | None -> None
  in
  match custom with
  | Some _ as p -> p
  | None -> Pathtable.choose t.table ~dst ~flow

let[@dumbnet.hot] transmit_tags t ~dst ~tags payload =
  let frame = Frame.dumbnet ~src:t.self ~dst:(Frame.Node (Host dst)) ~tags ~payload in
  let frame = if t.int_enabled then Frame.with_int frame else frame in
  send_raw t frame

let[@dumbnet.hot] transmit_along t path payload =
  transmit_tags t ~dst:path.Path.dst ~tags:(Tag.of_ports (Path.tags path)) payload

(* The data send: a custom routing function's path is tagged per
   packet; a Pathtable binding carries the tags built when the flow was
   bound, so a warm send builds only the frame. *)
let[@dumbnet.hot] send_routed t ~dst ~flow payload =
  let custom =
    match t.routing_fn with
    | Some f -> f t ~now_ns:(now t) ~dst ~flow
    | None -> None
  in
  match custom with
  | Some path as sent ->
    transmit_along t path payload;
    sent
  | None -> (
    match Pathtable.choose_binding t.table ~dst ~flow with
    | Some b ->
      transmit_tags t ~dst:b.Pathtable.path.Path.dst ~tags:b.Pathtable.tags payload;
      Some b.Pathtable.path
    | None -> None)

let query_path t ~dst =
  match t.local_paths with
  | Some serve -> (
    match serve dst with
    | Some pg ->
      learn_pathgraph t pg;
      true
    | None -> false)
  | None -> (
    match t.ctrl with
    | None -> false
    | Some c -> (
      if c = dst then false
      else
        match Pathtable.choose t.table ~dst:c ~flow:0 with
        | None -> false
        | Some path ->
          t.stats.queries_sent <- t.stats.queries_sent + 1;
          Log.debug (fun m -> m "H%d: path query for H%d" t.self dst);
          transmit_along t path (Payload.Path_query { requester = t.self; target = dst });
          true))

(* Returns true if the caller should (re)issue a controller query. *)
let enqueue_pending t ~dst payload =
  match Hashtbl.find_opt t.pending dst with
  | Some q ->
    q.items <- payload :: q.items;
    if now t - q.asked_ns > requery_after_ns then begin
      q.asked_ns <- now t;
      true
    end
    else false
  | None ->
    Hashtbl.replace t.pending dst { asked_ns = now t; items = [ payload ] };
    true

let send_payload_result t ~dst payload =
  if dst = t.self then No_route
  else
    match path_for t ~dst ~flow:0 with
    | Some path ->
      transmit_along t path payload;
      Sent path
    | None -> if query_path t ~dst then Queued else No_route

let send_payload t ~dst payload =
  match send_payload_result t ~dst payload with
  | Sent _ as r -> r
  | Queued ->
    (* Control messages are not queued: the caller retries if needed —
       except that a local path service resolves synchronously, so try
       once more. *)
    (match path_for t ~dst ~flow:0 with
    | Some path ->
      transmit_along t path payload;
      Sent path
    | None -> Queued)
  | No_route -> No_route

let flush_pending t ~dst =
  match Hashtbl.find_opt t.pending dst with
  | None -> ()
  | Some q ->
    let payloads = List.rev q.items in
    Hashtbl.remove t.pending dst;
    List.iter
      (fun payload ->
        match path_for t ~dst ~flow:0 with
        | Some path ->
          (match payload with
          | Payload.Data _ -> t.stats.data_sent <- t.stats.data_sent + 1
          | _ -> ());
          transmit_along t path payload
        | None -> ())
      payloads

let send_data t ~dst ~flow ?(seq = 0) ~size () =
  if dst = t.self then No_route
  else begin
    let payload = Payload.Data { flow; seq; size; sent_ns = now t } in
    match send_routed t ~dst ~flow payload with
    | Some path ->
      t.stats.data_sent <- t.stats.data_sent + 1;
      Sent path
    | None ->
      let want_query = enqueue_pending t ~dst payload in
      if (not want_query) || query_path t ~dst then begin
        (* A local path service fills the table synchronously. *)
        match path_for t ~dst ~flow with
        | Some path ->
          flush_pending t ~dst;
          Sent path
        | None -> Queued
      end
      else begin
        Hashtbl.remove t.pending dst;
        No_route
      end
  end

let install_custom_path t ~dst path =
  match (Topocache.get t.cache ~dst, reveal_topology t ~dst) with
  | None, _ | _, None -> Error (Verifier.Policy_rejected "no cached topology for destination")
  | Some pg, Some view -> (
    (* Verify structurally inside the revealed view; the endpoints come
       from the cached path graph itself. *)
    let v =
      Verifier.create ~view ~src_loc:(Pathgraph.src_loc pg) ~dst_loc:(Pathgraph.dst_loc pg) ()
    in
    match Verifier.verify v path with
    | Ok () ->
      (match Pathtable.lookup t.table ~dst with
      | Some entry ->
        Pathtable.set t.table ~dst { entry with Pathtable.paths = path :: entry.Pathtable.paths }
      | None -> Pathtable.set t.table ~dst { Pathtable.paths = [ path ]; backup = None });
      Ok ()
    | Error e -> Error e)

(* --- failure handling, stage 1 (host side) --- *)

(* Telemetry-driven demotion: treat a gray-failure link exactly like a
   stage-1 down notification — overlay the end as failed and drop every
   cached path through it — but without any switch alarm or controller
   round. The health monitor calls this when estimates cross thresholds. *)
let demote_link t le =
  Topocache.note_end t.cache le ~up:false;
  let dropped = Pathtable.invalidate_end t.table le in
  let dropped_other =
    match Topocache.resolve_end t.cache le with
    | Some other -> Pathtable.invalidate_end t.table other
    | None -> 0
  in
  if dropped + dropped_other > 0 then
    Log.debug (fun m ->
        m "H%d: telemetry demoted S%d-%d, %d destinations rerouted" t.self le.sw le.port
          (dropped + dropped_other));
  dropped + dropped_other

let promote_link t le =
  Topocache.note_end t.cache le ~up:true;
  List.iter
    (fun dst ->
      if Pathtable.restore_requires_requery t.table ~dst then refresh_table t ~dst)
    (Topocache.known t.cache)

let handle_link_event t (event : Payload.link_event) ~reflood =
  if Event_dedup.fresh t.dedup event then begin
    let le = event.position in
    if not t.stage1_enabled then begin
      (* Ablation mode: hosts ignore stage-1 notifications and recover
         only from the controller's stage-2 patches. The hook still
         fires so experiments can timestamp arrival. *)
      match t.event_hook with
      | Some f -> f event
      | None -> ()
    end
    else begin
    Topocache.note_end t.cache le ~up:event.up;
    if not event.up then begin
      let dropped = Pathtable.invalidate_end t.table le in
      (match Topocache.resolve_end t.cache le with
      | Some other -> ignore (Pathtable.invalidate_end t.table other)
      | None -> ());
      if dropped > 0 then
        Log.debug (fun m ->
            m "H%d: S%d-%d down, %d destinations failed over from cache" t.self le.sw le.port
              dropped)
    end
    else
      (* A restored link can only improve entries; refresh the degraded
         ones from their cached subgraphs. *)
      List.iter
        (fun dst ->
          if Pathtable.restore_requires_requery t.table ~dst then refresh_table t ~dst)
        (Topocache.known t.cache);
    (match t.event_hook with
    | Some f -> f event
    | None -> ());
    if reflood then begin
      let payload = Payload.Host_flood { event; origin = t.self } in
      List.iter
        (fun peer ->
          match path_for t ~dst:peer ~flow:0 with
          | Some path ->
            t.stats.floods_sent <- t.stats.floods_sent + 1;
            transmit_along t path payload
          | None -> ())
        t.peer_hosts
    end
    end
  end

let handle_patch t ~version ~changes =
  if version > t.last_patch_version then begin
    t.last_patch_version <- version;
    List.iter
      (fun change ->
        match change with
        | Payload.Link_failed (a, b) ->
          Topocache.note_end t.cache a ~up:false;
          Topocache.note_end t.cache b ~up:false;
          ignore (Pathtable.invalidate_link t.table (Link_key.make a b))
        | Payload.Link_restored (a, b) ->
          Topocache.note_end t.cache a ~up:true;
          Topocache.note_end t.cache b ~up:true
        | Payload.Link_discovered _ -> ()
        | Payload.Switch_removed _ -> ())
      changes;
    (* The patch may enable better paths for degraded destinations:
       re-query the controller for them. *)
    List.iter
      (fun dst ->
        if Pathtable.restore_requires_requery t.table ~dst then begin
          refresh_table t ~dst;
          if Pathtable.restore_requires_requery t.table ~dst then ignore (query_path t ~dst)
        end)
      (Topocache.known t.cache);
    (match t.patch_hook with
    | Some f -> f ~version changes
    | None -> ());
    (* Patches propagate over the same host overlay. *)
    List.iter
      (fun peer ->
        match path_for t ~dst:peer ~flow:0 with
        | Some path -> transmit_along t path (Payload.Topo_patch { version; changes })
        | None -> ())
      t.peer_hosts
  end

(* --- receive path --- *)

let deliver_data t ~src payload =
  (match payload with
  | Payload.Data { size; sent_ns; _ } ->
    t.stats.data_received <- t.stats.data_received + 1;
    t.stats.bytes_received <- t.stats.bytes_received + size;
    let latency = now t - sent_ns in
    t.stats.latency_count <- t.stats.latency_count + 1;
    t.stats.latency_sum_ns <- t.stats.latency_sum_ns + latency;
    if latency > t.stats.latency_max_ns then t.stats.latency_max_ns <- latency;
    t.stats.latency_last_ns <- latency
  | _ -> ());
  match t.data_cb with
  | Some f -> f ~src payload
  | None -> ()

let src_host (frame : Frame.t) =
  match frame.Frame.src with
  | Frame.Node (Host h) -> Some h
  | Frame.Node (Switch _) | Frame.Broadcast -> None

let handle_clean_payload t frame =
  match frame.Frame.payload with
  | Payload.Data { flow; sent_ns; _ } as d ->
    let src = Option.value ~default:(-1) (src_host frame) in
    (* Congestion-experienced mark: tell the ECN extension, if any. *)
    (if frame.Frame.ecn then
       match t.mark_hook with
       | Some f -> f ~src ~flow ~sent_ns
       | None -> ());
    deliver_data t ~src d
  | Payload.Probe { origin; _ } ->
    if origin = t.self then begin
      (* Our own probe bounced with nothing left: control traffic. *)
      match t.control_sink with
      | Some f -> f frame
      | None -> ()
    end
  | Payload.Probe_reply _ | Payload.Id_reply _ -> (
    match t.control_sink with
    | Some f -> f frame
    | None -> ())
  | Payload.Port_notice { event; _ } -> handle_link_event t event ~reflood:true
  | Payload.Host_flood { event; _ } -> handle_link_event t event ~reflood:true
  | Payload.Topo_patch { version; changes } -> handle_patch t ~version ~changes
  | Payload.Path_query { requester; target } -> (
    match t.query_hook with
    | Some f -> f ~requester ~target
    | None -> ())
  | Payload.Path_response pg ->
    t.stats.responses_received <- t.stats.responses_received + 1;
    learn_pathgraph t pg;
    let dst = if Pathgraph.src pg = t.self then Pathgraph.dst pg else Pathgraph.src pg in
    flush_pending t ~dst
  | Payload.Controller_hello { controller } ->
    set_controller t controller;
    (match t.hello_hook with
    | Some f -> f ~controller
    | None -> ())
  | Payload.Peer_list { peers } -> set_peers t peers
  | Payload.Ecn_echo { flow; marks; latest_sent_ns } -> (
    match t.echo_hook with
    | Some f -> f ~flow ~marks ~latest_sent_ns
    | None -> ())
  | (Payload.Rts _ | Payload.Token _) as p -> (
    match t.transport_hook with
    | Some f -> f ~src:(Option.value ~default:(-1) (src_host frame)) p
    | None -> ())
  | Payload.Int_probe { origin; seq; sent_ns } ->
    (* A loop probe comes home carrying its stamp chain; a foreign one
       (misrouted or a future one-way probe) is just dropped. *)
    if origin = t.self then (
      match t.int_probe_hook with
      | Some f -> f ~seq ~sent_ns ~stamps:(Frame.int_stamps frame)
      | None -> ())

(* A probe with leftover tags: reply along them (§4.1). *)
let probe_service t frame leftover =
  match frame.Frame.payload with
  | Payload.Probe { origin; _ } when origin <> t.self -> (
    match List.rev leftover with
    | Tag.End_of_path :: _ ->
      t.stats.probe_replies <- t.stats.probe_replies + 1;
      let reply =
        Frame.dumbnet ~src:t.self ~dst:(Frame.Node (Host origin)) ~tags:leftover
          ~payload:(Payload.Probe_reply { responder = t.self; knows_controller = t.ctrl })
      in
      send_raw t reply
    | _ -> t.stats.bad_frames <- t.stats.bad_frames + 1)
  | Payload.Probe _ -> (
    (* Our own probe returned with tags to spare: a bounce. *)
    match t.control_sink with
    | Some f -> f frame
    | None -> ())
  | _ -> t.stats.bad_frames <- t.stats.bad_frames + 1

let receive t (frame : Frame.t) =
  (* Any stamped frame feeds the collector, whatever its payload: data,
     probes and even control traffic all report on the path they took. *)
  (match t.stamp_hook with
  | Some f when Frame.stamp_count frame > 0 ->
    f ~src:(src_host frame) ~stamps:(Frame.int_stamps frame)
  | Some _ | None -> ());
  if frame.Frame.ethertype = Frame.ethertype_notice then begin
    match frame.Frame.payload with
    | Payload.Port_notice { event; _ } -> handle_link_event t event ~reflood:true
    | _ -> t.stats.bad_frames <- t.stats.bad_frames + 1
  end
  else if frame.Frame.ethertype = Frame.ethertype_dumbnet then begin
    match frame.Frame.tags with
    | [ Tag.End_of_path ] -> handle_clean_payload t { frame with Frame.tags = [] }
    | [] -> t.stats.bad_frames <- t.stats.bad_frames + 1
    | leftover -> probe_service t frame leftover
  end
  else
    (* Plain Ethernet/IP frame delivered locally. *)
    handle_clean_payload t frame

let create ?k ?(nic = Nic.Dumbnet_agent) ~network:net ~rng ~self () =
  let t =
    {
      self;
      net;
      rng;
      cache = Topocache.create ?k ~rng ();
      table = Pathtable.create ();
      dedup = Event_dedup.create ();
      stats =
        {
          data_sent = 0;
          data_received = 0;
          bytes_received = 0;
          latency_count = 0;
          latency_sum_ns = 0;
          latency_max_ns = 0;
          latency_last_ns = 0;
          queries_sent = 0;
          responses_received = 0;
          floods_sent = 0;
          probe_replies = 0;
          bad_frames = 0;
        };
      pending = Hashtbl.create 8;
      ctrl = None;
      peer_hosts = [];
      data_cb = None;
      routing_fn = None;
      query_hook = None;
      event_hook = None;
      patch_hook = None;
      control_sink = None;
      mark_hook = None;
      echo_hook = None;
      hello_hook = None;
      transport_hook = None;
      stamp_hook = None;
      int_probe_hook = None;
      local_paths = None;
      last_patch_version = 0;
      stage1_enabled = true;
      int_enabled = false;
    }
  in
  Network.set_host_nic net self nic;
  Network.set_host_handler net self (receive t);
  t
