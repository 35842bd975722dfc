(* Tests for the discrete-event simulator: engine semantics, link
   timing, queue drops, NIC models, failure injection. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
open Dumbnet.Packet
module Engine = Dumbnet.Sim.Engine
module Network = Dumbnet.Sim.Network
module Nic = Dumbnet.Sim.Nic
module Agent = Dumbnet.Host.Agent
module Fabric = Dumbnet.Fabric
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- engine --- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay_ns:30 (fun () -> log := 3 :: !log);
  Engine.schedule eng ~delay_ns:10 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~delay_ns:20 (fun () -> log := 2 :: !log);
  Engine.run eng;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" 30 (Engine.now eng)

let test_engine_fifo_same_time () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay_ns:5 (fun () -> log := "a" :: !log);
  Engine.schedule eng ~delay_ns:5 (fun () -> log := "b" :: !log);
  Engine.run eng;
  check Alcotest.(list string) "fifo" [ "a"; "b" ] (List.rev !log)

let test_engine_cascading () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule eng ~delay_ns:10 tick
  in
  Engine.schedule eng ~delay_ns:0 tick;
  Engine.run eng;
  check Alcotest.int "cascade" 5 !count;
  check Alcotest.int "clock" 40 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~delay_ns:100 (fun () -> fired := true);
  Engine.run ~until_ns:50 eng;
  Alcotest.(check bool) "not yet" false !fired;
  check Alcotest.int "clock advanced to limit" 50 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "eventually" true !fired

(* Where an event waits must not change when it fires: a heap event and
   a line event due at the same instant fire in scheduling order. *)
let test_engine_line_ties_heap () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  let line = Engine.line eng ~delay_ns:10 in
  Engine.schedule_at eng ~at_ns:10 (note "heap 1");
  Engine.schedule_line line (note "line 1");
  Engine.schedule eng ~delay_ns:10 (note "heap 2");
  Engine.schedule_daemon eng ~delay_ns:10 (note "daemon");
  Engine.schedule_line line (note "line 2");
  Alcotest.(check bool) "one line per delay" true (Engine.line eng ~delay_ns:10 == line);
  check Alcotest.int "pending counts the line" 5 (Engine.pending eng);
  Engine.run eng;
  check
    Alcotest.(list string)
    "scheduling order"
    [ "heap 1"; "line 1"; "heap 2"; "daemon"; "line 2" ]
    (List.rev !log);
  check Alcotest.int "clock" 10 (Engine.now eng)

let test_engine_rejects_past () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay_ns:10 (fun () -> ());
  Engine.run eng;
  Alcotest.(check bool) "negative delay" true
    (try
       Engine.schedule eng ~delay_ns:(-1) (fun () -> ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "past schedule_at" true
    (try
       Engine.schedule_at eng ~at_ns:5 (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* A random schedule tree: every node is one [schedule] (kind 0),
   [schedule_at] (kind 1), [schedule_daemon] (kind 2),
   [schedule_line] (kind 3, on the engine's line for a delay of 0, 2
   or 4) or [tally_at] (kind 4, on one of two tallies by the node's
   parity) call with a small delay, so many events share a fire time —
   line events and tally arrivals tie with heap events and daemons; its
   children are issued from inside the node's event when it fires. A
   tally arrival runs nothing, so its node has no children. *)
type sched_op = {
  id : int;
  kind : int;
  delay : int;
  children : sched_op list;
}

let sched_forest_gen =
  let open QCheck.Gen in
  let rec tree depth =
    int_bound 4 >>= fun kind ->
    (if kind = 3 then oneofl [ 0; 2; 4 ] else int_bound 4) >>= fun delay ->
    (if depth = 0 || kind = 4 then return []
     else list_size (frequency [ (3, return 0); (2, int_range 1 3) ]) (tree (depth - 1)))
    >>= fun children -> return { id = 0; kind; delay; children }
  in
  list_size (int_range 0 40) (tree 3)

(* Number the nodes in preorder so both runs name events alike. *)
let label_forest raw =
  let next = ref 0 in
  let rec label op =
    let id = !next in
    incr next;
    { op with id; children = List.map label op.children }
  in
  List.map label raw

let rec pp_sched_op op =
  Printf.sprintf "%d:%c+%d[%s]" op.id
    (match op.kind with
    | 0 -> 's'
    | 1 -> 'a'
    | 2 -> 'd'
    | 3 -> 'l'
    | _ -> 't')
    op.delay
    (String.concat " " (List.map pp_sched_op op.children))

(* What a run observes: per fired event (id, now, pending,
   pending_regular, events_processed, each tally's count) read inside
   the event, then one (-1, ...) row after each [run] call. *)
let engine_trace forest runs =
  let eng = Engine.create () in
  let tallies = [| Engine.tally eng; Engine.tally eng |] in
  let log = ref [] in
  let row id =
    ( id,
      Engine.now eng,
      Engine.pending eng,
      Engine.pending_regular eng,
      Engine.events_processed eng,
      Engine.tallied tallies.(0),
      Engine.tallied tallies.(1) )
  in
  let rec issue op =
    let fire () =
      log := row op.id :: !log;
      List.iter issue op.children
    in
    match op.kind with
    | 0 -> Engine.schedule eng ~delay_ns:op.delay fire
    | 1 -> Engine.schedule_at eng ~at_ns:(Engine.now eng + op.delay) fire
    | 2 -> Engine.schedule_daemon eng ~delay_ns:op.delay fire
    | 3 -> Engine.schedule_line (Engine.line eng ~delay_ns:op.delay) fire
    | _ -> Engine.tally_at tallies.(op.id land 1) ~at_ns:(Engine.now eng + op.delay)
  in
  List.iter issue forest;
  List.iter
    (fun until_ns ->
      Engine.run ?until_ns eng;
      log := row (-1) :: !log)
    runs;
  List.rev !log

(* The reference: a list kept sorted by (time, insertion order), where
   a tally arrival is an event that only counts itself. *)
let model_trace forest runs =
  let clock = ref 0 and seq = ref 0 and pending = ref [] and log = ref [] in
  let processed = ref 0 and tallied = [| 0; 0 |] in
  let push at daemon op =
    let s = !seq in
    incr seq;
    let rec insert = function
      | ((at', s', _, _) as e) :: rest when at' < at || (at' = at && s' < s) -> e :: insert rest
      | l -> (at, s, daemon, op) :: l
    in
    pending := insert !pending
  in
  let regular () = List.length (List.filter (fun (_, _, d, _) -> not d) !pending) in
  let issue op = push (!clock + op.delay) (op.kind = 2) op in
  List.iter issue forest;
  List.iter
    (fun until_ns ->
      let continue = ref true in
      while !continue do
        match !pending with
        | [] -> continue := false
        | (at, _, _, op) :: rest -> (
          if until_ns = None && regular () = 0 then continue := false
          else
            match until_ns with
            | Some limit when at > limit -> continue := false
            | Some _ | None ->
              pending := rest;
              clock := max !clock at;
              incr processed;
              if op.kind = 4 then tallied.(op.id land 1) <- tallied.(op.id land 1) + 1
              else begin
                log :=
                  ( op.id,
                    !clock,
                    List.length rest,
                    regular (),
                    !processed,
                    tallied.(0),
                    tallied.(1) )
                  :: !log;
                List.iter issue op.children
              end)
      done;
      (match until_ns with
      | Some limit when !clock < limit -> clock := limit
      | Some _ | None -> ());
      log :=
        (-1, !clock, List.length !pending, regular (), !processed, tallied.(0), tallied.(1))
        :: !log)
    runs;
  List.rev !log

let engine_model_prop =
  let gen =
    QCheck.Gen.(
      pair sched_forest_gen
        (list_size (int_range 0 3) (opt (int_bound 12)) >|= fun runs -> runs @ [ None ]))
  in
  let print (raw, runs) =
    Printf.sprintf "forest=[%s] runs=[%s]"
      (String.concat "; " (List.map pp_sched_op (label_forest raw)))
      (String.concat "; "
         (List.map (function Some l -> string_of_int l | None -> "-") runs))
  in
  QCheck.Test.make ~name:"engine matches sorted-list model" ~count:300
    (QCheck.make ~print gen)
    (fun (raw, runs) ->
      let forest = label_forest raw in
      engine_trace forest runs = model_trace forest runs)

(* Pins the whole event order of a small fabric run: elephants plus
   mice over fat-tree k=4, with one uplink failing and coming back while
   they run. Any change to the scheduler's (time, insertion) order or
   to per-hop timing moves this digest. *)
let fabric_golden_digest () =
  let built = Builder.fat_tree ~k:4 () in
  let fab = Fabric.create ~seed:11 built in
  let eng = Fabric.engine fab in
  let hosts = Array.of_list (Fabric.hosts fab) in
  let n = Array.length hosts in
  let rng = Rng.create 5 in
  (* (src, dst, packets, packet bytes, gap ns, start ns) *)
  let elephants =
    List.init n (fun i -> (hosts.(i), hosts.((i + (n / 2)) mod n), 40, 1450, 8_000, Rng.int rng 20_000))
  in
  let mice =
    List.init 24 (fun _ ->
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        (hosts.(i), hosts.(j), 4, 256, 1_000, Rng.int rng 300_000))
  in
  let flows = Array.of_list (elephants @ mice) in
  let received = Array.make (Array.length flows) 0 in
  let done_ns = Array.make (Array.length flows) (-1) in
  let t0 = Engine.now eng in
  Array.iter
    (fun h ->
      Agent.on_data (Fabric.agent fab h) (fun ~src:_ payload ->
          match payload with
          | Payload.Data { flow; size; _ } ->
            let _, _, pkts, pkt, _, _ = flows.(flow) in
            received.(flow) <- received.(flow) + size;
            if received.(flow) >= pkts * pkt && done_ns.(flow) < 0 then
              done_ns.(flow) <- Engine.now eng - t0
          | _ -> ()))
    hosts;
  Array.iteri
    (fun id (src, dst, pkts, pkt, gap, start) ->
      let rec pump seq () =
        ignore (Agent.send_data (Fabric.agent fab src) ~dst ~flow:id ~seq ~size:pkt ());
        if seq + 1 < pkts then Engine.schedule eng ~delay_ns:gap (pump (seq + 1))
      in
      Engine.schedule_at eng ~at_ns:(t0 + start) (pump 0))
    flows;
  (* The highest-numbered switch is an edge switch; its first uplink
     carries the elephants of the hosts below it. *)
  let g = Network.graph (Fabric.network fab) in
  let edge = List.fold_left max 0 (Graph.switch_ids g) in
  let cable =
    match Graph.switch_neighbors g edge with
    | (port, _, _) :: _ -> { sw = edge; port }
    | [] -> Alcotest.fail "edge switch has no uplinks"
  in
  Engine.schedule_at eng ~at_ns:(t0 + 150_000) (fun () -> Fabric.fail_link fab cable);
  Engine.schedule_at eng ~at_ns:(t0 + 1_500_000) (fun () -> Fabric.restore_link fab cable);
  Fabric.run fab;
  let st = Network.stats (Fabric.network fab) in
  let buf = Buffer.create 1024 in
  Array.iteri (fun i d -> Printf.bprintf buf "%d@%d;" i d) done_ns;
  Printf.bprintf buf "events=%d;" (Engine.events_processed eng);
  Printf.bprintf buf "tx=%d rx=%d hops=%d qd=%d dd=%d bytes=%d ecn=%d int=%d silent=%d mirrors=%d"
    st.Network.host_tx st.Network.host_rx st.Network.switch_hops st.Network.queue_drops
    st.Network.dataplane_drops st.Network.bytes_delivered st.Network.ecn_marked
    st.Network.int_stamped st.Network.silent_drops st.Network.probe_mirrors;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_fabric_golden_digest () =
  check Alcotest.string "fabric run digest" "03ec16361d9d3663a9c687978776ec33" (fabric_golden_digest ())

(* Pins a §4.2 stage-1 flood through fat-tree k=4: one core uplink
   fails and, past the monitors' suppression window, comes back, while
   data frames cross the fabric. A daemon beat every 250 ns snapshots
   the clock, the engine's counts and the network counters mid-run, and
   bounded runs cut each flood twice; every host logs when each notice
   copy reaches it. A last failure floods with every host unplugged, so
   that flood ends on copies that reach a switch only to expire. Most of
   every flood is such copies, so this digest moves if their arrivals
   are counted at the wrong instant or stop keeping the daemon alive. *)
let flood_golden_digest () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:g () in
  let buf = Buffer.create 65536 in
  let snap tag =
    let st = Network.stats net in
    Printf.bprintf buf "%s@%d ev=%d pend=%d reg=%d hops=%d dd=%d tx=%d rx=%d qd=%d;\n" tag
      (Engine.now eng) (Engine.events_processed eng) (Engine.pending eng)
      (Engine.pending_regular eng) st.Network.switch_hops st.Network.dataplane_drops
      st.Network.host_tx st.Network.host_rx st.Network.queue_drops
  in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.iter
    (fun h ->
      Network.set_host_handler net h (fun f ->
          match f.Frame.payload with
          | Payload.Port_notice { hops_left; _ } ->
            Printf.bprintf buf "n%d@%d/%d;" h (Engine.now eng) hops_left
          | _ -> Printf.bprintf buf "d%d@%d;" h (Engine.now eng)))
    hosts;
  let beating = ref true in
  let rec beat () =
    if !beating then begin
      snap "b";
      Engine.schedule_daemon eng ~delay_ns:250 beat
    end
  in
  let send_data ~at_ns =
    Array.iteri
      (fun i src ->
        let dst = hosts.((i + (n / 2)) mod n) in
        match Routing.host_route g ~src ~dst with
        | Some p ->
          Engine.schedule_at eng ~at_ns (fun () ->
              Network.host_send net src
                (Frame.along_path ~src ~dst ~tags_of:(Path.tags p)
                   ~payload:(Payload.Data { flow = i; seq = 0; size = 1000; sent_ns = 0 })))
        | None -> Alcotest.fail "no route")
      hosts
  in
  (* The highest-numbered switch is an edge switch; fail its first
     uplink's far end, an aggregation port facing it. *)
  let edge = List.fold_left max 0 (Graph.switch_ids g) in
  let cable =
    match Graph.switch_neighbors g edge with
    | (port, _, _) :: _ -> (
      match Graph.peer_port g { sw = edge; port } with
      | Some far -> far
      | None -> Alcotest.fail "uplink has no far end")
    | [] -> Alcotest.fail "edge switch has no uplinks"
  in
  let flood_through ~data =
    beating := true;
    Engine.schedule_daemon eng ~delay_ns:0 beat;
    let t0 = Engine.now eng in
    if data then send_data ~at_ns:(t0 + 1_000);
    Engine.schedule_at eng ~at_ns:(t0 + 2_000) (fun () ->
        if Graph.link_up g cable then Network.fail_link net cable
        else Network.restore_link net cable);
    Engine.run ~until_ns:(t0 + 4_000) eng;
    snap "u1";
    Engine.run ~until_ns:(t0 + 6_500) eng;
    snap "u2";
    Engine.run eng;
    snap "idle";
    beating := false
  in
  let quiet () =
    (* Past the monitors' one-second suppression window. *)
    Engine.run ~until_ns:(Engine.now eng + 1_100_000_000) eng;
    snap "quiet"
  in
  flood_through ~data:true;
  quiet ();
  flood_through ~data:true;
  quiet ();
  Array.iter
    (fun h ->
      match Graph.host_location g h with
      | Some le -> Graph.remove_link g le
      | None -> Alcotest.fail "host detached")
    hosts;
  flood_through ~data:false;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_flood_golden_digest () =
  check Alcotest.string "flood run digest" "aa7e522b3d3c566186c5a3ecf4974310" (flood_golden_digest ())

(* --- network timing --- *)

let two_hosts () =
  let b = Builder.leaf_spine ~spines:1 ~leaves:1 ~hosts_per_leaf:2 () in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:b.Builder.graph () in
  (b, eng, net)

let data size = Payload.Data { flow = 0; seq = 0; size; sent_ns = 0 }

let send_one net ~src ~dst ~size =
  (* Hosts hang off ports 2 and 3 of the single leaf (port 1 faces the
     spine). *)
  let tags = [ if dst = 0 then 2 else 3 ] in
  Network.host_send net src (Frame.along_path ~src ~dst ~tags_of:tags ~payload:(data size))

let test_delivery_and_latency () =
  let _, eng, net = two_hosts () in
  let arrived = ref (-1) in
  Network.set_host_handler net 1 (fun _ -> arrived := Engine.now eng);
  Network.set_host_nic net 0 Nic.Native;
  Network.set_host_nic net 1 Nic.Native;
  send_one net ~src:0 ~dst:1 ~size:1000;
  Engine.run eng;
  Alcotest.(check bool) "delivered" true (!arrived > 0);
  (* tx 15us + wire (~2x(ser+prop)+switch) + rx 15us: must be in the
     30-40 microsecond band for a 1 KB frame at 10G. *)
  Alcotest.(check bool) "latency plausible" true (!arrived > 30_000 && !arrived < 40_000);
  let st = Network.stats net in
  check Alcotest.int "host_tx" 1 st.Network.host_tx;
  check Alcotest.int "host_rx" 1 st.Network.host_rx;
  check Alcotest.int "one switch hop" 1 st.Network.switch_hops

let test_nic_gap_paces () =
  let _, eng, net = two_hosts () in
  let times = ref [] in
  Network.set_host_handler net 1 (fun _ -> times := Engine.now eng :: !times);
  for _ = 1 to 5 do
    send_one net ~src:0 ~dst:1 ~size:1450
  done;
  Engine.run eng;
  let times = List.rev !times in
  check Alcotest.int "all delivered" 5 (List.length times);
  let gaps =
    List.map2 (fun a b -> b - a)
      (List.filteri (fun i _ -> i < 4) times)
      (List.tl times)
  in
  List.iter
    (fun g ->
      check Alcotest.int "spacing = NIC min gap" (Nic.min_tx_gap_ns Nic.Dumbnet_agent) g)
    gaps

let test_queue_drops_under_overload () =
  let b = Builder.leaf_spine ~spines:1 ~leaves:2 ~hosts_per_leaf:2 () in
  let eng = Engine.create () in
  let config = { Network.default_config with queue_bytes = 10_000; bandwidth_gbps = 0.1 } in
  let net = Network.create ~config ~engine:eng ~graph:b.Builder.graph () in
  (* Both leaf-0 hosts blast through the single 0.1 Gbps uplink. *)
  for _ = 1 to 200 do
    Network.host_send net 0
      (Frame.along_path ~src:0 ~dst:2 ~tags_of:[ 1; 2; 2 ] ~payload:(data 1450))
  done;
  Engine.run eng;
  let st = Network.stats net in
  Alcotest.(check bool) "drops happened" true (st.Network.queue_drops > 0);
  Alcotest.(check bool) "some delivered" true (st.Network.host_rx > 0);
  check Alcotest.int "conservation" 200 (st.Network.host_rx + st.Network.queue_drops)

let test_fail_link_emits_notices () =
  let b = Builder.figure1 () in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:b.Builder.graph () in
  let notices = ref 0 in
  List.iter
    (fun h ->
      Network.set_host_handler net h (fun f ->
          match f.Frame.payload with
          | Payload.Port_notice _ -> incr notices
          | _ -> ()))
    (Graph.host_ids b.Builder.graph);
  Network.fail_link net { sw = 2; port = 1 };
  Engine.run eng;
  Alcotest.(check bool) "link down in graph" false
    (Graph.link_up (Network.graph net) { sw = 2; port = 1 });
  (* Both end switches broadcast; every host hears at least one copy. *)
  Alcotest.(check bool) "notices flooded" true (!notices >= Graph.num_hosts b.Builder.graph);
  check Alcotest.int "monitor fired once" 1
    (Dumbnet.Switch.Monitor.alarms_emitted (Network.monitor net 2))

let test_restore_link () =
  let b = Builder.figure1 () in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:b.Builder.graph () in
  Network.fail_link net { sw = 2; port = 1 };
  Engine.run eng;
  (* Within the suppression window the up-notice is muted, but state
     recovers. *)
  Network.restore_link net { sw = 2; port = 1 };
  Engine.run eng;
  Alcotest.(check bool) "up again" true (Graph.link_up (Network.graph net) { sw = 2; port = 1 })

let test_send_on_dead_access_link () =
  let b, eng, net = two_hosts () in
  ignore b;
  let delivered = ref 0 in
  Network.set_host_handler net 1 (fun f ->
      match f.Frame.payload with
      | Payload.Data _ -> incr delivered
      | _ -> ());
  (match Graph.host_location (Network.graph net) 0 with
  | Some le -> Network.fail_link net le
  | None -> Alcotest.fail "host detached");
  Engine.run eng;
  send_one net ~src:0 ~dst:1 ~size:100;
  Engine.run eng;
  check Alcotest.int "nothing delivered" 0 !delivered

(* The frame is already in host 0's transmit stack when its access link
   fails: counted as sent, never delivered, so it must be counted as a
   NIC drop. The only frame host 1 sees is the port-down notice. *)
let test_nic_drop_at_departure () =
  let _, eng, net = two_hosts () in
  let delivered = ref 0 in
  Network.set_host_handler net 1 (fun f ->
      match f.Frame.payload with
      | Payload.Data _ -> incr delivered
      | _ -> ());
  send_one net ~src:0 ~dst:1 ~size:1000;
  (match Graph.host_location (Network.graph net) 0 with
  | Some le -> Engine.schedule eng ~delay_ns:1_000 (fun () -> Network.fail_link net le)
  | None -> Alcotest.fail "host detached");
  Engine.run eng;
  let st = Network.stats net in
  check Alcotest.int "host_tx" 1 st.Network.host_tx;
  check Alcotest.int "no data delivered" 0 !delivered;
  check Alcotest.int "host_rx is the notice" 1 st.Network.host_rx;
  check Alcotest.int "nic_drops" 1 st.Network.nic_drops;
  check Alcotest.int "no other drop" 0
    (st.Network.queue_drops + st.Network.dataplane_drops + st.Network.silent_drops)

(* Host 0 moves from leaf A to leaf B's free port between two sends:
   the second send must enter the fabric at the new port. *)
let test_host_moved () =
  let b = Builder.leaf_spine ~spines:1 ~leaves:2 ~hosts_per_leaf:2 () in
  let g = b.Builder.graph in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:g () in
  let loc h =
    match Graph.host_location g h with
    | Some le -> le
    | None -> Alcotest.fail "host detached"
  in
  let a = loc 0 and peer = loc 1 and dst = loc 2 and freed = loc 3 in
  Alcotest.(check bool) "hosts 0, 1 share a leaf" true (a.sw = peer.sw && a.sw <> dst.sw);
  let got = Array.make 3 0 in
  List.iter
    (fun h -> Network.set_host_handler net h (fun _ -> got.(h) <- got.(h) + 1))
    [ 1; 2 ];
  let send tag dst =
    Network.host_send net 0
      (Frame.along_path ~src:0 ~dst ~tags_of:[ tag ] ~payload:(data 500))
  in
  send peer.port 1;
  Engine.run eng;
  check Alcotest.int "first send to the old neighbour" 1 got.(1);
  Graph.remove_link g freed;
  Graph.remove_link g a;
  Graph.attach_host g 0 freed;
  (* One tag: out of leaf B's port to host 2. Entering at the old leaf
     it would leave by an empty port. *)
  send dst.port 2;
  Engine.run eng;
  check Alcotest.int "second send through the new port" 1 got.(2);
  check Alcotest.int "entered leaf B at the freed port" 1
    (fst (Network.port_counters net dst));
  check Alcotest.int "no drops" 0 (Network.stats net).Network.dataplane_drops

(* The delivery time of a 1000-byte frame sent at [send_ns] by host 0
   in [tx] mode to host 1 in [Dumbnet_agent] mode. *)
let delivery_ns ~tx ~send_ns =
  let _, eng, net = two_hosts () in
  let at = ref (-1) in
  Network.set_host_handler net 1 (fun _ -> at := Engine.now eng);
  Network.set_host_nic net 0 tx;
  Engine.schedule_at eng ~at_ns:send_ns (fun () -> send_one net ~src:0 ~dst:1 ~size:1000);
  Engine.run eng;
  !at

(* Host 0 sends one frame through the DumbNet stack, switches its NIC to
   the native stack and sends again 10 us later: the second frame rides
   the 15 us transmit line and overtakes the first. Each frame arrives
   exactly when it does alone on an idle fabric, i.e. in the order and
   at the times one time-ordered heap gives. *)
let test_nic_mode_switch () =
  let slow = delivery_ns ~tx:Nic.Dumbnet_agent ~send_ns:0
  and fast = delivery_ns ~tx:Nic.Native ~send_ns:10_000 in
  check Alcotest.int "native tx is quicker by the stacks' difference"
    (Nic.tx_latency_ns Nic.Dumbnet_agent - Nic.tx_latency_ns Nic.Native - 10_000)
    (slow - fast);
  let _, eng, net = two_hosts () in
  let log = ref [] in
  Network.set_host_handler net 1 (fun f ->
      match f.Frame.payload with
      | Payload.Data _ -> log := Engine.now eng :: !log
      | _ -> ());
  send_one net ~src:0 ~dst:1 ~size:1000;
  Engine.schedule_at eng ~at_ns:10_000 (fun () ->
      Network.set_host_nic net 0 Nic.Native;
      send_one net ~src:0 ~dst:1 ~size:1000);
  Engine.run eng;
  check Alcotest.(list int) "native frame first, both on time" [ fast; slow ] (List.rev !log)

let test_daemon_events_do_not_block_run () =
  let eng = Engine.create () in
  let beats = ref 0 in
  let rec beat () =
    incr beats;
    Engine.schedule_daemon eng ~delay_ns:10 beat
  in
  Engine.schedule_daemon eng ~delay_ns:10 beat;
  Engine.schedule eng ~delay_ns:35 (fun () -> ());
  (* Run-to-idle terminates despite the perpetual daemon, having fired
     the daemons due before the last regular event. *)
  Engine.run eng;
  check Alcotest.int "daemons up to the last regular event" 3 !beats;
  Alcotest.(check bool) "daemon still pending" true (Engine.pending eng > 0);
  check Alcotest.int "no regular pending" 0 (Engine.pending_regular eng);
  (* A bounded run advances daemons further. *)
  Engine.run ~until_ns:100 eng;
  Alcotest.(check bool) "daemons kept beating under until" true (!beats >= 9)

let test_priority_lane_bypasses_backlog () =
  let b = Builder.leaf_spine ~spines:1 ~leaves:2 ~hosts_per_leaf:2 () in
  let eng = Engine.create () in
  (* Slow fabric so a data backlog builds on the leaf uplink. *)
  let config = { Network.default_config with bandwidth_gbps = 0.05; queue_bytes = 10_000_000 } in
  let net = Network.create ~config ~engine:eng ~graph:b.Builder.graph () in
  let data_arrivals = ref [] and ctrl_arrival = ref None in
  Network.set_host_handler net 2 (fun f ->
      match f.Frame.payload with
      | Payload.Data _ -> data_arrivals := Engine.now eng :: !data_arrivals
      | Payload.Path_query _ -> ctrl_arrival := Some (Engine.now eng)
      | _ -> ());
  (* 40 bulk frames (~9 ms serialization total at 0.05 Gbps), then one
     control frame: strict priority delivers it ahead of the backlog. *)
  for seq = 0 to 39 do
    Network.host_send net 0
      (Frame.along_path ~src:0 ~dst:2 ~tags_of:[ 1; 2; 2 ]
         ~payload:(Payload.Data { flow = 0; seq; size = 1450; sent_ns = 0 }))
  done;
  Network.host_send net 0
    (Frame.along_path ~src:0 ~dst:2 ~tags_of:[ 1; 2; 2 ]
       ~payload:(Payload.Path_query { requester = 0; target = 2 }));
  Engine.run eng;
  match (!ctrl_arrival, List.rev !data_arrivals) with
  | Some ctrl, _ :: _ ->
    let last_data = List.hd !data_arrivals in
    Alcotest.(check bool) "control overtakes the data backlog" true (ctrl < last_data)
  | _ -> Alcotest.fail "missing arrivals"

let test_port_counters () =
  let _, eng, net = two_hosts () in
  Network.set_host_handler net 1 (fun _ -> ());
  for _ = 1 to 5 do
    send_one net ~src:0 ~dst:1 ~size:1000
  done;
  Engine.run eng;
  (* Host 1 hangs off leaf (switch 1) port 3. *)
  let packets, bytes = Network.port_counters net { sw = 1; port = 3 } in
  check Alcotest.int "packets counted" 5 packets;
  Alcotest.(check bool) "bytes counted" true (bytes >= 5 * 1000);
  (match Network.busiest_ports net ~top:1 with
  | [ (le, b) ] ->
    Alcotest.(check bool) "hotspot is a real port" true (le.port > 0 && b >= bytes)
  | _ -> Alcotest.fail "expected one hotspot");
  Alcotest.(check bool) "unknown port rejected" true
    (try
       ignore (Network.port_counters net { sw = 99; port = 1 });
       false
     with Invalid_argument _ -> true)

let test_port_bandwidth_cap () =
  let _, eng, net = two_hosts () in
  let last = ref 0 in
  Network.set_host_handler net 1 (fun _ -> last := Engine.now eng);
  (* Baseline delivery time, then cap the leaf's host-facing egress to
     0.01 Gbps: serializing 1450 B now costs ~1.16 ms extra. *)
  send_one net ~src:0 ~dst:1 ~size:1450;
  Engine.run eng;
  let baseline = !last in
  Network.set_port_bandwidth net { sw = 1; port = 3 } ~gbps:0.01;
  let t_before = Engine.now eng in
  send_one net ~src:0 ~dst:1 ~size:1450;
  Engine.run eng;
  Alcotest.(check bool) "slow link dominates" true (!last - t_before > baseline + 1_000_000)

(* Minor words one switch hop may allocate in the drain below:
   measured at 14.5, the ceiling leaves ~1.5x. *)
let hop_words_ceiling = 22.

(* Every host hands a burst of data frames to its NIC before the
   counter is read, so only the drain is on the meter: per switch hop
   one arrival closure (the tag pop advances a cursor in it, so the
   frame is neither copied nor wrapped), plus the frame rebuilt with its
   remaining tag and one receive event per delivered frame. *)
let test_hop_allocation_bound () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:g () in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  Array.iteri
    (fun i src ->
      let dst = hosts.((i + (n / 2)) mod n) in
      match Routing.host_route g ~src ~dst with
      | Some p ->
        for seq = 1 to 20 do
          Network.host_send net src
            (Frame.along_path ~src ~dst ~tags_of:(Path.tags p)
               ~payload:(Payload.Data { flow = i; seq; size = 1000; sent_ns = 0 }))
        done
      | None -> Alcotest.fail "no route")
    hosts;
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let w1 = Gc.minor_words () in
  let st = Network.stats net in
  check Alcotest.int "every frame delivered" (20 * n) st.Network.host_rx;
  let per_hop = (w1 -. w0) /. float_of_int st.Network.switch_hops in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per hop %.1f <= %.1f" per_hop hop_words_ceiling)
    true (per_hop <= hop_words_ceiling)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "line ties heap" `Quick test_engine_line_ties_heap;
          QCheck_alcotest.to_alcotest engine_model_prop;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery + latency" `Quick test_delivery_and_latency;
          Alcotest.test_case "nic pacing" `Quick test_nic_gap_paces;
          Alcotest.test_case "queue drops" `Quick test_queue_drops_under_overload;
          Alcotest.test_case "fail_link notices" `Quick test_fail_link_emits_notices;
          Alcotest.test_case "nic drop at departure" `Quick test_nic_drop_at_departure;
          Alcotest.test_case "host moved" `Quick test_host_moved;
          Alcotest.test_case "nic mode switch" `Quick test_nic_mode_switch;
          Alcotest.test_case "restore link" `Quick test_restore_link;
          Alcotest.test_case "dead access link" `Quick test_send_on_dead_access_link;
          Alcotest.test_case "port bandwidth cap" `Quick test_port_bandwidth_cap;
          Alcotest.test_case "daemon events" `Quick test_daemon_events_do_not_block_run;
          Alcotest.test_case "priority lane" `Quick test_priority_lane_bypasses_backlog;
          Alcotest.test_case "port counters" `Quick test_port_counters;
          Alcotest.test_case "fabric golden digest" `Quick test_fabric_golden_digest;
          Alcotest.test_case "flood golden digest" `Quick test_flood_golden_digest;
          Alcotest.test_case "hop allocation bound" `Quick test_hop_allocation_bound;
        ] );
    ]
