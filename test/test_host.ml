(* Tests for the host side: PathTable, TopoCache, verifier, and the
   full agent over a live simulated fabric. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
open Dumbnet.Packet
open Dumbnet.Host
module Rng = Dumbnet.Util.Rng
module Fabric = Dumbnet.Fabric

let check = Alcotest.check

let path ~src ~dst hops = { Path.src; hops; dst }

(* --- pathtable --- *)

let entry paths backup = { Pathtable.paths; backup }

let test_pathtable_basics () =
  let t = Pathtable.create () in
  Alcotest.(check bool) "miss" true (Pathtable.lookup t ~dst:9 = None);
  let p1 = path ~src:0 ~dst:9 [ (1, 2) ] and p2 = path ~src:0 ~dst:9 [ (1, 3); (2, 5) ] in
  Pathtable.set t ~dst:9 (entry [ p1; p2 ] None);
  check Alcotest.int "size" 1 (Pathtable.size t);
  check Alcotest.int "both paths listed" 2 (List.length (Pathtable.paths_to t ~dst:9));
  Alcotest.(check bool) "empty entry rejected" true
    (try
       Pathtable.set t ~dst:1 (entry [] None);
       false
     with Invalid_argument _ -> true);
  Pathtable.remove t ~dst:9;
  check Alcotest.int "removed" 0 (Pathtable.size t)

let test_pathtable_flow_binding () =
  let t = Pathtable.create () in
  let p1 = path ~src:0 ~dst:9 [ (1, 2) ] and p2 = path ~src:0 ~dst:9 [ (1, 3) ] in
  Pathtable.set t ~dst:9 (entry [ p1; p2 ] None);
  (* A flow sticks to its first choice. *)
  match Pathtable.choose t ~dst:9 ~flow:42 with
  | None -> Alcotest.fail "no choice"
  | Some first ->
    for _ = 1 to 10 do
      Alcotest.(check bool) "sticky" true
        (Pathtable.choose t ~dst:9 ~flow:42 = Some first)
    done;
    (* choose_nth is deterministic round-robin over the k choices. *)
    Alcotest.(check bool) "nth 0" true (Pathtable.choose_nth t ~dst:9 ~n:0 = Some p1);
    Alcotest.(check bool) "nth 1" true (Pathtable.choose_nth t ~dst:9 ~n:1 = Some p2);
    Alcotest.(check bool) "nth wraps" true (Pathtable.choose_nth t ~dst:9 ~n:2 = Some p1)

let test_pathtable_invalidate () =
  let t = Pathtable.create () in
  let key = Link_key.make { sw = 1; port = 2 } { sw = 2; port = 1 } in
  let doomed = path ~src:0 ~dst:9 [ (1, 2); (2, 5) ] in
  let safe = path ~src:0 ~dst:9 [ (1, 3); (3, 5) ] in
  Pathtable.set t ~dst:9 (entry [ doomed; safe ] None);
  check Alcotest.int "one dst affected" 1 (Pathtable.invalidate_link t key);
  Alcotest.(check bool) "only safe path remains" true
    (Pathtable.paths_to t ~dst:9 = [ safe ]);
  Alcotest.(check bool) "degraded flag" true (Pathtable.restore_requires_requery t ~dst:9);
  (* Losing everything falls back to the backup, then to eviction. *)
  let t2 = Pathtable.create () in
  Pathtable.set t2 ~dst:9 (entry [ doomed ] (Some safe));
  ignore (Pathtable.invalidate_link t2 key);
  Alcotest.(check bool) "backup promoted" true (Pathtable.paths_to t2 ~dst:9 = [ safe ]);
  let t3 = Pathtable.create () in
  Pathtable.set t3 ~dst:9 (entry [ doomed ] None);
  ignore (Pathtable.invalidate_link t3 key);
  check Alcotest.int "entry evicted" 0 (Pathtable.size t3)

let test_pathtable_invalidate_end () =
  let t = Pathtable.create () in
  let doomed = path ~src:0 ~dst:9 [ (1, 2); (2, 5) ] in
  let safe = path ~src:0 ~dst:9 [ (1, 3); (3, 5) ] in
  Pathtable.set t ~dst:9 (entry [ doomed; safe ] None);
  check Alcotest.int "affected by single end" 1
    (Pathtable.invalidate_end t { sw = 2; port = 5 });
  Alcotest.(check bool) "safe survives" true (Pathtable.paths_to t ~dst:9 = [ safe ])

let test_pathtable_rebind_after_invalidate () =
  let t = Pathtable.create () in
  let key = Link_key.make { sw = 1; port = 2 } { sw = 2; port = 1 } in
  let doomed = path ~src:0 ~dst:9 [ (1, 2) ] in
  let safe = path ~src:0 ~dst:9 [ (1, 3) ] in
  Pathtable.set t ~dst:9 (entry [ doomed; safe ] None);
  (* Bind many flows until one lands on the doomed path. *)
  let bound_doomed = ref None in
  for flow = 0 to 50 do
    if !bound_doomed = None && Pathtable.choose t ~dst:9 ~flow = Some doomed then
      bound_doomed := Some flow
  done;
  match !bound_doomed with
  | None -> Alcotest.fail "hash never picked the first path?"
  | Some flow ->
    ignore (Pathtable.invalidate_link t key);
    Alcotest.(check bool) "flow rebinds to the survivor" true
      (Pathtable.choose t ~dst:9 ~flow = Some safe)

(* --- topocache --- *)

let testbed_pathgraph g ~src ~dst = Option.get (Pathgraph.generate ~rng:(Rng.create 1) g ~src ~dst)

let test_topocache_materialize_equal_cost () =
  let b = Builder.testbed () in
  let cache = Topocache.create ~k:4 ~rng:(Rng.create 2) () in
  Topocache.insert cache (testbed_pathgraph b.Builder.graph ~src:0 ~dst:20);
  match Topocache.materialize cache ~dst:20 with
  | None -> Alcotest.fail "no entry"
  | Some e ->
    (* Both 3-hop spine paths, nothing longer. *)
    Alcotest.(check bool) "at least 2 equal-cost paths" true
      (List.length e.Pathtable.paths >= 2);
    List.iter
      (fun p -> check Alcotest.int "all shortest" 3 (Path.length p))
      e.Pathtable.paths

let test_topocache_failed_end_overlay () =
  let b = Builder.testbed () in
  let cache = Topocache.create ~k:4 ~rng:(Rng.create 2) () in
  Topocache.insert cache (testbed_pathgraph b.Builder.graph ~src:0 ~dst:20);
  let e = Option.get (Topocache.materialize cache ~dst:20) in
  let first = List.hd e.Pathtable.paths in
  let sw, port = List.hd first.Path.hops in
  Topocache.note_end cache { sw; port } ~up:false;
  (* The other end resolves through the cached subgraph. *)
  Alcotest.(check bool) "end resolves" true (Topocache.resolve_end cache { sw; port } <> None);
  let e2 = Option.get (Topocache.materialize cache ~dst:20) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "materialized paths dodge the failure" false
        (List.exists (fun (s, o) -> s = sw && o = port) p.Path.hops))
    e2.Pathtable.paths;
  Topocache.note_end cache { sw; port } ~up:true;
  let e3 = Option.get (Topocache.materialize cache ~dst:20) in
  Alcotest.(check bool) "restored" true
    (List.length e3.Pathtable.paths >= List.length e.Pathtable.paths)

let test_topocache_merge_and_footprint () =
  let b = Builder.testbed () in
  let cache = Topocache.create ~rng:(Rng.create 2) () in
  Topocache.insert cache (testbed_pathgraph b.Builder.graph ~src:0 ~dst:20);
  let before = Topocache.switch_footprint cache in
  Topocache.insert cache (testbed_pathgraph b.Builder.graph ~src:0 ~dst:20);
  Alcotest.(check bool) "merge does not shrink" true
    (Topocache.switch_footprint cache >= before);
  check Alcotest.(list int) "known dsts" [ 20 ] (Topocache.known cache);
  Alcotest.(check bool) "reveal gives adjacency" true
    (match Topocache.reveal cache ~dst:20 with
    | Some adj -> adj 0 <> [] || adj 1 <> [] || adj 2 <> []
    | None -> false)

(* --- verifier --- *)

let test_verifier () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let src_loc = Option.get (Graph.host_location g 0) in
  let dst_loc = Option.get (Graph.host_location g 20) in
  let view = Routing.graph_adjacency g in
  let good = Option.get (Routing.host_route g ~src:0 ~dst:20) in
  let v = Verifier.create ~view ~src_loc ~dst_loc () in
  Alcotest.(check bool) "good path accepted" true (Verifier.verify v good = Ok ());
  (* Broken: retarget a hop to a bogus port. *)
  let broken = { good with Path.hops = List.map (fun (s, _) -> (s, 60)) good.Path.hops } in
  (match Verifier.verify v broken with
  | Error (Verifier.Broken_at _) -> ()
  | _ -> Alcotest.fail "broken path must be rejected");
  (* Forbidden switch. *)
  let spine = List.nth (Path.switches good) 1 in
  let v2 =
    Verifier.create
      ~allowed_switches:(Switch_set.of_list (List.filter (fun s -> s <> spine) (Graph.switch_ids g)))
      ~view ~src_loc ~dst_loc ()
  in
  (match Verifier.verify v2 good with
  | Error (Verifier.Forbidden_switch s) -> check Alcotest.int "names the spine" spine s
  | _ -> Alcotest.fail "isolation must reject");
  (* Hop budget. *)
  let v3 = Verifier.create ~max_hops:2 ~view ~src_loc ~dst_loc () in
  (match Verifier.verify v3 good with
  | Error (Verifier.Too_long 3) -> ()
  | _ -> Alcotest.fail "hop budget must reject");
  (* Custom policy. *)
  let v4 = Verifier.create ~policies:[ ("never", fun _ -> false) ] ~view ~src_loc ~dst_loc () in
  match Verifier.verify v4 good with
  | Error (Verifier.Policy_rejected "never") -> ()
  | _ -> Alcotest.fail "policy must reject"

(* --- agent over a live fabric --- *)

let test_agent_end_to_end () =
  (* Hosts on the first and last leaves of the testbed: far enough apart
     that they are not bootstrap flood-peers, so the first send is a
     genuine cold miss. *)
  let built = Builder.testbed () in
  let fab = Fabric.create built in
  let src = 1 and dst = 26 in
  (match Fabric.send fab ~src ~dst ~size:500 () with
  | Agent.Queued -> ()
  | Agent.Sent _ -> Alcotest.fail "cold cache should miss"
  | Agent.No_route -> Alcotest.fail "controller known, must queue");
  Fabric.run fab;
  let st = Agent.stats (Fabric.agent fab dst) in
  check Alcotest.int "delivered after query" 1 st.Agent.data_received;
  (* Second packet hits the cache. *)
  (match Fabric.send fab ~src ~dst ~size:500 () with
  | Agent.Sent _ -> ()
  | _ -> Alcotest.fail "warm cache should hit");
  Fabric.run fab;
  check Alcotest.int "two delivered" 2 st.Agent.data_received;
  check Alcotest.int "exactly one query" 1 (Agent.stats (Fabric.agent fab src)).Agent.queries_sent

let test_agent_latency_samples () =
  let built = Builder.figure1 () in
  let fab = Fabric.create built in
  ignore (Fabric.send fab ~src:0 ~dst:4 ~size:500 ());
  Fabric.run fab;
  let st = Agent.stats (Fabric.agent fab 4) in
  check Alcotest.int "one sample" 1 st.Agent.latency_count;
  let ns = st.Agent.latency_last_ns in
  Alcotest.(check bool) "plausible latency" true (ns > 0 && ns < 100_000_000);
  check Alcotest.int "sum of one sample" ns st.Agent.latency_sum_ns;
  check Alcotest.int "max of one sample" ns st.Agent.latency_max_ns

let test_agent_failover_uses_cache () =
  let built = Builder.figure1 () in
  let fab = Fabric.create built in
  ignore (Fabric.send fab ~src:3 ~dst:4 ~size:100 ());
  Fabric.run fab;
  let src_agent = Fabric.agent fab 3 in
  let queries_before = (Agent.stats src_agent).Agent.queries_sent in
  (* Cut the bound path's first link; the agent must reroute from its
     path-graph cache without a new controller query. *)
  (match Pathtable.choose (Agent.pathtable src_agent) ~dst:4 ~flow:0 with
  | Some { Path.hops = (sw, port) :: _; _ } -> Fabric.fail_link fab { sw; port }
  | _ -> Alcotest.fail "no bound path");
  Fabric.run fab;
  (match Fabric.send fab ~src:3 ~dst:4 ~flow:1 ~size:100 () with
  | Agent.Sent p ->
    Alcotest.(check bool) "reroute is valid now" true
      (Path.validate (Dumbnet.Sim.Network.graph (Fabric.network fab)) p)
  | _ -> Alcotest.fail "failover send failed");
  Fabric.run fab;
  check Alcotest.int "no extra query" queries_before (Agent.stats src_agent).Agent.queries_sent;
  check Alcotest.int "both packets arrived" 2
    (Agent.stats (Fabric.agent fab 4)).Agent.data_received

let test_agent_probe_service () =
  let built = Builder.figure1 () in
  let fab = Fabric.create built in
  (* A raw probe from H1 towards H5 (S1:3 -> S5, host at port 5),
     leftover 1-5-ø is H5's reply route back through S1. *)
  let agent0 = Fabric.agent fab 0 in
  let got = ref None in
  Agent.set_control_sink agent0 (fun f -> got := Some f.Frame.payload);
  Agent.send_raw agent0
    (Frame.dumbnet ~src:0 ~dst:Frame.Broadcast
       ~tags:
         [ Tag.forward 3; Tag.forward 5; Tag.forward 1; Tag.forward 5; Tag.End_of_path ]
       ~payload:(Payload.Probe { origin = 0; forward_tags = [ 3; 5; 1; 5; 255 ] }));
  Fabric.run fab;
  match !got with
  | Some (Payload.Probe_reply { responder; _ }) -> check Alcotest.int "H5 replied" 4 responder
  | _ -> Alcotest.fail "expected probe reply"

let test_agent_bad_frames_counted () =
  let built = Builder.figure1 () in
  let fab = Fabric.create built in
  let agent0 = Fabric.agent fab 0 in
  (* A data frame that lands at H5 with leftover tags is not clean ø:
     H1->S1 (pop 3) -> S5 (pop 5) arrives at H5 with 1-ø left. *)
  Agent.send_raw agent0
    (Frame.dumbnet ~src:0 ~dst:(Frame.Node (Host 4))
       ~tags:[ Tag.forward 3; Tag.forward 5; Tag.forward 1; Tag.End_of_path ]
       ~payload:(Payload.Data { flow = 0; seq = 0; size = 10; sent_ns = 0 }));
  Fabric.run fab;
  let st = Agent.stats (Fabric.agent fab 4) in
  check Alcotest.int "bad frame counted" 1 st.Agent.bad_frames;
  check Alcotest.int "not delivered" 0 st.Agent.data_received

let test_agent_custom_path_installation () =
  let built = Builder.figure1 () in
  let fab = Fabric.create built in
  ignore (Fabric.send fab ~src:3 ~dst:4 ~size:10 ());
  Fabric.run fab;
  let agent = Fabric.agent fab 3 in
  (* A custom route within the revealed subgraph: fine. *)
  (match Topocache.materialize (Agent.topocache agent) ~dst:4 with
  | Some e ->
    let alt = List.nth e.Pathtable.paths (List.length e.Pathtable.paths - 1) in
    Alcotest.(check bool) "valid custom route accepted" true
      (Agent.install_custom_path agent ~dst:4 alt = Ok ())
  | None -> Alcotest.fail "no cached entry");
  (* A fabricated route is rejected by the verifier. *)
  let bogus = { Path.src = 3; hops = [ (3, 9); (0, 9) ]; dst = 4 } in
  match Agent.install_custom_path agent ~dst:4 bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bogus route must be rejected"

let test_agent_requeries_after_timeout () =
  (* A path query lost in the fabric must be retried on the next send
     after the 50 ms requery window — not once per packet. *)
  let built = Builder.testbed () in
  let fab = Fabric.create built in
  let src = 1 and dst = 26 in
  let agent = Fabric.agent fab src in
  (* Freeze the sender's failure handling so it keeps using its cached
     controller path even while we cut it (stage-1 off = no cache
     patching), making the first query die silently. *)
  Agent.set_stage1_enabled agent false;
  let ctrl_path =
    match Pathtable.choose (Agent.pathtable agent) ~dst:(Option.get (Agent.controller agent)) ~flow:0 with
    | Some p -> p
    | None -> Alcotest.fail "no controller path"
  in
  let le =
    match ctrl_path.Path.hops with
    | (sw, port) :: _ -> { sw; port }
    | [] -> Alcotest.fail "empty controller path"
  in
  Fabric.fail_link fab le;
  Fabric.run fab;
  (match Fabric.send fab ~src ~dst ~size:64 () with
  | Agent.Queued -> ()
  | _ -> Alcotest.fail "expected queued");
  Fabric.run fab;
  check Alcotest.int "one query sent (and lost)" 1 (Agent.stats agent).Agent.queries_sent;
  (* More sends inside the window do not re-query. *)
  ignore (Fabric.send fab ~src ~dst ~size:64 ());
  Fabric.run fab;
  check Alcotest.int "no re-query inside window" 1 (Agent.stats agent).Agent.queries_sent;
  (* Heal the fabric, let the requery window pass, send again. *)
  Fabric.run ~for_ns:1_100_000_000 fab;
  Fabric.restore_link fab le;
  Fabric.run fab;
  ignore (Fabric.send fab ~src ~dst ~size:64 ());
  Fabric.run fab;
  check Alcotest.int "re-queried after window" 2 (Agent.stats agent).Agent.queries_sent;
  Alcotest.(check bool) "queued data finally delivered" true
    ((Agent.stats (Fabric.agent fab dst)).Agent.data_received >= 3)

let test_agent_no_route_without_controller () =
  let built = Builder.figure1 () in
  let eng = Dumbnet.Sim.Engine.create () in
  let net = Dumbnet.Sim.Network.create ~engine:eng ~graph:built.Builder.graph () in
  (* A lone agent with no controller configured. *)
  let agent = Agent.create ~network:net ~rng:(Rng.create 1) ~self:0 () in
  match Agent.send_data agent ~dst:4 ~flow:0 ~size:10 () with
  | Agent.No_route -> ()
  | _ -> Alcotest.fail "expected no route"

let () =
  Alcotest.run "host"
    [
      ( "pathtable",
        [
          Alcotest.test_case "basics" `Quick test_pathtable_basics;
          Alcotest.test_case "flow binding" `Quick test_pathtable_flow_binding;
          Alcotest.test_case "invalidate link" `Quick test_pathtable_invalidate;
          Alcotest.test_case "invalidate end" `Quick test_pathtable_invalidate_end;
          Alcotest.test_case "rebind after invalidate" `Quick test_pathtable_rebind_after_invalidate;
        ] );
      ( "topocache",
        [
          Alcotest.test_case "equal-cost materialize" `Quick test_topocache_materialize_equal_cost;
          Alcotest.test_case "failed-end overlay" `Quick test_topocache_failed_end_overlay;
          Alcotest.test_case "merge and footprint" `Quick test_topocache_merge_and_footprint;
        ] );
      ("verifier", [ Alcotest.test_case "all violation kinds" `Quick test_verifier ]);
      ( "agent",
        [
          Alcotest.test_case "end to end" `Quick test_agent_end_to_end;
          Alcotest.test_case "latency samples" `Quick test_agent_latency_samples;
          Alcotest.test_case "failover from cache" `Quick test_agent_failover_uses_cache;
          Alcotest.test_case "probe service" `Quick test_agent_probe_service;
          Alcotest.test_case "bad frames counted" `Quick test_agent_bad_frames_counted;
          Alcotest.test_case "custom path install" `Quick test_agent_custom_path_installation;
          Alcotest.test_case "requery after timeout" `Quick test_agent_requeries_after_timeout;
          Alcotest.test_case "no controller, no route" `Quick test_agent_no_route_without_controller;
        ] );
    ]
