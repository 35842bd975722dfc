(* Tests for the control plane: probe semantics (against the paper's
   worked examples), BFS discovery, event dedup, the topology store and
   the replicated log. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
open Dumbnet.Packet
module Probe_walk = Dumbnet.Control.Probe_walk
module Discovery = Dumbnet.Control.Discovery
module Event_dedup = Dumbnet.Control.Event_dedup
module Topo_store = Dumbnet.Control.Topo_store
module Replica = Dumbnet.Control.Replica
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* Figure 1 ids: S1..S5 = 0..4, H1..H5 = 0..4, C3 = 5 at S3-9. *)
let fig1 () = Builder.figure1 ()

let tags ports = List.map Tag.forward ports @ [ Tag.End_of_path ]

(* --- probe_walk: the paper's §4.1 worked examples, literally --- *)

let test_probe_bounce () =
  let b = fig1 () in
  (* "As the PM 9-ø bounces back, C3 learns that it connects to port 9". *)
  Alcotest.(check bool) "9-ø bounces" true
    (Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(tags [ 9 ]) = Probe_walk.Bounced);
  (* Probing a port with nothing behind it loses the packet. *)
  Alcotest.(check bool) "4-ø lost" true
    (Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(tags [ 4 ]) = Probe_walk.Lost)

let test_probe_id_query () =
  let b = fig1 () in
  (* "C3 then queries the switch ID ... 0-9-ø": replies S3 (our id 2). *)
  Alcotest.(check bool) "0-9-ø names S3" true
    (Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(Tag.Id_query :: tags [ 9 ])
    = Probe_walk.Switch_id 2)

let test_probe_host_reply () =
  let b = fig1 () in
  (* "C3 will receive a response from H3 for PM 5-9-ø". H3 = our 2. *)
  (match Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(tags [ 5; 9 ]) with
  | Probe_walk.Host_reply { responder; _ } -> check Alcotest.int "H3 replies" 2 responder
  | _ -> Alcotest.fail "expected host reply");
  (* "... and a response from H1 for 1-5-1-9-ø". H1 = our 0. *)
  match Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(tags [ 1; 5; 1; 9 ]) with
  | Probe_walk.Host_reply { responder; _ } -> check Alcotest.int "H1 replies" 0 responder
  | _ -> Alcotest.fail "expected host reply"

let test_probe_neighbor_id () =
  let b = fig1 () in
  (* "Once C3 receives 1-0-1-9-ø back, it discovers S1": the ID query
     is answered by the switch behind S3's port 1 and returns via its
     port 1. S1 = our 0. *)
  Alcotest.(check bool) "1-0-1-9-ø names S1" true
    (Probe_walk.probe b.Builder.graph ~origin:5
       ~tags:[ Tag.forward 1; Tag.Id_query; Tag.forward 1; Tag.forward 9; Tag.End_of_path ]
    = Probe_walk.Switch_id 0)

let test_probe_verification () =
  let b = fig1 () in
  (* The ambiguity-resolution probe "1-2-1-0-1-9-ø" must name S1 (the
     switch reached back through the candidate reverse port). *)
  Alcotest.(check bool) "verify names S1" true
    (Probe_walk.probe b.Builder.graph ~origin:5
       ~tags:
         [ Tag.forward 1; Tag.forward 2; Tag.forward 1; Tag.Id_query; Tag.forward 1;
           Tag.forward 9; Tag.End_of_path ]
    = Probe_walk.Switch_id 0)

let test_probe_controller_hint () =
  let b = fig1 () in
  let controller_of h = if h = 2 then Some 5 else None in
  match
    Probe_walk.probe ~controller_of b.Builder.graph ~origin:0 ~tags:(tags [ 1; 5; 1; 5 ])
  with
  | Probe_walk.Host_reply { knows_controller; _ } ->
    Alcotest.(check bool) "hint forwarded" true (knows_controller = Some 5)
  | r ->
    Alcotest.failf "expected host reply, got %s"
      (match r with
      | Probe_walk.Bounced -> "bounce"
      | Probe_walk.Lost -> "lost"
      | Probe_walk.Switch_id _ -> "switch id"
      | Probe_walk.Host_reply _ -> "reply")

let test_probe_dead_link () =
  let b = fig1 () in
  Graph.set_link_state b.Builder.graph { sw = 2; port = 1 } ~up:false;
  Alcotest.(check bool) "probe dies on dead link" true
    (Probe_walk.probe b.Builder.graph ~origin:5 ~tags:(tags [ 1; 1; 9 ]) = Probe_walk.Lost)

(* --- discovery --- *)

let discover ?verify ?stop_at_controller built ~max_ports =
  let g = built.Builder.graph in
  let origin = built.Builder.controller in
  Discovery.run ?verify ?stop_at_controller
    ~prober:(fun tags -> Probe_walk.probe g ~origin ~tags)
    ~origin ~max_ports ()

let test_discovery_exact_on_builders () =
  List.iter
    (fun (name, built, ports) ->
      match discover built ~max_ports:ports with
      | Some r ->
        Alcotest.(check bool) (name ^ " exact") true
          (Graph.equal r.Discovery.topology built.Builder.graph)
      | None -> Alcotest.failf "%s: discovery failed" name)
    [
      ("figure1", Builder.figure1 (), 10);
      ("testbed", Builder.testbed (), 64);
      ("fat-tree", Builder.fat_tree ~k:4 (), 4);
      ("cube", Builder.cube ~n:3 ~controller_at:`Corner (), 7);
      ("linear", Builder.linear ~n:6 (), 4);
      ( "random",
        Builder.random_regular ~rng:(Rng.create 5) ~switches:10 ~degree:3 ~hosts_per_switch:2
          (),
        5 );
      ("star", Builder.star ~leaves:5 ~hosts_per_leaf:2 (), 5);
    ]

let test_discovery_verify_always_matches () =
  let built = Builder.testbed () in
  match (discover built ~max_ports:64, discover ~verify:`Always built ~max_ports:64) with
  | Some a, Some b ->
    Alcotest.(check bool) "same topology" true
      (Graph.equal a.Discovery.topology b.Discovery.topology);
    Alcotest.(check bool) "always-verify costs more probes" true
      (b.Discovery.stats.probes_sent >= a.Discovery.stats.probes_sent)
  | _ -> Alcotest.fail "discovery failed"

let test_discovery_counts () =
  let built = Builder.testbed () in
  match discover built ~max_ports:64 with
  | Some r ->
    check Alcotest.int "switches" 7 r.Discovery.stats.switches_found;
    check Alcotest.int "links" 10 r.Discovery.stats.links_found;
    check Alcotest.int "hosts (sans controller)" 26 r.Discovery.stats.hosts_found;
    (* O(N*P^2) with N=7, P=64: within a small factor of 7*4096. *)
    Alcotest.(check bool) "PM count in the expected band" true
      (r.Discovery.stats.probes_sent > 7 * 64 && r.Discovery.stats.probes_sent < 3 * 7 * 64 * 64)
  | None -> Alcotest.fail "discovery failed"

let test_discovery_stops_at_controller () =
  let built = Builder.testbed () in
  let g = built.Builder.graph in
  let origin = List.nth built.Builder.hosts 10 in
  let controller_of h = if h = built.Builder.controller then None else Some built.Builder.controller in
  (* Every *other* host knows the controller, so the prober passes the
     hint back; the searching host can stop early. *)
  match
    Discovery.run ~stop_at_controller:true
      ~prober:(fun tags -> Probe_walk.probe ~controller_of g ~origin ~tags)
      ~origin ~max_ports:64 ()
  with
  | Some r ->
    Alcotest.(check bool) "found the controller" true
      (r.Discovery.controller_hint = Some built.Builder.controller);
    Alcotest.(check bool) "far fewer probes than full discovery" true
      (r.Discovery.stats.probes_sent < 26196)
  | None -> Alcotest.fail "discovery failed"

(* A switch answering its Id_query with an id the push ledger cannot
   key is refused while discovery builds the model, before any query is
   served from it. *)
let test_discovery_refuses_unkeyable_switch_id () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let origin = built.Builder.controller in
  let prober tags =
    match Probe_walk.probe g ~origin ~tags with
    | Probe_walk.Switch_id sw -> Probe_walk.Switch_id (sw + max_switch_id + 1)
    | r -> r
  in
  Alcotest.(check bool) "Invalid_argument from discovery" true
    (try
       ignore (Discovery.run ~prober ~origin ~max_ports:4 ());
       false
     with Invalid_argument _ -> true)

let test_discovery_detached_origin () =
  let built = Builder.testbed () in
  let g = built.Builder.graph in
  (match Graph.host_location g built.Builder.controller with
  | Some le -> Graph.set_link_state g le ~up:false
  | None -> Alcotest.fail "controller detached already");
  Alcotest.(check bool) "no result" true (discover built ~max_ports:64 = None)

let test_verify_with_prior_drops_stale () =
  let built = Builder.testbed () in
  let g = built.Builder.graph in
  let stale = Graph.copy g in
  (* The prior believes in a link that no longer exists. *)
  Graph.remove_link g { sw = 2; port = 2 };
  let origin = built.Builder.controller in
  match
    Discovery.verify_with_prior
      ~prober:(fun tags -> Probe_walk.probe g ~origin ~tags)
      ~origin ~expected:stale
  with
  | Some r ->
    Alcotest.(check bool) "stale link not believed" true
      (Graph.equal r.Discovery.topology g);
    check Alcotest.int "links" 9 r.Discovery.stats.links_found
  | None -> Alcotest.fail "verification failed"

(* --- event dedup --- *)

let test_event_dedup () =
  let d = Event_dedup.create () in
  let e seq = { Payload.position = { sw = 1; port = 2 }; up = false; event_seq = seq } in
  Alcotest.(check bool) "first is fresh" true (Event_dedup.fresh d (e 1));
  Alcotest.(check bool) "replay dropped" false (Event_dedup.fresh d (e 1));
  Alcotest.(check bool) "stale dropped" false (Event_dedup.fresh d (e 0));
  Alcotest.(check bool) "newer is fresh" true (Event_dedup.fresh d (e 2));
  Alcotest.(check bool) "other port independent" true
    (Event_dedup.fresh d { Payload.position = { sw = 1; port = 3 }; up = false; event_seq = 1 });
  check Alcotest.int "seen" 5 (Event_dedup.seen d);
  check Alcotest.int "duplicates" 2 (Event_dedup.duplicates d)

(* --- topo store --- *)

let test_store_apply_and_patch () =
  let b = Builder.testbed () in
  let store = Topo_store.create b.Builder.graph in
  let e seq up = { Payload.position = { sw = 2; port = 1 }; up; event_seq = seq } in
  Alcotest.(check bool) "down applied" true (Topo_store.apply_event store (e 1 false) = Topo_store.Applied);
  Alcotest.(check bool) "store sees it down" false
    (Graph.link_up (Topo_store.graph store) { sw = 2; port = 1 });
  Alcotest.(check bool) "duplicate ignored" true
    (Topo_store.apply_event store (e 1 false) = Topo_store.Ignored);
  (match Topo_store.take_patch store with
  | Some (Payload.Topo_patch { version; changes }) ->
    check Alcotest.int "version bumped" 1 version;
    check Alcotest.int "one change" 1 (List.length changes)
  | _ -> Alcotest.fail "expected a patch");
  Alcotest.(check bool) "patch drained" true (Topo_store.take_patch store = None);
  Alcotest.(check bool) "restore applied" true
    (Topo_store.apply_event store (e 2 true) = Topo_store.Applied);
  Alcotest.(check bool) "up again" true
    (Graph.link_up (Topo_store.graph store) { sw = 2; port = 1 })

let test_store_needs_probe () =
  let b = Builder.testbed () in
  let store = Topo_store.create b.Builder.graph in
  (* Port-up on a port the store has no cable for. *)
  let e = { Payload.position = { sw = 2; port = 60 }; up = true; event_seq = 1 } in
  (match Topo_store.apply_event store e with
  | Topo_store.Needs_probe le -> Alcotest.(check bool) "position" true (le = { sw = 2; port = 60 })
  | _ -> Alcotest.fail "expected needs-probe");
  Topo_store.record_discovered_link store { sw = 2; port = 60 } { sw = 0; port = 60 };
  match Topo_store.take_patch store with
  | Some (Payload.Topo_patch { changes = [ Payload.Link_discovered _ ]; _ }) -> ()
  | _ -> Alcotest.fail "expected discovery patch"

let test_store_patch_replay () =
  let b = Builder.testbed () in
  let store = Topo_store.create b.Builder.graph in
  let copy = Graph.copy b.Builder.graph in
  ignore (Topo_store.apply_event store
            { Payload.position = { sw = 2; port = 1 }; up = false; event_seq = 1 });
  (match Topo_store.take_patch store with
  | Some (Payload.Topo_patch { changes; _ }) ->
    Topo_store.apply_patch copy changes;
    Alcotest.(check bool) "replica caught up" true (Graph.equal copy (Topo_store.graph store))
  | _ -> Alcotest.fail "expected patch");
  Alcotest.(check bool) "serves path graphs" true
    (Topo_store.serve_path_graph store ~src:0 ~dst:20 <> None)

(* --- memoized routing: the distance cache must be invisible --- *)

(* [serve_path_graph] answers through the store's memoized per-switch
   BFS tables; a fresh [Pathgraph.generate] (no [~dist]) re-runs BFS
   per query. Their wire forms must match exactly for every host pair —
   through failures, restores and newly discovered cables — or the
   cache is serving stale routes. *)
let check_memoized_matches_fresh ~label store =
  let g = Topo_store.graph store in
  let hosts = Graph.host_ids g in
  let wire = Option.map Pathgraph.to_wire in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            let served = Topo_store.serve_path_graph store ~src ~dst in
            let fresh = Pathgraph.generate g ~src ~dst in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d->%d" label src dst)
              true
              (wire served = wire fresh))
        hosts)
    hosts

let test_store_memoized_fail_restore () =
  let b = Builder.fat_tree ~k:4 () in
  let store = Topo_store.create b.Builder.graph in
  let g = Topo_store.graph store in
  check_memoized_matches_fresh ~label:"initial" store;
  let hits, misses = Topo_store.dist_cache_stats store in
  Alcotest.(check bool) "repeat queries hit the cache" true (hits > 0);
  Alcotest.(check bool) "one miss per distinct switch" true
    (misses <= Graph.num_switches g);
  (* Fail a switch-to-switch link via the same event path the
     controller uses for failure notices, then restore it. *)
  let key, _ = List.hd (Graph.switch_links g) in
  let le, _ = Link_key.ends key in
  (match Topo_store.apply_event store { Payload.position = le; up = false; event_seq = 1 } with
  | Topo_store.Applied -> ()
  | _ -> Alcotest.fail "failure event should apply");
  check_memoized_matches_fresh ~label:"after fail" store;
  (match Topo_store.apply_event store { Payload.position = le; up = true; event_seq = 2 } with
  | Topo_store.Applied -> ()
  | _ -> Alcotest.fail "restore event should apply");
  check_memoized_matches_fresh ~label:"after restore" store;
  (* Explicit invalidation is allowed any time and changes nothing. *)
  Topo_store.invalidate_dist_cache store;
  check_memoized_matches_fresh ~label:"after invalidate" store

let test_store_memoized_discovery () =
  let b = fig1 () in
  let store = Topo_store.create b.Builder.graph in
  let g = Topo_store.graph store in
  check_memoized_matches_fresh ~label:"pre-discovery" store;
  (* Cable up two previously free ports through the store, as probe
     discovery would, and make sure the cache notices the new edge. *)
  let free_port sw =
    let rec go p =
      if p > Graph.ports_of g sw then None
      else if Graph.endpoint_at g { sw; port = p } = None then Some { sw; port = p }
      else go (p + 1)
    in
    go 1
  in
  let frees = List.filter_map free_port (Graph.switch_ids g) in
  (match frees with
  | a :: rest -> (
    match List.find_opt (fun e -> e.sw <> a.sw) rest with
    | Some b_end ->
      Topo_store.record_discovered_link store a b_end;
      Alcotest.(check bool) "patch pending" true (Topo_store.take_patch store <> None)
    | None -> Alcotest.fail "fig1 should have free ports on two switches")
  | [] -> Alcotest.fail "fig1 should have free ports");
  check_memoized_matches_fresh ~label:"post-discovery" store

(* --- replica --- *)

let test_replica_commit_and_crash () =
  let r = Replica.create ~replicas:3 in
  Alcotest.(check bool) "leader is 0" true (Replica.leader r = Some 0);
  (match Replica.append r "a" with
  | `Committed 0 -> ()
  | _ -> Alcotest.fail "first commit at index 0");
  Replica.crash r 1;
  (match Replica.append r "b" with
  | `Committed 1 -> ()
  | _ -> Alcotest.fail "minority crash keeps quorum");
  Replica.crash r 2;
  Alcotest.(check bool) "no quorum" true (Replica.append r "c" = `No_quorum);
  check Alcotest.(list string) "committed survives" [ "a"; "b" ] (Replica.committed_log r)

let test_replica_recovery_catches_up () =
  let r = Replica.create ~replicas:3 in
  ignore (Replica.append r 1);
  Replica.crash r 2;
  ignore (Replica.append r 2);
  ignore (Replica.append r 3);
  check Alcotest.(list int) "lagging replica" [ 1 ] (Replica.replica_log r 2);
  Replica.recover r 2;
  check Alcotest.(list int) "caught up" [ 1; 2; 3 ] (Replica.replica_log r 2);
  (* Every alive replica agrees with the committed log. *)
  List.iter
    (fun i ->
      check Alcotest.(list int) "agreement" (Replica.committed_log r) (Replica.replica_log r i))
    (Replica.alive r)

let test_replica_leader_failover () =
  let r = Replica.create ~replicas:5 in
  Replica.crash r 0;
  Alcotest.(check bool) "next leader" true (Replica.leader r = Some 1);
  ignore (Replica.append r "x");
  Replica.recover r 0;
  Alcotest.(check bool) "lowest id leads again" true (Replica.leader r = Some 0);
  check Alcotest.(list string) "recovered leader has the log" [ "x" ] (Replica.replica_log r 0)

let test_replica_rejects_even () =
  Alcotest.(check bool) "even ensemble rejected" true
    (try
       ignore (Replica.create ~replicas:4);
       false
     with Invalid_argument _ -> true)

let replica_consistency_prop =
  (* Under any crash/recover/append schedule, alive replicas' logs equal
     the committed log (we model synchronous replication). *)
  QCheck.Test.make ~name:"replica logs match committed log" ~count:100
    QCheck.(list (pair (int_bound 2) (int_bound 4)))
    (fun script ->
      let r = Replica.create ~replicas:5 in
      let n = ref 0 in
      List.iter
        (fun (op, arg) ->
          match op with
          | 0 ->
            incr n;
            ignore (Replica.append r !n)
          | 1 -> Replica.crash r arg
          | _ -> Replica.recover r arg)
        script;
      List.for_all (fun i -> Replica.replica_log r i = Replica.committed_log r) (Replica.alive r))

let () =
  Alcotest.run "control"
    [
      ( "probe_walk (paper §4.1 examples)",
        [
          Alcotest.test_case "bounce 9-ø" `Quick test_probe_bounce;
          Alcotest.test_case "id query 0-9-ø" `Quick test_probe_id_query;
          Alcotest.test_case "host replies" `Quick test_probe_host_reply;
          Alcotest.test_case "neighbor id 1-0-1-9-ø" `Quick test_probe_neighbor_id;
          Alcotest.test_case "verification 1-2-1-0-1-9-ø" `Quick test_probe_verification;
          Alcotest.test_case "controller hint" `Quick test_probe_controller_hint;
          Alcotest.test_case "dead link" `Quick test_probe_dead_link;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "exact on all builders" `Quick test_discovery_exact_on_builders;
          Alcotest.test_case "verify modes agree" `Quick test_discovery_verify_always_matches;
          Alcotest.test_case "testbed counts" `Quick test_discovery_counts;
          Alcotest.test_case "stops at controller" `Quick test_discovery_stops_at_controller;
          Alcotest.test_case "detached origin" `Quick test_discovery_detached_origin;
          Alcotest.test_case "refuses unkeyable switch id" `Quick
            test_discovery_refuses_unkeyable_switch_id;
          Alcotest.test_case "prior drops stale links" `Quick test_verify_with_prior_drops_stale;
        ] );
      ("dedup", [ Alcotest.test_case "sequence windows" `Quick test_event_dedup ]);
      ( "topo_store",
        [
          Alcotest.test_case "apply and patch" `Quick test_store_apply_and_patch;
          Alcotest.test_case "needs probe" `Quick test_store_needs_probe;
          Alcotest.test_case "patch replay" `Quick test_store_patch_replay;
          Alcotest.test_case "memoized = fresh across fail/restore" `Quick
            test_store_memoized_fail_restore;
          Alcotest.test_case "memoized = fresh across discovery" `Quick
            test_store_memoized_discovery;
        ] );
      ( "replica",
        [
          Alcotest.test_case "commit and crash" `Quick test_replica_commit_and_crash;
          Alcotest.test_case "recovery" `Quick test_replica_recovery_catches_up;
          Alcotest.test_case "leader failover" `Quick test_replica_leader_failover;
          Alcotest.test_case "even rejected" `Quick test_replica_rejects_even;
          QCheck_alcotest.to_alcotest replica_consistency_prop;
        ] );
    ]
