(* Tests for the extensions: flowlet TE, the layer-3 router, network
   virtualization. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
open Dumbnet.Host
module Flowlet = Dumbnet.Ext.Flowlet
module L3 = Dumbnet.Ext.L3_router
module Virtual_net = Dumbnet.Ext.Virtual_net
module Fabric = Dumbnet.Fabric
module Payload = Dumbnet.Packet.Payload

let check = Alcotest.check

(* --- flowlet --- *)

let fabric_pair () =
  let built = Builder.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let fab = Fabric.create ~seed:1 built in
  let src = List.nth built.Builder.hosts 1 and dst = List.nth built.Builder.hosts 3 in
  (* Warm the cache. *)
  ignore (Fabric.send fab ~src ~dst ~size:10 ());
  Fabric.run fab;
  (fab, src, dst)

let test_flowlet_stable_within_burst () =
  let fab, src, dst = fabric_pair () in
  let agent = Fabric.agent fab src in
  let te = Flowlet.create ~gap_ns:500_000 () in
  let fn = Flowlet.routing_fn te in
  (* Back-to-back packets at the same instant: one flowlet, one path. *)
  let now = Fabric.now_ns fab in
  let p1 = fn agent ~now_ns:now ~dst ~flow:7 in
  let p2 = fn agent ~now_ns:(now + 1_000) ~dst ~flow:7 in
  Alcotest.(check bool) "same path within burst" true (p1 = p2);
  Alcotest.(check bool) "flowlet unchanged" true (Flowlet.current_flowlet te ~flow:7 = Some 0)

let test_flowlet_bumps_after_gap () =
  let fab, src, dst = fabric_pair () in
  let agent = Fabric.agent fab src in
  let te = Flowlet.create ~gap_ns:500_000 () in
  let fn = Flowlet.routing_fn te in
  let now = Fabric.now_ns fab in
  ignore (fn agent ~now_ns:now ~dst ~flow:7);
  ignore (fn agent ~now_ns:(now + 1_000_000) ~dst ~flow:7);
  Alcotest.(check bool) "flowlet bumped" true (Flowlet.current_flowlet te ~flow:7 = Some 1);
  check Alcotest.int "two flowlets started" 2 (Flowlet.flowlets_started te)

let test_flowlet_spreads_paths () =
  let fab, src, dst = fabric_pair () in
  let agent = Fabric.agent fab src in
  let te = Flowlet.create ~gap_ns:100 () in
  let fn = Flowlet.routing_fn te in
  let seen = Hashtbl.create 4 in
  let now = ref (Fabric.now_ns fab) in
  for _ = 1 to 64 do
    now := !now + 1_000;
    (* every call exceeds the tiny gap: new flowlet each time *)
    match fn agent ~now_ns:!now ~dst ~flow:7 with
    | Some p -> Hashtbl.replace seen (Path.switches p) ()
    | None -> Alcotest.fail "no path"
  done;
  Alcotest.(check bool) "both spines eventually used" true (Hashtbl.length seen >= 2)

let test_flowlet_rejects_bad_gap () =
  Alcotest.(check bool) "gap must be positive" true
    (try
       ignore (Flowlet.create ~gap_ns:0 ());
       false
     with Invalid_argument _ -> true)

(* --- ecn reroute --- *)

module Ecn = Dumbnet.Ext.Ecn_reroute
module Network = Dumbnet.Sim.Network

(* A 2-spine fabric with ECN marking on and one spine capped very slow:
   a flow hashed onto the slow spine gets marked and must shift. *)
let ecn_setup () =
  let built = Builder.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let config =
    { Network.default_config with
      ecn_threshold_bytes = Some 20_000;
      queue_bytes = 64 * 1024 * 1024
    }
  in
  let fab = Fabric.create ~config ~seed:7 built in
  (fab, built)

let spine_of p =
  match Path.switches p with
  | _ :: spine :: _ -> spine
  | _ -> -1

let test_ecn_marks_and_reroutes () =
  let fab, built = ecn_setup () in
  let net = Fabric.network fab in
  let src = List.nth built.Builder.hosts 0 and dst = List.nth built.Builder.hosts 3 in
  let ecn = Ecn.create ~echo_every:4 () in
  List.iter (fun h -> Ecn.enable ecn (Fabric.agent fab h)) built.Builder.hosts;
  (* Warm the cache, find a flow bound to some spine, then throttle that
     spine so the flow's packets queue and get marked. *)
  ignore (Fabric.send fab ~src ~dst ~flow:1 ~size:100 ());
  Fabric.run fab;
  let agent = Fabric.agent fab src in
  let original =
    match Dumbnet.Host.Pathtable.choose (Agent.pathtable agent) ~dst ~flow:1 with
    | Some p -> p
    | None -> Alcotest.fail "no bound path"
  in
  let slow_spine = spine_of original in
  (match original.Path.hops with
  | (sw, port) :: _ -> Network.set_port_bandwidth net { sw; port } ~gbps:0.02
  | [] -> Alcotest.fail "empty path");
  (* Blast enough packets through the throttled spine to trip marking. *)
  for seq = 0 to 199 do
    ignore (Fabric.send fab ~src ~dst ~flow:1 ~seq ~size:1450 ())
  done;
  Fabric.run fab;
  Alcotest.(check bool) "switch marked frames" true ((Network.stats net).Network.ecn_marked > 0);
  Alcotest.(check bool) "echoes flowed back" true (Ecn.echoes_sent ecn > 0);
  Alcotest.(check bool) "flow was shifted" true (Ecn.current_shift ecn ~flow:1 > 0);
  Alcotest.(check bool) "rerouted off the slow spine" true
    (match Ecn.routing_fn ecn agent ~now_ns:(Fabric.now_ns fab) ~dst ~flow:1 with
    | Some p -> spine_of p <> slow_spine
    | None -> false)

let test_ecn_disabled_no_marks () =
  let built = Builder.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let fab = Fabric.create ~seed:7 built in
  let src = List.nth built.Builder.hosts 0 and dst = List.nth built.Builder.hosts 3 in
  for seq = 0 to 99 do
    ignore (Fabric.send fab ~src ~dst ~flow:1 ~seq ~size:1450 ())
  done;
  Fabric.run fab;
  check Alcotest.int "no marks when disabled" 0
    (Network.stats (Fabric.network fab)).Network.ecn_marked

(* --- l3 router --- *)

let test_address_pack_unpack () =
  let a = { L3.Address.subnet = 3; host = 77; flow = 123 } in
  Alcotest.(check bool) "roundtrip" true (L3.Address.unpack (L3.Address.pack a) = a);
  Alcotest.(check bool) "subnet overflow" true
    (try
       ignore (L3.Address.pack { a with L3.Address.subnet = 256 });
       false
     with Invalid_argument _ -> true)

let address_roundtrip_prop =
  QCheck.Test.make ~name:"address pack/unpack roundtrips" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (subnet, host, flow) ->
      let a = { L3.Address.subnet; host; flow } in
      L3.Address.unpack (L3.Address.pack a) = a)

(* One fabric, two pods with a spine shortcut, router dual-homed. *)
let two_subnets () =
  let g = Graph.create () in
  let spine_a = Graph.add_switch g ~ports:8 in
  let spine_b = Graph.add_switch g ~ports:8 in
  let leaf_a = Graph.add_switch g ~ports:8 in
  let leaf_b = Graph.add_switch g ~ports:8 in
  Graph.connect g { sw = leaf_a; port = 1 } { sw = spine_a; port = 1 };
  Graph.connect g { sw = leaf_b; port = 1 } { sw = spine_b; port = 1 };
  Graph.connect g { sw = spine_a; port = 7 } { sw = spine_b; port = 7 };
  let host sw port =
    let h = Graph.add_host g in
    Graph.attach_host g h { sw; port };
    h
  in
  let a = host leaf_a 4 in
  let b = host leaf_b 4 in
  let ra = host leaf_a 5 in
  let rb = host leaf_b 5 in
  let built = { Builder.graph = g; hosts = [ a; b; ra; rb ]; controller = a } in
  let fab = Fabric.create ~seed:2 built in
  (fab, a, b, ra, rb)

let test_l3_forwarding () =
  let fab, a, b, ra, rb = two_subnets () in
  let router = L3.create () in
  L3.add_interface router ~subnet:0 ~agent:(Fabric.agent fab ra);
  L3.add_interface router ~subnet:1 ~agent:(Fabric.agent fab rb);
  Alcotest.(check bool) "duplicate interface rejected" true
    (try
       L3.add_interface router ~subnet:0 ~agent:(Fabric.agent fab ra);
       false
     with Invalid_argument _ -> true);
  let got = ref 0 in
  Dumbnet.Host.Agent.on_data (Fabric.agent fab b) (fun ~src:_ payload ->
      match payload with
      | Payload.Data _ -> incr got
      | _ -> ());
  let dst = { L3.Address.subnet = 1; host = b; flow = 5 } in
  ignore (L3.send_remote ~via:ra ~agent:(Fabric.agent fab a) ~dst ~size:800 ());
  Fabric.run fab;
  check Alcotest.int "delivered across subnets" 1 !got;
  check Alcotest.int "router forwarded" 1 (L3.forwarded router);
  (* Same-subnet traffic is not relayed. *)
  let local = { L3.Address.subnet = 0; host = a; flow = 6 } in
  ignore (L3.send_remote ~via:ra ~agent:(Fabric.agent fab a) ~dst:local ~size:100 ());
  Fabric.run fab;
  check Alcotest.int "no relay for local" 1 (L3.forwarded router)

let test_l3_combined_path () =
  let fab, a, b, ra, rb = two_subnets () in
  let router = L3.create () in
  L3.add_interface router ~subnet:0 ~agent:(Fabric.agent fab ra);
  L3.add_interface router ~subnet:1 ~agent:(Fabric.agent fab rb);
  let dst = { L3.Address.subnet = 1; host = b; flow = 5 } in
  (match L3.combined_path router ~src_subnet:0 ~src:a ~dst with
  | Some p ->
    Alcotest.(check bool) "valid across the shortcut" true
      (Path.validate (Dumbnet.Sim.Network.graph (Fabric.network fab)) p);
    Alcotest.(check bool) "does not dogleg through router hosts" true
      (p.Path.src = a && p.Path.dst = b)
  | None -> Alcotest.fail "no combined path");
  Alcotest.(check bool) "installs" true
    (L3.install_combined router ~src_subnet:0 ~src_agent:(Fabric.agent fab a) ~dst);
  let got = ref 0 in
  Dumbnet.Host.Agent.on_data (Fabric.agent fab b) (fun ~src:_ payload ->
      match payload with
      | Payload.Data _ -> incr got
      | _ -> ());
  ignore
    (Dumbnet.Host.Agent.send_data (Fabric.agent fab a) ~dst:b ~flow:(L3.Address.pack dst)
       ~size:700 ());
  Fabric.run fab;
  check Alcotest.int "delivered directly" 1 !got;
  check Alcotest.int "router untouched" 0 (L3.forwarded router)

(* --- phost transport --- *)

module Phost = Dumbnet.Ext.Phost

(* A 9-to-1 incast with small switch queues: naive blasting overflows
   the receiver's access-link queue; pHost grants keep it paced. *)
let incast_fabric () =
  let built = Builder.leaf_spine ~spines:2 ~leaves:5 ~hosts_per_leaf:2 () in
  let config = { Network.default_config with queue_bytes = 60_000 } in
  let fab = Fabric.create ~config ~seed:9 built in
  let hosts = built.Builder.hosts in
  let target = List.nth hosts (List.length hosts - 1) in
  let sources = List.filter (fun h -> h <> target) hosts in
  (fab, sources, target)

let test_phost_incast_no_drops () =
  let fab, sources, target = incast_fabric () in
  let instances =
    List.map (fun h -> (h, Phost.create ~access_gbps:10. ())) (target :: sources)
  in
  List.iter (fun (h, p) -> Phost.enable p (Fabric.agent fab h)) instances;
  let receiver = List.assoc target instances in
  let bytes = 300_000 in
  List.iteri
    (fun i src ->
      Phost.send_flow (List.assoc src instances) (Fabric.agent fab src) ~dst:target
        ~flow:(1000 + i) ~bytes)
    sources;
  Fabric.run fab;
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d completed" (1000 + i))
        true
        (Phost.completed receiver ~flow:(1000 + i)))
    sources;
  check Alcotest.int "no queue drops under incast" 0
    (Network.stats (Fabric.network fab)).Network.queue_drops;
  Alcotest.(check bool) "tokens were granted" true (Phost.tokens_sent receiver > 0);
  check Alcotest.int "ring drained" 0 (Phost.active_incoming receiver)

let test_naive_incast_drops () =
  (* The contrast case: the same offered load without receiver pacing
     overflows the access-link queue. *)
  let fab, sources, target = incast_fabric () in
  List.iteri
    (fun i src ->
      for seq = 0 to 206 do
        ignore (Fabric.send fab ~src ~dst:target ~flow:(1000 + i) ~seq ~size:1450 ())
      done)
    sources;
  Fabric.run fab;
  Alcotest.(check bool) "naive incast drops" true
    ((Network.stats (Fabric.network fab)).Network.queue_drops > 0)

let test_phost_validates () =
  let fab, sources, target = incast_fabric () in
  let p = Phost.create () in
  Phost.enable p (Fabric.agent fab (List.hd sources));
  Alcotest.(check bool) "zero bytes rejected" true
    (try
       Phost.send_flow p (Fabric.agent fab (List.hd sources)) ~dst:target ~flow:1 ~bytes:0;
       false
     with Invalid_argument _ -> true);
  Phost.send_flow p (Fabric.agent fab (List.hd sources)) ~dst:target ~flow:1 ~bytes:100;
  Alcotest.(check bool) "duplicate flow rejected" true
    (try
       Phost.send_flow p (Fabric.agent fab (List.hd sources)) ~dst:target ~flow:1 ~bytes:100;
       false
     with Invalid_argument _ -> true)

(* --- virtual networks --- *)

let vnet_setup () =
  let built = Builder.testbed () in
  let fab = Fabric.create ~seed:3 built in
  let vnet = Virtual_net.create ~controller:(Fabric.controller fab) () in
  let leaves = [ 2; 3; 4; 5; 6 ] in
  let hosts = Array.of_list built.Builder.hosts in
  let red = Array.to_list (Array.sub hosts 0 13) in
  let blue = Array.to_list (Array.sub hosts 13 14) in
  Virtual_net.add_tenant vnet ~name:"red" ~switches:(Switch_set.of_list (0 :: leaves)) ~hosts:red;
  Virtual_net.add_tenant vnet ~name:"blue" ~switches:(Switch_set.of_list (1 :: leaves)) ~hosts:blue;
  (fab, vnet, red, blue)

let test_vnet_serves_inside_slice () =
  let _, vnet, red, _ = vnet_setup () in
  let src = List.nth red 0 and dst = List.nth red 12 in
  match Virtual_net.serve vnet ~tenant:"red" ~src ~dst with
  | None -> Alcotest.fail "no path in slice"
  | Some pg ->
    let p = Dumbnet.Topology.Pathgraph.primary pg in
    Alcotest.(check bool) "isolated" true (Virtual_net.isolated vnet ~tenant:"red" p);
    Alcotest.(check bool) "never touches spine 1" false (List.mem 1 (Path.switches p))

let test_vnet_rejects_cross_tenant () =
  let _, vnet, red, blue = vnet_setup () in
  Alcotest.(check bool) "cross-tenant refused" true
    (Virtual_net.serve vnet ~tenant:"red" ~src:(List.hd red) ~dst:(List.hd blue) = None);
  Alcotest.(check bool) "unknown tenant refused" true
    (Virtual_net.serve vnet ~tenant:"green" ~src:(List.hd red) ~dst:(List.nth red 1) = None);
  check Alcotest.(option string) "membership lookup" (Some "blue")
    (Virtual_net.tenant_of_host vnet (List.hd blue))

let test_vnet_verifier_blocks_escape () =
  let fab, vnet, red, _ = vnet_setup () in
  let g = Dumbnet.Sim.Network.graph (Fabric.network fab) in
  let src = List.nth red 0 and dst = List.nth red 12 in
  (* A route through blue's spine (id 1). *)
  let snap = Graph.adjacency g in
  let mark = Bytes.make (Adjacency.id_bound snap) '\001' in
  Bytes.set mark 0 '\000';
  let switches = Array.of_list (List.filter (fun sw -> sw <> 0) (Graph.switch_ids g)) in
  let no_spine0 = Adjacency.of_cables ~switches (Adjacency.induced snap mark) in
  let src_loc = Option.get (Graph.host_location g src) in
  let dst_loc = Option.get (Graph.host_location g dst) in
  let escape =
    match Adjacency.shortest_route no_spine0 ~src:src_loc.sw ~dst:dst_loc.sw with
    | Some route -> Option.get (Path.of_route no_spine0 ~src ~src_loc ~dst ~dst_loc route)
    | None -> Alcotest.fail "no escape route to test"
  in
  Alcotest.(check bool) "escape is valid fabric-wide" true (Path.validate g escape);
  Alcotest.(check bool) "but not isolated" false (Virtual_net.isolated vnet ~tenant:"red" escape);
  match Virtual_net.verifier vnet ~tenant:"red" ~src ~dst with
  | None -> Alcotest.fail "no verifier"
  | Some v -> (
    match Verifier.verify v escape with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "verifier must reject the escape route")

let () =
  Alcotest.run "ext"
    [
      ( "flowlet",
        [
          Alcotest.test_case "stable within burst" `Quick test_flowlet_stable_within_burst;
          Alcotest.test_case "bumps after gap" `Quick test_flowlet_bumps_after_gap;
          Alcotest.test_case "spreads paths" `Quick test_flowlet_spreads_paths;
          Alcotest.test_case "bad gap rejected" `Quick test_flowlet_rejects_bad_gap;
        ] );
      ( "ecn_reroute",
        [
          Alcotest.test_case "marks, echoes, reroutes" `Quick test_ecn_marks_and_reroutes;
          Alcotest.test_case "off by default" `Quick test_ecn_disabled_no_marks;
        ] );
      ( "l3_router",
        [
          Alcotest.test_case "address pack/unpack" `Quick test_address_pack_unpack;
          QCheck_alcotest.to_alcotest address_roundtrip_prop;
          Alcotest.test_case "forwarding" `Quick test_l3_forwarding;
          Alcotest.test_case "combined path shortcut" `Quick test_l3_combined_path;
        ] );
      ( "phost",
        [
          Alcotest.test_case "incast without drops" `Quick test_phost_incast_no_drops;
          Alcotest.test_case "naive incast drops" `Quick test_naive_incast_drops;
          Alcotest.test_case "validation" `Quick test_phost_validates;
        ] );
      ( "virtual_net",
        [
          Alcotest.test_case "serves inside slice" `Quick test_vnet_serves_inside_slice;
          Alcotest.test_case "rejects cross-tenant" `Quick test_vnet_rejects_cross_tenant;
          Alcotest.test_case "verifier blocks escape" `Quick test_vnet_verifier_blocks_escape;
        ] );
    ]
