(* Tests for the comparison baselines: spanning tree and ECMP. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Stp = Dumbnet.Baseline.Stp
module Ecmp = Dumbnet.Baseline.Ecmp
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- stp --- *)

let test_stp_tree_shape () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let t = Stp.build g in
  check Alcotest.int "root is lowest id" 0 (Stp.root t);
  (* A spanning tree over 7 switches has 6 edges. *)
  check Alcotest.int "n-1 tree links" 6 (List.length (Stp.tree_links t));
  (* Everything not on the tree is blocked. *)
  let blocked =
    List.filter (fun (key, _) -> Stp.blocks t key) (Graph.switch_links g)
  in
  check Alcotest.int "blocked links" 4 (List.length blocked)

let test_stp_paths_follow_tree () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let t = Stp.build g in
  List.iter
    (fun dst ->
      match Stp.path t ~src:0 ~dst with
      | None -> Alcotest.fail "tree must connect all hosts"
      | Some p ->
        Alcotest.(check bool) "path validates" true (Path.validate g p);
        (* Every fabric link used is a tree link. *)
        List.iter
          (fun (key, _) ->
            if Path.crosses p key then
              Alcotest.(check bool) "tree link only" false (Stp.blocks t key))
          (Graph.switch_links g))
    [ 5; 10; 15; 20; 26 ]

let test_stp_same_host_none () =
  let b = Builder.testbed () in
  let t = Stp.build b.Builder.graph in
  Alcotest.(check bool) "no self path" true (Stp.path t ~src:0 ~dst:0 = None)

let test_stp_reconvergence_after_cut () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let t = Stp.build g in
  (* Cut a tree link, rebuild: hosts reconnect over a former blocked
     link. *)
  let key = List.hd (Stp.tree_links t) in
  let a, _ = Link_key.ends key in
  Graph.set_link_state g a ~up:false;
  let t2 = Stp.build g in
  check Alcotest.int "still spans" 6 (List.length (Stp.tree_links t2));
  List.iter
    (fun dst ->
      Alcotest.(check bool) "all hosts reachable" true (Stp.path t2 ~src:0 ~dst <> None))
    [ 5; 10; 20 ];
  Alcotest.(check bool) "convergence model positive" true (Stp.convergence_delay_ns g > 0)

let test_stp_old_tree_blackholes () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let t = Stp.build g in
  match Stp.path t ~src:0 ~dst:20 with
  | None -> Alcotest.fail "no path"
  | Some p -> (
    match p.Path.hops with
    | (sw, port) :: _ ->
      Graph.set_link_state g { sw; port } ~up:false;
      (* The un-reconverged tree still serves the dead path: packets
         would blackhole, exactly the Fig 11(b) window. *)
      (match Stp.path t ~src:0 ~dst:20 with
      | Some stale -> Alcotest.(check bool) "stale path now invalid" false (Path.validate g stale)
      | None -> Alcotest.fail "old tree should still answer")
    | [] -> Alcotest.fail "empty path")

(* --- ecmp --- *)

let test_ecmp_paths_equal_cost () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let paths = Ecmp.equal_cost_paths g ~src:0 ~dst:20 in
  check Alcotest.int "two spine choices" 2 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check bool) "validates" true (Path.validate g p);
      check Alcotest.int "shortest" 3 (Path.length p))
    paths;
  check Alcotest.int "distinct" 2 (List.length (List.sort_uniq compare paths))

let test_ecmp_hash_stable () =
  let b = Builder.testbed () in
  let paths = Ecmp.equal_cost_paths b.Builder.graph ~src:0 ~dst:20 in
  match Ecmp.choose ~flow:7 paths with
  | None -> Alcotest.fail "no choice"
  | Some p ->
    for _ = 1 to 10 do
      Alcotest.(check bool) "stable per flow" true (Ecmp.choose ~flow:7 paths = Some p)
    done;
    Alcotest.(check bool) "empty gives none" true (Ecmp.choose ~flow:7 [] = None)

let test_ecmp_spreads_flows () =
  let b = Builder.testbed () in
  let paths = Ecmp.equal_cost_paths b.Builder.graph ~src:0 ~dst:20 in
  let seen = Hashtbl.create 4 in
  for flow = 0 to 63 do
    match Ecmp.choose ~flow paths with
    | Some p -> Hashtbl.replace seen p ()
    | None -> Alcotest.fail "no choice"
  done;
  check Alcotest.int "both used across flows" 2 (Hashtbl.length seen)

let test_ecmp_cache_invalidate () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let e = Ecmp.create g in
  let eng = Dumbnet.Sim.Engine.create () in
  let net = Dumbnet.Sim.Network.create ~engine:eng ~graph:g () in
  let agent = Dumbnet.Host.Agent.create ~network:net ~rng:(Rng.create 1) ~self:0 () in
  let fn = Ecmp.routing_fn e in
  (match fn agent ~now_ns:0 ~dst:20 ~flow:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "ecmp must route");
  (* Cut both spine links from the source leaf, then invalidate: no
     route remains. *)
  Graph.set_link_state g { sw = 2; port = 1 } ~up:false;
  Graph.set_link_state g { sw = 2; port = 2 } ~up:false;
  Alcotest.(check bool) "stale cache still answers" true (fn agent ~now_ns:0 ~dst:20 ~flow:1 <> None);
  Ecmp.invalidate e;
  Alcotest.(check bool) "fresh lookup sees the cut" true (fn agent ~now_ns:0 ~dst:20 ~flow:1 = None)

let () =
  Alcotest.run "baseline"
    [
      ( "stp",
        [
          Alcotest.test_case "tree shape" `Quick test_stp_tree_shape;
          Alcotest.test_case "paths follow tree" `Quick test_stp_paths_follow_tree;
          Alcotest.test_case "self path" `Quick test_stp_same_host_none;
          Alcotest.test_case "reconvergence" `Quick test_stp_reconvergence_after_cut;
          Alcotest.test_case "old tree blackholes" `Quick test_stp_old_tree_blackholes;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "equal cost" `Quick test_ecmp_paths_equal_cost;
          Alcotest.test_case "hash stable" `Quick test_ecmp_hash_stable;
          Alcotest.test_case "spreads flows" `Quick test_ecmp_spreads_flows;
          Alcotest.test_case "cache invalidate" `Quick test_ecmp_cache_invalidate;
        ] );
    ]
