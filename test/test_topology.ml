(* Tests for the topology substrate: graph, builders, routing, paths. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- graph --- *)

let small_graph () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~ports:4 in
  let s1 = Graph.add_switch g ~ports:4 in
  let h0 = Graph.add_host g in
  Graph.connect g { sw = s0; port = 1 } { sw = s1; port = 1 };
  Graph.attach_host g h0 { sw = s0; port = 2 };
  (g, s0, s1, h0)

let test_graph_basics () =
  let g, s0, s1, h0 = small_graph () in
  check Alcotest.int "switches" 2 (Graph.num_switches g);
  check Alcotest.int "hosts" 1 (Graph.num_hosts g);
  check Alcotest.int "ports" 4 (Graph.ports_of g s0);
  Alcotest.(check bool) "endpoint switch" true
    (Graph.endpoint_at g { sw = s0; port = 1 } = Some (Switch s1));
  Alcotest.(check bool) "endpoint host" true
    (Graph.endpoint_at g { sw = s0; port = 2 } = Some (Host h0));
  Alcotest.(check bool) "empty port" true (Graph.endpoint_at g { sw = s0; port = 3 } = None);
  Alcotest.(check bool) "peer port" true
    (Graph.peer_port g { sw = s0; port = 1 } = Some { sw = s1; port = 1 });
  Alcotest.(check bool) "host location" true
    (Graph.host_location g h0 = Some { sw = s0; port = 2 })

let test_graph_rejects_misuse () =
  let g, s0, _, h0 = small_graph () in
  Alcotest.(check bool) "occupied port" true
    (try
       Graph.connect g { sw = s0; port = 1 } { sw = s0; port = 3 };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "double attach" true
    (try
       Graph.attach_host g h0 { sw = s0; port = 3 };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "port out of range" true
    (try
       Graph.connect g { sw = s0; port = 9 } { sw = s0; port = 3 };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "too many ports" true
    (try
       ignore (Graph.add_switch g ~ports:255);
       false
     with Invalid_argument _ -> true)

let test_graph_link_state () =
  let g, s0, s1, _ = small_graph () in
  Alcotest.(check bool) "up" true (Graph.link_up g { sw = s0; port = 1 });
  Graph.set_link_state g { sw = s0; port = 1 } ~up:false;
  Alcotest.(check bool) "down" false (Graph.link_up g { sw = s0; port = 1 });
  Alcotest.(check bool) "down from other side" false (Graph.link_up g { sw = s1; port = 1 });
  Alcotest.(check bool) "neighbors hide down links" true (Graph.switch_neighbors g s0 = []);
  Graph.set_link_state g { sw = s1; port = 1 } ~up:true;
  Alcotest.(check bool) "restored" true (Graph.link_up g { sw = s0; port = 1 })

let test_graph_remove_link () =
  let g, s0, s1, h0 = small_graph () in
  Graph.remove_link g { sw = s0; port = 1 };
  Alcotest.(check bool) "both ends empty" true
    (Graph.endpoint_at g { sw = s0; port = 1 } = None
    && Graph.endpoint_at g { sw = s1; port = 1 } = None);
  Graph.remove_link g { sw = s0; port = 2 };
  Alcotest.(check bool) "host detached" true (Graph.host_location g h0 = None)

let test_graph_copy_equal () =
  let g, s0, _, _ = small_graph () in
  let g2 = Graph.copy g in
  Alcotest.(check bool) "copies equal" true (Graph.equal g g2);
  Graph.set_link_state g2 { sw = s0; port = 1 } ~up:false;
  Alcotest.(check bool) "state diverges" false (Graph.equal g g2);
  Alcotest.(check bool) "original untouched" true (Graph.link_up g { sw = s0; port = 1 })

let test_graph_connected () =
  let g, s0, _, _ = small_graph () in
  Alcotest.(check bool) "connected" true (Graph.connected g);
  Graph.set_link_state g { sw = s0; port = 1 } ~up:false;
  Alcotest.(check bool) "disconnected after cut" false (Graph.connected g)

let test_graph_explicit_ids () =
  let g = Graph.create () in
  Graph.add_switch_with_id g ~id:42 ~ports:4;
  Graph.add_host_with_id g ~id:7;
  Alcotest.(check bool) "switch exists" true (Graph.switch_ids g = [ 42 ]);
  Alcotest.(check bool) "host exists" true (Graph.host_ids g = [ 7 ]);
  let s = Graph.add_switch g ~ports:4 in
  check Alcotest.int "auto id skips" 43 s;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Graph.add_switch_with_id g ~id:42 ~ports:4;
       false
     with Invalid_argument _ -> true)

(* Ids enter the model only inside the push ledger's int-key ranges. *)
let test_graph_id_ranges () =
  let g = Graph.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Graph.add_switch_with_id g ~id:max_switch_id ~ports:4;
  Graph.add_host_with_id g ~id:max_host_id;
  Alcotest.(check bool) "switch id past the range" true
    (raises (fun () -> Graph.add_switch_with_id g ~id:(max_switch_id + 1) ~ports:4));
  Alcotest.(check bool) "negative switch id" true
    (raises (fun () -> Graph.add_switch_with_id g ~id:(-1) ~ports:4));
  Alcotest.(check bool) "host id past the range" true
    (raises (fun () -> Graph.add_host_with_id g ~id:(max_host_id + 1)));
  Alcotest.(check bool) "automatic switch id past the range" true
    (raises (fun () -> ignore (Graph.add_switch g ~ports:4)));
  Alcotest.(check bool) "automatic host id past the range" true
    (raises (fun () -> ignore (Graph.add_host g)));
  Alcotest.(check bool) "refused ids left no trace" true
    (Graph.switch_ids g = [ max_switch_id ] && Graph.host_ids g = [ max_host_id ])

(* --- builders --- *)

let test_builder_figure1 () =
  let b = Builder.figure1 () in
  check Alcotest.int "switches" 5 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "hosts" 6 (Graph.num_hosts b.Builder.graph);
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph);
  (* The paper's worked example: link S2-S3 joins S2-1 and S3-2 (our
     ids: S2=1, S3=2). *)
  Alcotest.(check bool) "S2-S3 link as in text" true
    (Graph.peer_port b.Builder.graph { sw = 1; port = 1 } = Some { sw = 2; port = 2 });
  Alcotest.(check bool) "controller at S3-9" true
    (Graph.host_location b.Builder.graph b.Builder.controller = Some { sw = 2; port = 9 })

let test_builder_testbed () =
  let b = Builder.testbed () in
  check Alcotest.int "7 switches" 7 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "27 servers" 27 (Graph.num_hosts b.Builder.graph);
  check Alcotest.int "10 fabric links" 10 (List.length (Graph.switch_links b.Builder.graph));
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph)

let test_builder_leaf_spine () =
  let b = Builder.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
  check Alcotest.int "switches" 7 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "hosts" 8 (Graph.num_hosts b.Builder.graph);
  check Alcotest.int "links" 12 (List.length (Graph.switch_links b.Builder.graph));
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph)

let test_builder_fat_tree () =
  let b = Builder.fat_tree ~k:4 () in
  check Alcotest.int "switches" 20 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "hosts" 16 (Graph.num_hosts b.Builder.graph);
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph);
  Alcotest.(check bool) "k must be even" true
    (try
       ignore (Builder.fat_tree ~k:3 ());
       false
     with Invalid_argument _ -> true)

let test_builder_cube () =
  let b = Builder.cube ~n:3 ~controller_at:`Center () in
  check Alcotest.int "27 switches" 27 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "one host per switch" 27 (Graph.num_hosts b.Builder.graph);
  check Alcotest.int "links" 54 (List.length (Graph.switch_links b.Builder.graph));
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph);
  match Graph.host_location b.Builder.graph b.Builder.controller with
  | Some loc -> check Alcotest.int "center controller" 13 loc.sw
  | None -> Alcotest.fail "controller detached"

let test_builder_random_regular () =
  let rng = Rng.create 3 in
  let b = Builder.random_regular ~rng ~switches:12 ~degree:3 ~hosts_per_switch:1 () in
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph);
  check Alcotest.int "hosts" 12 (Graph.num_hosts b.Builder.graph)

let test_builder_star () =
  let b = Builder.star ~leaves:4 ~hosts_per_leaf:2 () in
  check Alcotest.int "switches" 5 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "hosts" 8 (Graph.num_hosts b.Builder.graph);
  check Alcotest.int "links" 4 (List.length (Graph.switch_links b.Builder.graph));
  Alcotest.(check bool) "connected" true (Graph.connected b.Builder.graph)

let test_builder_linear () =
  let b = Builder.linear ~n:5 () in
  check Alcotest.int "switches" 5 (Graph.num_switches b.Builder.graph);
  check Alcotest.int "links" 4 (List.length (Graph.switch_links b.Builder.graph))

(* --- routing --- *)

let test_bfs_distances () =
  let b = Builder.linear ~n:5 () in
  let adj = Routing.graph_adjacency b.Builder.graph in
  let d = Routing.bfs_distances adj ~from:0 in
  check Alcotest.int "distance to end" 4 (Hashtbl.find d 4);
  check Alcotest.int "distance to self" 0 (Hashtbl.find d 0)

let test_shortest_route () =
  let b = Builder.figure1 () in
  let adj = Routing.graph_adjacency b.Builder.graph in
  match Routing.shortest_route adj ~src:2 ~dst:3 with
  | Some route -> check Alcotest.int "3 switches" 3 (List.length route)
  | None -> Alcotest.fail "no route"

let test_shortest_route_same () =
  let b = Builder.linear ~n:2 () in
  let adj = Routing.graph_adjacency b.Builder.graph in
  Alcotest.(check bool) "trivial route" true
    (Routing.shortest_route adj ~src:0 ~dst:0 = Some [ 0 ])

let test_shortest_route_avoiding () =
  let b = Builder.figure1 () in
  let adj = Routing.graph_adjacency b.Builder.graph in
  match
    Routing.shortest_route_avoiding ~banned_nodes:(Switch_set.singleton 0) ~banned_edges:[] adj
      ~src:2 ~dst:3
  with
  | Some route -> Alcotest.(check bool) "avoids S1" true (not (List.mem 0 route))
  | None -> Alcotest.fail "no route"

let test_weighted_route () =
  let b = Builder.figure1 () in
  let adj = Routing.graph_adjacency b.Builder.graph in
  let weight (a : link_end) (b : link_end) = if a.sw = 0 || b.sw = 0 then 10. else 1. in
  match Routing.weighted_route ~weight adj ~src:2 ~dst:3 with
  | Some route -> Alcotest.(check bool) "prefers cheap spine" true (List.mem 1 route)
  | None -> Alcotest.fail "no route"

let test_k_shortest () =
  let b = Builder.figure1 () in
  let snap = Graph.adjacency b.Builder.graph in
  let routes = Adjacency.k_shortest_routes snap ~src:2 ~dst:3 ~k:4 in
  Alcotest.(check bool) "at least 2" true (List.length routes >= 2);
  let lengths = List.map List.length routes in
  Alcotest.(check bool) "sorted" true (lengths = List.sort compare lengths);
  List.iter
    (fun r ->
      Alcotest.(check bool) "loop-free" true
        (List.length r = List.length (List.sort_uniq compare r)))
    routes;
  check Alcotest.int "distinct" (List.length routes)
    (List.length (List.sort_uniq compare routes))

let test_host_route_and_validate () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let src = List.nth b.Builder.hosts 0 and dst = List.nth b.Builder.hosts 20 in
  match Routing.host_route g ~src ~dst with
  | Some p ->
    Alcotest.(check bool) "validates" true (Path.validate g p);
    check Alcotest.int "tags match hops" (Path.length p) (List.length (Path.tags p))
  | None -> Alcotest.fail "no route"

(* --- path --- *)

let test_path_reverse () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let src = List.nth b.Builder.hosts 2 and dst = List.nth b.Builder.hosts 25 in
  match Routing.host_route g ~src ~dst with
  | None -> Alcotest.fail "no route"
  | Some p -> (
    match Path.reverse g p with
    | None -> Alcotest.fail "no reverse"
    | Some r ->
      Alcotest.(check bool) "reverse validates" true (Path.validate g r);
      check Alcotest.int "src swapped" p.Path.dst r.Path.src;
      check Alcotest.int "dst swapped" p.Path.src r.Path.dst;
      Alcotest.(check bool) "switches reversed" true
        (Path.switches r = List.rev (Path.switches p)))

let test_path_validate_rejects () =
  let b = Builder.figure1 () in
  let g = b.Builder.graph in
  let bogus = { Path.src = 3; hops = [ (3, 6) ]; dst = 4 } in
  Alcotest.(check bool) "bogus rejected" false (Path.validate g bogus);
  match Routing.host_route g ~src:3 ~dst:4 with
  | None -> Alcotest.fail "no route"
  | Some p ->
    (match p.Path.hops with
    | (sw, port) :: _ -> Graph.set_link_state g { sw; port } ~up:false
    | [] -> Alcotest.fail "empty path");
    Alcotest.(check bool) "dead link rejected" false (Path.validate g p)

let test_path_crosses () =
  let b = Builder.figure1 () in
  let g = b.Builder.graph in
  match Routing.host_route g ~src:3 ~dst:4 with
  | None -> Alcotest.fail "no route"
  | Some p -> (
    match p.Path.hops with
    | (sw, port) :: _ -> (
      let le = { sw; port } in
      match Graph.peer_port g le with
      | Some other ->
        let key = Link_key.make le other in
        Alcotest.(check bool) "crosses its own link" true (Path.crosses p key);
        Alcotest.(check bool) "uses_link agrees" true (Path.uses_link p g key)
      | None -> Alcotest.fail "no peer")
    | [] -> Alcotest.fail "empty path")

(* --- properties on random graphs --- *)

let random_built seed =
  let rng = Rng.create seed in
  Builder.random_regular ~rng ~switches:(6 + Rng.int rng 10) ~degree:3 ~hosts_per_switch:1 ()

let shortest_matches_bfs_prop =
  QCheck.Test.make ~name:"shortest_route length equals BFS distance" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let b = random_built seed in
      let adj = Routing.graph_adjacency b.Builder.graph in
      let switches = Graph.switch_ids b.Builder.graph in
      let src = List.hd switches and dst = List.nth switches (List.length switches - 1) in
      let d = Routing.bfs_distances adj ~from:src in
      match Routing.shortest_route adj ~src ~dst with
      | Some route -> List.length route = Hashtbl.find d dst + 1
      | None -> not (Hashtbl.mem d dst))

let k_shortest_valid_prop =
  QCheck.Test.make ~name:"k-shortest routes are valid concrete paths" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let b = random_built seed in
      let g = b.Builder.graph in
      let hosts = b.Builder.hosts in
      let src = List.hd hosts and dst = List.nth hosts (List.length hosts - 1) in
      let paths = Routing.k_host_paths g ~src ~dst ~k:4 in
      paths <> [] && List.for_all (Path.validate g) paths)

(* Random multigraphs on 2-8 switches, parallel cables included. *)
let small_multigraph rng =
  let g = Graph.create () in
  let n = 2 + Rng.int rng 7 in
  let sws = Array.init n (fun _ -> Graph.add_switch g ~ports:16) in
  let next = Array.make n 1 in
  for _ = 1 to Rng.int rng 15 do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      Graph.connect g { sw = sws.(a); port = next.(a) } { sw = sws.(b); port = next.(b) };
      next.(a) <- next.(a) + 1;
      next.(b) <- next.(b) + 1
    end
  done;
  (g, sws)

(* Lengths (in switches) of every simple route, by exhaustive DFS. *)
let simple_route_lengths snap ~src ~dst =
  let peers sw =
    List.sort_uniq compare (List.map (fun (_, p, _) -> p) (Adjacency.neighbors snap sw))
  in
  let rec dfs sw visited acc =
    if sw = dst then List.length visited :: acc
    else
      List.fold_left
        (fun acc p -> if List.mem p visited then acc else dfs p (p :: visited) acc)
        acc (peers sw)
  in
  List.sort compare (dfs src [ src ] [])

let k_shortest_brute_force_prop =
  QCheck.Test.make ~name:"k-shortest = brute force on small multigraphs" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g, sws = small_multigraph rng in
      let snap = Graph.adjacency g in
      let src = Rng.pick_array rng sws and dst = Rng.pick_array rng sws in
      let k = 1 + Rng.int rng 6 in
      let walk_rng = if Rng.int rng 2 = 0 then Some rng else None in
      let routes = Adjacency.k_shortest_routes ?rng:walk_rng snap ~src ~dst ~k in
      let adjacent a b = List.exists (fun (_, p, _) -> p = b) (Adjacency.neighbors snap a) in
      let rec valid = function
        | a :: (b :: _ as rest) -> adjacent a b && valid rest
        | [ last ] -> last = dst
        | [] -> false
      in
      let loop_free r = List.length (List.sort_uniq compare r) = List.length r in
      let smallest = List.filteri (fun i _ -> i < k) (simple_route_lengths snap ~src ~dst) in
      List.length (List.sort_uniq compare routes) = List.length routes
      && List.for_all (fun r -> List.hd r = src && valid r && loop_free r) routes
      && List.map List.length routes = smallest)

let reverse_roundtrip_prop =
  QCheck.Test.make ~name:"reverse of reverse is the original path" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let b = random_built seed in
      let g = b.Builder.graph in
      let hosts = b.Builder.hosts in
      let src = List.hd hosts and dst = List.nth hosts (List.length hosts / 2) in
      if src = dst then true
      else
        match Routing.host_route g ~src ~dst with
        | None -> true
        | Some p -> (
          match Path.reverse g p with
          | None -> false
          | Some r -> Option.map (Path.equal p) (Path.reverse g r) = Some true))

(* --- adjacency snapshots --- *)

(* The CSR snapshot must be indistinguishable from asking the graph
   directly, including neighbor order (port order), or memoized routing
   would quietly diverge from fresh routing. *)
let snapshot_agrees g =
  let snap = Graph.adjacency g in
  List.for_all
    (fun sw -> Adjacency.neighbors snap sw = Graph.switch_neighbors g sw)
    (Graph.switch_ids g)

let test_adjacency_matches_graph () =
  let b = Builder.fat_tree ~k:4 () in
  let g = b.Builder.graph in
  Alcotest.(check bool) "snapshot = switch_neighbors" true (snapshot_agrees g);
  let snap = Graph.adjacency g in
  check Alcotest.int "edge count symmetric"
    (List.fold_left (fun acc sw -> acc + List.length (Graph.switch_neighbors g sw)) 0
       (Graph.switch_ids g))
    (Adjacency.num_edges snap);
  Alcotest.(check bool) "unknown switch has no neighbors" true
    (Adjacency.neighbors snap 9999 = [])

let test_adjacency_cached_until_mutation () =
  let b = Builder.leaf_spine ~leaves:3 ~spines:2 ~hosts_per_leaf:1 () in
  let g = b.Builder.graph in
  let s0 = Graph.adjacency g in
  Alcotest.(check bool) "same generation, same snapshot" true (Graph.adjacency g == s0);
  let le = { sw = List.hd (Graph.switch_ids g); port = 1 } in
  Graph.set_link_state g le ~up:false;
  let s1 = Graph.adjacency g in
  Alcotest.(check bool) "mutation rebuilds" true (not (s1 == s0));
  Alcotest.(check bool) "rebuilt snapshot agrees" true (snapshot_agrees g);
  Graph.set_link_state g le ~up:true;
  Alcotest.(check bool) "restore agrees too" true (snapshot_agrees g)

let test_adjacency_bfs_matches_routing () =
  let b = Builder.fat_tree ~k:4 () in
  let g = b.Builder.graph in
  let snap = Graph.adjacency g in
  List.iter
    (fun from ->
      let via_snap = Adjacency.bfs_distances snap ~from in
      let via_lists = Routing.bfs_distances (Routing.graph_adjacency g) ~from in
      List.iter
        (fun sw ->
          let expected = Option.value ~default:(-1) (Hashtbl.find_opt via_lists sw) in
          check Alcotest.int "same distance" expected (Adjacency.distance via_snap sw))
        (Graph.switch_ids g);
      check Alcotest.int "beyond the table reads unreachable" (-1)
        (Adjacency.distance via_snap (Array.length via_snap)))
    (Graph.switch_ids g)

(* Randomized churn: link flaps, cable removals and fresh cables, in
   any order — after every mutation the snapshot must agree with the
   graph it summarizes. *)
let adjacency_under_mutation_prop =
  QCheck.Test.make ~name:"adjacency snapshot agrees under randomized mutation" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let b = Builder.random_regular ~rng:(Rng.split rng) ~switches:12 ~degree:3 ~hosts_per_switch:1 () in
      let g = b.Builder.graph in
      let switch_links () =
        List.map fst (Graph.switch_links g)
      in
      let ok = ref (snapshot_agrees g) in
      for _ = 1 to 30 do
        (match Rng.int rng 4 with
        | 0 | 1 -> (
          (* flap a random cabled switch-switch link *)
          match switch_links () with
          | [] -> ()
          | links ->
            let key = Rng.pick rng links in
            let le, _ = Types.Link_key.ends key in
            Graph.set_link_state g le ~up:(Rng.int rng 2 = 0)
          )
        | 2 -> (
          (* remove a cable outright *)
          match switch_links () with
          | [] -> ()
          | links -> Graph.remove_link g (fst (Types.Link_key.ends (Rng.pick rng links))))
        | _ -> (
          (* cable two free ports together, if any exist *)
          let free =
            List.concat_map
              (fun sw ->
                List.filter_map
                  (fun p ->
                    if Graph.endpoint_at g { sw; port = p } = None then Some { sw; port = p }
                    else None)
                  (List.init (Graph.ports_of g sw) (fun i -> i + 1)))
              (Graph.switch_ids g)
          in
          match free with
          | a :: (_ :: _ as rest) ->
            let other = Rng.pick rng rest in
            if other.sw <> a.sw then Graph.connect g a other
          | _ -> ()));
        ok := !ok && snapshot_agrees g
      done;
      !ok)

(* Link keys order on ints exactly as the polymorphic compare ordered
   their (lower end, higher end) tuples, so every Link_set iterates in
   the same order. *)
let link_key_order_prop =
  let le = QCheck.(map (fun (sw, port) -> { sw; port }) (pair (int_bound 40) (int_bound 6))) in
  QCheck.Test.make ~name:"link keys sort as polymorphic compare did" ~count:200
    QCheck.(list_of_size Gen.(0 -- 30) (pair le le))
    (fun ends ->
      let keys = List.map (fun (a, b) -> Link_key.make a b) ends in
      let by_key = List.map Link_key.ends (List.sort Link_key.compare keys) in
      let by_poly = List.sort compare (List.map Link_key.ends keys) in
      let canonical (a, b) = compare (a.sw, a.port) (b.sw, b.port) <= 0 in
      by_key = by_poly
      && List.for_all canonical by_key
      && List.for_all2
           (fun k1 k2 -> Link_key.equal k1 k2 = (Link_key.compare k1 k2 = 0))
           keys (List.rev keys))

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "misuse rejected" `Quick test_graph_rejects_misuse;
          Alcotest.test_case "link state" `Quick test_graph_link_state;
          Alcotest.test_case "remove link" `Quick test_graph_remove_link;
          Alcotest.test_case "copy/equal" `Quick test_graph_copy_equal;
          Alcotest.test_case "connected" `Quick test_graph_connected;
          Alcotest.test_case "explicit ids" `Quick test_graph_explicit_ids;
          Alcotest.test_case "id ranges" `Quick test_graph_id_ranges;
          QCheck_alcotest.to_alcotest link_key_order_prop;
        ] );
      ( "builders",
        [
          Alcotest.test_case "figure1" `Quick test_builder_figure1;
          Alcotest.test_case "testbed" `Quick test_builder_testbed;
          Alcotest.test_case "leaf-spine" `Quick test_builder_leaf_spine;
          Alcotest.test_case "fat tree" `Quick test_builder_fat_tree;
          Alcotest.test_case "cube" `Quick test_builder_cube;
          Alcotest.test_case "random regular" `Quick test_builder_random_regular;
          Alcotest.test_case "star" `Quick test_builder_star;
          Alcotest.test_case "linear" `Quick test_builder_linear;
        ] );
      ( "routing",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "shortest route" `Quick test_shortest_route;
          Alcotest.test_case "trivial route" `Quick test_shortest_route_same;
          Alcotest.test_case "avoiding" `Quick test_shortest_route_avoiding;
          Alcotest.test_case "weighted" `Quick test_weighted_route;
          Alcotest.test_case "k-shortest" `Quick test_k_shortest;
          Alcotest.test_case "host route validates" `Quick test_host_route_and_validate;
          QCheck_alcotest.to_alcotest shortest_matches_bfs_prop;
          QCheck_alcotest.to_alcotest k_shortest_valid_prop;
          QCheck_alcotest.to_alcotest k_shortest_brute_force_prop;
        ] );
      ( "path",
        [
          Alcotest.test_case "reverse" `Quick test_path_reverse;
          Alcotest.test_case "validate rejects" `Quick test_path_validate_rejects;
          Alcotest.test_case "crosses" `Quick test_path_crosses;
          QCheck_alcotest.to_alcotest reverse_roundtrip_prop;
        ] );
      ( "adjacency",
        [
          Alcotest.test_case "matches graph" `Quick test_adjacency_matches_graph;
          Alcotest.test_case "cached until mutation" `Quick test_adjacency_cached_until_mutation;
          Alcotest.test_case "bfs matches routing" `Quick test_adjacency_bfs_matches_routing;
          QCheck_alcotest.to_alcotest adjacency_under_mutation_prop;
        ] );
    ]
