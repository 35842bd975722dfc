(* Tests for Algorithm 1 path graphs: structure invariants, routing
   around failed cables, serialization, reversal, merging, and the
   switch-level body shared by host pairs on the same two switches. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

let gen ?s ?eps ?(seed = 1) g ~src ~dst =
  match Pathgraph.generate ?s ?eps ~rng:(Rng.create seed) g ~src ~dst with
  | Some pg -> pg
  | None -> Alcotest.fail "no path graph"

let test_contains_primary () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  let primary = Pathgraph.primary pg in
  Alcotest.(check bool) "primary validates" true (Path.validate g primary);
  List.iter
    (fun sw ->
      Alcotest.(check bool) "primary switch cached" true
        (Switch_set.mem sw (Pathgraph.switches pg)))
    (Path.switches primary)

let test_primary_is_shortest () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  match Routing.host_route g ~src:0 ~dst:20 with
  | Some shortest ->
    check Alcotest.int "primary length" (Path.length shortest)
      (Path.length (Pathgraph.primary pg))
  | None -> Alcotest.fail "no route"

let test_backup_diverges () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  match Pathgraph.backup pg with
  | None -> Alcotest.fail "a 2-spine fabric must have a backup"
  | Some backup ->
    Alcotest.(check bool) "backup validates" true (Path.validate g backup);
    (* Primary and backup share no spine: their middle switches differ. *)
    Alcotest.(check bool) "paths differ" false
      (Path.equal backup (Pathgraph.primary pg))

let test_detour_length_bound () =
  (* Every switch in the subgraph lies on some src->dst walk within the
     s+eps detour bound of a window — in particular its distance to
     both endpoints is bounded by primary length + eps. *)
  let b = Builder.cube ~n:4 ~controller_at:`Corner () in
  let g = b.Builder.graph in
  let s = 2 and eps = 1 in
  let src = List.nth b.Builder.hosts 0 and dst = List.nth b.Builder.hosts 63 in
  let pg = gen ~s ~eps g ~src ~dst in
  let primary = Pathgraph.primary pg in
  let snap = Graph.adjacency g in
  let src_sw = List.hd (Path.switches primary) in
  let dst_sw = List.nth (Path.switches primary) (Path.length primary - 1) in
  let d_src = Adjacency.bfs_distances snap ~from:src_sw in
  let d_dst = Adjacency.bfs_distances snap ~from:dst_sw in
  Switch_set.iter
    (fun sw ->
      let total = Adjacency.distance d_src sw + Adjacency.distance d_dst sw in
      Alcotest.(check bool) "within detour budget" true
        (total <= Path.length primary - 1 + eps + s))
    (Pathgraph.switches pg)

let test_subgraph_connected () =
  let b = Builder.cube ~n:4 ~controller_at:`Corner () in
  let g = b.Builder.graph in
  let pg = gen g ~src:(List.nth b.Builder.hosts 3) ~dst:(List.nth b.Builder.hosts 60) in
  (* BFS inside the subgraph adjacency must reach every cached switch
     from the source switch. *)
  let start = List.hd (Path.switches (Pathgraph.primary pg)) in
  let d = Adjacency.bfs_distances (Pathgraph.adjacency pg) ~from:start in
  Switch_set.iter
    (fun sw -> Alcotest.(check bool) "reachable in subgraph" true (Adjacency.distance d sw >= 0))
    (Pathgraph.switches pg)

let test_find_route_after_failure () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  let primary = Pathgraph.primary pg in
  (* Fail the primary's first fabric link; the subgraph must still
     yield a route. *)
  match primary.Path.hops with
  | (sw, port) :: _ -> (
    let le = { sw; port } in
    match Graph.peer_port g le with
    | None -> Alcotest.fail "primary first hop not a fabric link"
    | Some other -> (
      let key = Link_key.make le other in
      let avoid = Link_set.singleton key in
      match Pathgraph.find_route ~avoid pg with
      | None -> Alcotest.fail "no alternative in path graph"
      | Some alt ->
        Alcotest.(check bool) "avoids failed link" false (Path.crosses alt key);
        Alcotest.(check bool) "alt validates in graph" true (Path.validate g alt)))
  | [] -> Alcotest.fail "empty primary"

let test_k_routes () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  let routes = Pathgraph.k_routes pg ~k:4 in
  Alcotest.(check bool) "at least two" true (List.length routes >= 2);
  List.iter
    (fun p -> Alcotest.(check bool) "each validates" true (Path.validate g p))
    routes

let test_wire_roundtrip () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  let pg2 = Pathgraph.of_wire (Pathgraph.to_wire pg) in
  check Alcotest.int "same switches" (Pathgraph.switch_count pg) (Pathgraph.switch_count pg2);
  check Alcotest.int "same links" (Pathgraph.link_count pg) (Pathgraph.link_count pg2);
  Alcotest.(check bool) "same primary" true
    (Path.equal (Pathgraph.primary pg) (Pathgraph.primary pg2));
  Alcotest.(check bool) "same wire form" true (Pathgraph.to_wire pg = Pathgraph.to_wire pg2)

let test_reversed () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  match Pathgraph.reversed pg with
  | None -> Alcotest.fail "no reverse"
  | Some r ->
    check Alcotest.int "src" 20 (Pathgraph.src r);
    check Alcotest.int "dst" 0 (Pathgraph.dst r);
    Alcotest.(check bool) "reverse primary validates" true
      (Path.validate g (Pathgraph.primary r))

let test_merge () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let a = gen ~seed:1 g ~src:0 ~dst:20 in
  let c = gen ~seed:99 g ~src:0 ~dst:20 in
  let m = Pathgraph.merge a c in
  Alcotest.(check bool) "superset of both" true
    (Pathgraph.switch_count m >= Pathgraph.switch_count a
    && Pathgraph.switch_count m >= Pathgraph.switch_count c);
  Alcotest.(check bool) "merge rejects different pairs" true
    (try
       ignore (Pathgraph.merge a (gen g ~src:0 ~dst:19));
       false
     with Invalid_argument _ -> true)

(* [of_wire] and [merge] on arbitrary edge lists — unsorted, either end
   first, duplicated, a port joined to itself — against a list model: a
   graph holds the set of its distinct cables between two different
   ports, each once with its lower end first, plus the switches of its
   two host ends. *)
let model_cable (a, b) = if compare (a.sw, a.port) (b.sw, b.port) <= 0 then (a, b) else (b, a)

let model_cables edges =
  List.sort_uniq compare (List.map model_cable (List.filter (fun (a, b) -> a <> b) edges))

let model_switches (w : Pathgraph.wire) cables =
  List.sort_uniq compare
    ((w.Pathgraph.w_src_loc.sw :: w.Pathgraph.w_dst_loc.sw :: List.map (fun (a, _) -> a.sw) cables)
    @ List.map (fun (_, b) -> b.sw) cables)

let model_adjacency cables sw =
  List.concat_map
    (fun (a, b) ->
      (if a.sw = sw then [ (a.port, b.sw, b.port) ] else [])
      @ if b.sw = sw then [ (b.port, a.sw, a.port) ] else [])
    cables
  |> List.sort compare

(* The graph agrees with the model on every accessor. *)
let agrees_with_model pg (w : Pathgraph.wire) cables =
  let keys = List.map (fun (a, b) -> Link_key.make a b) cables in
  let switches = model_switches w cables in
  let probe_key = Link_key.make { sw = 0; port = 9 } { sw = 1; port = 9 } in
  List.map Link_key.ends (Link_set.elements (Pathgraph.links pg)) = cables
  && Pathgraph.link_count pg = List.length cables
  && Pathgraph.switch_count pg = List.length switches
  && Switch_set.elements (Pathgraph.switches pg) = switches
  && List.for_all (Pathgraph.contains_link pg) keys
  && not (Pathgraph.contains_link pg probe_key)
  && List.for_all
       (fun sw ->
         List.sort compare (Adjacency.neighbors (Pathgraph.adjacency pg) sw)
         = model_adjacency cables sw)
       (List.init 8 Fun.id)
  && (Pathgraph.to_wire pg).Pathgraph.w_edges = cables

let arbitrary_wire =
  let open QCheck.Gen in
  let le = map2 (fun sw port -> { sw; port }) (int_bound 5) (int_range 1 4) in
  let edges = list_size (0 -- 24) (pair le le) in
  let wire src_loc dst_loc edges =
    let path = { Path.src = 100; hops = [ (src_loc.sw, 1) ]; dst = 101 } in
    {
      Pathgraph.w_src = 100;
      w_dst = 101;
      w_src_loc = src_loc;
      w_dst_loc = dst_loc;
      w_primary = path;
      w_backup = None;
      w_edges = edges;
    }
  in
  map2 (fun (src_loc, dst_loc) (e1, e2) -> (wire src_loc dst_loc e1, wire src_loc dst_loc e2))
    (pair (map (fun sw -> { sw; port = 6 }) (int_bound 7)) (map (fun sw -> { sw; port = 7 }) (int_bound 7)))
    (pair edges edges)

let wire_model_prop =
  QCheck.Test.make ~name:"of_wire and merge match a list model on arbitrary edge lists" ~count:300
    (QCheck.make arbitrary_wire)
    (fun (w1, w2) ->
      let a = Pathgraph.of_wire w1 and b = Pathgraph.of_wire w2 in
      let merged = Pathgraph.merge a b in
      let union = model_cables (w1.Pathgraph.w_edges @ w2.Pathgraph.w_edges) in
      let merged_switches =
        List.sort_uniq compare (model_switches w1 union @ model_switches w2 union)
      in
      agrees_with_model a w1 (model_cables w1.Pathgraph.w_edges)
      && agrees_with_model b w2 (model_cables w2.Pathgraph.w_edges)
      && agrees_with_model merged w1 union
      && Switch_set.elements (Pathgraph.switches merged) = merged_switches
      && Pathgraph.to_wire (Pathgraph.of_wire (Pathgraph.to_wire merged)) = Pathgraph.to_wire merged)

let test_same_switch_pair () =
  (* Hosts on the same switch: the path graph degenerates cleanly. *)
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:1 in
  check Alcotest.int "one-hop primary" 1 (Path.length (Pathgraph.primary pg));
  match Pathgraph.find_route pg with
  | Some p -> check Alcotest.int "route is direct" 1 (Path.length p)
  | None -> Alcotest.fail "no route"

let test_count_paths () =
  let b = Builder.testbed () in
  let g = b.Builder.graph in
  let pg = gen g ~src:0 ~dst:20 in
  (* Two spines: exactly two shortest routes at the primary length. *)
  check Alcotest.int "exactly the two spine routes" 2
    (Pathgraph.count_paths pg ~max_len:3 ~cap:100);
  check Alcotest.int "cap honoured" 1 (Pathgraph.count_paths pg ~max_len:3 ~cap:1);
  check Alcotest.int "too short finds none" 0 (Pathgraph.count_paths pg ~max_len:2 ~cap:100)

(* --- properties --- *)

let random_setup seed =
  let rng = Rng.create seed in
  let b = Builder.random_regular ~rng ~switches:10 ~degree:3 ~hosts_per_switch:1 () in
  let hosts = Array.of_list b.Builder.hosts in
  let src = hosts.(Rng.int rng (Array.length hosts)) in
  let dst = hosts.(Rng.int rng (Array.length hosts)) in
  (b.Builder.graph, src, dst, rng)

let pathgraph_invariants_prop =
  QCheck.Test.make ~name:"generated path graphs validate and serialize" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g, src, dst, rng = random_setup seed in
      if src = dst then true
      else
        match Pathgraph.generate ~rng g ~src ~dst with
        | None -> false (* connected graph: must exist *)
        | Some pg ->
          Path.validate g (Pathgraph.primary pg)
          && (match Pathgraph.backup pg with
             | Some b -> Path.validate g b
             | None -> true)
          && Pathgraph.to_wire (Pathgraph.of_wire (Pathgraph.to_wire pg)) = Pathgraph.to_wire pg)

let failover_within_subgraph_prop =
  QCheck.Test.make ~name:"single primary-link failure is survivable in-subgraph" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g, src, dst, rng = random_setup seed in
      if src = dst then true
      else
        match Pathgraph.generate ~s:2 ~eps:2 ~rng g ~src ~dst with
        | None -> false
        | Some pg ->
          let primary = Pathgraph.primary pg in
          let rec keys acc = function
            | [] | [ _ ] -> acc
            | (sw, port) :: rest -> (
              let le = { sw; port } in
              match Graph.peer_port g le with
              | Some other -> keys (Link_key.make le other :: acc) rest
              | None -> keys acc rest)
          in
          List.for_all
            (fun key ->
              (* If the fabric itself survives the cut, the subgraph
                 should offer an alternative or the host re-queries; we
                 assert the weaker, always-true contract: any route
                 found avoids the failed link. *)
              match Pathgraph.find_route ~avoid:(Link_set.singleton key) pg with
              | Some alt -> not (Path.crosses alt key)
              | None -> true)
            (keys [] primary.Path.hops))

(* --- backup search: primary-avoiding BFS = penalized Dijkstra --- *)

(* The reference the BFS shortcut must reproduce exactly. *)
let penalized_route snap ~primary ~src ~dst =
  Adjacency.penalized_route snap ~penalty:Routing.primary_penalty ~avoid:primary ~src ~dst

let random_fabric rng =
  let built =
    match Rng.int rng 3 with
    | 0 -> Builder.fat_tree ~k:4 ()
    | 1 -> Builder.fat_tree ~k:8 ()
    | _ ->
      Builder.random_regular ~rng ~switches:(16 + Rng.int rng 49) ~degree:4 ~hosts_per_switch:1 ()
  in
  let g = built.Builder.graph in
  (* Fail roughly one cable in eight: bridges and detours appear. *)
  List.iter
    (fun (key, _) ->
      if Rng.int rng 8 = 0 then Graph.set_link_state g (fst (Link_key.ends key)) ~up:false)
    (Graph.switch_links g);
  g

let backup_search_prop =
  QCheck.Test.make ~name:"backup BFS = penalized Dijkstra under failures" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_fabric rng in
      let snap = Graph.adjacency g in
      let switches = Array.of_list (Graph.switch_ids g) in
      List.for_all
        (fun _ ->
          let src = Rng.pick_array rng switches in
          let dst = Rng.pick_array rng switches in
          match Adjacency.shortest_route ~rng snap ~src ~dst with
          | None -> true
          | Some primary ->
            Routing.backup_route snap ~primary ~src ~dst
            = penalized_route snap ~primary ~src ~dst)
        (List.init 12 Fun.id))

(* A ring of 202 switches: the primary-avoiding route exists but runs
   the long way round, 199 hops, so the search falls back to Dijkstra. *)
let test_backup_fallback_too_long () =
  let n = 202 in
  let g = (Builder.linear ~n ()).Builder.graph in
  Graph.connect g { sw = n - 1; port = 2 } { sw = 0; port = 1 };
  let snap = Graph.adjacency g in
  let primary = [ 0; 1; 2; 3 ] in
  (match
     Adjacency.route_avoiding snap ~avoid:primary ~max_hops:Routing.primary_penalty ~src:0 ~dst:3
   with
  | Adjacency.Too_long -> ()
  | Adjacency.Route _ | Adjacency.Unreachable -> Alcotest.fail "expected the too-long branch");
  let got = Routing.backup_route snap ~primary ~src:0 ~dst:3 in
  check Alcotest.(option (list int)) "matches Dijkstra" (penalized_route snap ~primary ~src:0 ~dst:3) got;
  check Alcotest.(option int) "long way round" (Some (n - 2)) (Option.map List.length got);
  (* End to end: hosts 0 and 3 get that disjoint backup path. *)
  match Pathgraph.backup (gen g ~src:0 ~dst:3) with
  | Some b -> check Alcotest.int "path-graph backup" (n - 2) (Path.length b)
  | None -> Alcotest.fail "ring has a disjoint backup"

(* A line: no route avoids the primary, so the search falls back to
   Dijkstra, which can only return the primary itself. *)
let test_backup_fallback_unreachable () =
  let g = (Builder.linear ~n:6 ()).Builder.graph in
  let snap = Graph.adjacency g in
  let primary = [ 1; 2; 3; 4 ] in
  (match
     Adjacency.route_avoiding snap ~avoid:primary ~max_hops:Routing.primary_penalty ~src:1 ~dst:4
   with
  | Adjacency.Unreachable -> ()
  | Adjacency.Route _ | Adjacency.Too_long -> Alcotest.fail "expected the unreachable branch");
  let got = Routing.backup_route snap ~primary ~src:1 ~dst:4 in
  check Alcotest.(option (list int)) "matches Dijkstra" (penalized_route snap ~primary ~src:1 ~dst:4) got;
  check Alcotest.(option (list int)) "only the primary" (Some primary) got;
  check Alcotest.bool "no path-graph backup" true
    (Option.is_none (Pathgraph.backup (gen g ~src:1 ~dst:4)))

(* --- golden digest of served graphs --- *)

(* The bytes hosts receive for 256 seeded queries, pinned across
   changes to how the controller computes them: any edit to Algorithm 1,
   the distance tables or the backup search must leave these digests
   alone. Every pool width serves the same bytes. *)

module Payload = Dumbnet.Packet.Payload
module Topo_store = Dumbnet.Control.Topo_store
module Pool = Dumbnet.Util.Pool

let seeded_pairs g ~seed ~n =
  let rng = Rng.create seed in
  let hosts = Array.of_list (Graph.host_ids g) in
  let rec draw acc k =
    if k = 0 then Array.of_list (List.rev acc)
    else
      let src = Rng.pick_array rng hosts in
      let dst = Rng.pick_array rng hosts in
      if src = dst then draw acc k else draw ((src, dst) :: acc) (k - 1)
  in
  draw [] n

let served_digest results =
  let buf = Buffer.create 65536 in
  Array.iter
    (function
      | None -> Buffer.add_string buf "none"
      | Some pg ->
        Buffer.add_bytes buf (Payload.encode (Payload.Path_response pg)))
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_fat_tree () = (Builder.fat_tree ~k:8 ()).Builder.graph

let golden_jellyfish () =
  let g = (Builder.jellyfish ~switches:64 ()).Builder.graph in
  (match Graph.switch_links g with
  | (key, _) :: _ -> Graph.set_link_state g (fst (Link_key.ends key)) ~up:false
  | [] -> Alcotest.fail "jellyfish without cables");
  g

let check_golden ~name ~expected g =
  let pairs = seeded_pairs g ~seed:2024 ~n:256 in
  List.iter
    (fun jobs ->
      let store = Topo_store.create g in
      let results =
        if jobs = 1 then Topo_store.serve_path_graphs store pairs
        else Pool.with_pool ~jobs (fun pool -> Topo_store.serve_path_graphs ~pool store pairs)
      in
      check Alcotest.string (Printf.sprintf "%s, jobs=%d" name jobs) expected (served_digest results))
    [ 1; 2; 4 ]

(* Serving the same 256 queries one at a time gives the batch's bytes. *)
let check_single_serve ~name ~expected g =
  let store = Topo_store.create g in
  let results =
    Array.map
      (fun (src, dst) -> Topo_store.serve_path_graph store ~src ~dst)
      (seeded_pairs g ~seed:2024 ~n:256)
  in
  check Alcotest.string (name ^ ", one query per serve") expected (served_digest results)

let test_golden_fat_tree () =
  check_golden ~name:"fat-tree k=8" ~expected:"08697856610b225948009af4933d1f83" (golden_fat_tree ());
  check_single_serve ~name:"fat-tree k=8" ~expected:"08697856610b225948009af4933d1f83"
    (golden_fat_tree ())

let test_golden_jellyfish () =
  check_golden ~name:"jellyfish-64, one cable down" ~expected:"b98ac8af26ae96dd435549e17fd7ecac"
    (golden_jellyfish ());
  check_single_serve ~name:"jellyfish-64, one cable down"
    ~expected:"b98ac8af26ae96dd435549e17fd7ecac" (golden_jellyfish ())

(* --- one body per switch pair --- *)

(* A wire graph with everything per host blanked out: the host ids and
   locations, and each path's hosts and last-hop port (the tag that
   leaves the destination switch toward the host). *)
let host_free (w : Pathgraph.wire) =
  let blank (p : Path.t) =
    let hops =
      match List.rev p.Path.hops with
      | (sw, _) :: rest -> List.rev ((sw, 0) :: rest)
      | [] -> []
    in
    { Path.src = 0; hops; dst = 0 }
  in
  let nowhere = { sw = 0; port = 0 } in
  {
    w with
    Pathgraph.w_src = 0;
    w_dst = 0;
    w_src_loc = nowhere;
    w_dst_loc = nowhere;
    w_primary = blank w.Pathgraph.w_primary;
    w_backup = Option.map blank w.Pathgraph.w_backup;
  }

(* The last hop of every path leaves toward the destination host. *)
let ends_at_host (w : Pathgraph.wire) =
  let last_port (p : Path.t) =
    match List.rev p.Path.hops with
    | (_, port) :: _ -> port
    | [] -> -1
  in
  last_port w.Pathgraph.w_primary = w.Pathgraph.w_dst_loc.port
  && Option.fold ~none:true ~some:(fun p -> last_port p = w.Pathgraph.w_dst_loc.port)
       w.Pathgraph.w_backup

let hosts_by_switch g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun h ->
      match Graph.host_location g h with
      | Some le -> Hashtbl.replace tbl le.sw (h :: Option.value (Hashtbl.find_opt tbl le.sw) ~default:[])
      | None -> ())
    (Graph.host_ids g);
  Hashtbl.fold (fun sw hs acc -> if List.length hs >= 2 then (sw, Array.of_list hs) :: acc else acc) tbl []
  |> List.sort compare |> Array.of_list

let one_cable_down rng g =
  let links = Array.of_list (Graph.switch_links g) in
  let key, _ = links.(Rng.int rng (Array.length links)) in
  Graph.set_link_state g (fst (Link_key.ends key)) ~up:false;
  g

(* Two host pairs on the same two switches, served in one batch (so
   they share a body) and generated cold: the four wire graphs agree
   on everything but the host ends. *)
let shared_body_prop =
  QCheck.Test.make ~name:"host pairs on one switch pair differ only at the host ends" ~count:40
    QCheck.(pair bool (int_bound 100_000))
    (fun (jelly, seed) ->
      let rng = Rng.create seed in
      let g =
        if jelly then one_cable_down rng (Builder.jellyfish ~switches:32 ~hosts_per_switch:2 ()).Builder.graph
        else (Builder.fat_tree ~k:4 ()).Builder.graph
      in
      let by_switch = hosts_by_switch g in
      let _, at_a = Rng.pick_array rng by_switch and _, at_b = Rng.pick_array rng by_switch in
      let p1 = (Rng.pick_array rng at_a, Rng.pick_array rng at_b) in
      let p2 = (Rng.pick_array rng at_a, Rng.pick_array rng at_b) in
      let served = Topo_store.serve_path_graphs (Topo_store.create g) [| p1; p2 |] in
      let cold (src, dst) = Pathgraph.generate g ~src ~dst in
      match (served, cold p1, cold p2) with
      | [| Some s1; Some s2 |], Some c1, Some c2 ->
        let w1 = Pathgraph.to_wire s1 and w2 = Pathgraph.to_wire s2 in
        w1 = Pathgraph.to_wire c1
        && w2 = Pathgraph.to_wire c2
        && host_free w1 = host_free w2
        && ends_at_host w1 && ends_at_host w2
      | _ -> QCheck.Test.fail_report "a pair on a connected fabric got no path graph")

(* --- golden digest of host-side k-routes --- *)

(* The routes a host installs from a cached graph (Yen's algorithm,
   k = 4) for 128 seeded path graphs on each golden fabric, pinned
   across changes to how Yen's algorithm runs: every route's switches
   and tags, without and with a failed-cable overlay on the primary's
   first cable, plus the same query answered on the whole graph. One
   RNG threads every call, so the number of draws is pinned too. *)

let first_primary_cable pg =
  match (Pathgraph.primary pg).Path.hops with
  | (sw, out) :: _ :: _ ->
    let le = { sw; port = out } in
    Option.map (Link_key.make le) (Adjacency.peer_at (Pathgraph.adjacency pg) le)
  | [ _ ] | [] -> None

let k_routes_digest g =
  let buf = Buffer.create 65536 in
  let add_paths paths =
    List.iter
      (fun p ->
        List.iter (fun (sw, tag) -> Printf.bprintf buf "%d:%d," sw tag) p.Path.hops;
        Buffer.add_char buf ';')
      paths;
    Buffer.add_char buf '|'
  in
  let rng = Rng.create 11 in
  Array.iter
    (fun (src, dst) ->
      match Pathgraph.generate ~rng g ~src ~dst with
      | None -> Buffer.add_string buf "none|"
      | Some served ->
        let pg = Pathgraph.of_wire (Pathgraph.to_wire served) in
        add_paths (Pathgraph.k_routes ~rng pg ~k:4);
        add_paths (Pathgraph.k_routes pg ~k:4);
        (match first_primary_cable pg with
        | Some key ->
          let avoid = Link_set.singleton key in
          add_paths (Pathgraph.k_routes ~rng ~avoid pg ~k:4);
          add_paths (Pathgraph.k_routes ~avoid pg ~k:4)
        | None -> Buffer.add_string buf "single|");
        add_paths (Routing.k_host_paths ~rng g ~src ~dst ~k:4))
    (seeded_pairs g ~seed:2025 ~n:128);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_k_routes () =
  check Alcotest.string "fat-tree k=8" "40c6db251664afbbfca5b70595558ef4"
    (k_routes_digest (golden_fat_tree ()));
  check Alcotest.string "jellyfish-64, one cable down" "14996ad33f8b95006d1b2fbd19a57c0e"
    (k_routes_digest (golden_jellyfish ()))

(* --- golden digest of every route search --- *)

(* The routes of every search a host or a baseline runs, for 96 seeded
   pairs on each golden fabric: a cached graph's best route without an
   overlay and with each cable of its primary failed, with and without
   an RNG; its reversal's primary and backup; the whole graph's random
   shortest route and k shortest routes; ECMP's equal-cost set and the
   spanning tree's path. One RNG threads every call, so the number of
   draws is pinned too. *)

module Ecmp = Dumbnet.Baseline.Ecmp
module Stp = Dumbnet.Baseline.Stp

let routes_digest g =
  let buf = Buffer.create 65536 in
  let add_path = function
    | None -> Buffer.add_string buf "none;"
    | Some p ->
      List.iter (fun (sw, tag) -> Printf.bprintf buf "%d:%d," sw tag) p.Path.hops;
      Buffer.add_char buf ';'
  in
  let add_paths paths =
    List.iter (fun p -> add_path (Some p)) paths;
    Buffer.add_char buf '|'
  in
  let rng = Rng.create 13 in
  let stp = Stp.build g in
  Array.iter
    (fun (src, dst) ->
      (match Pathgraph.generate ~rng g ~src ~dst with
      | None -> Buffer.add_string buf "no graph|"
      | Some pg ->
        add_path (Pathgraph.find_route pg);
        add_path (Pathgraph.find_route ~rng pg);
        let rec cables = function
          | (sw, out) :: (_ :: _ as rest) ->
            (match Graph.peer_port g { sw; port = out } with
            | Some peer -> Link_key.make { sw; port = out } peer :: cables rest
            | None -> cables rest)
          | [ _ ] | [] -> []
        in
        List.iter
          (fun key ->
            let avoid = Link_set.singleton key in
            add_path (Pathgraph.find_route ~avoid pg);
            add_path (Pathgraph.find_route ~rng ~avoid pg))
          (cables (Pathgraph.primary pg).Path.hops);
        (match Pathgraph.reversed pg with
        | None -> Buffer.add_string buf "no reverse|"
        | Some r ->
          add_path (Some (Pathgraph.primary r));
          add_path (Pathgraph.backup r)));
      add_path (Routing.host_route ~rng g ~src ~dst);
      add_paths (Routing.k_host_paths g ~src ~dst ~k:3);
      add_paths (Ecmp.equal_cost_paths g ~src ~dst);
      add_path (Stp.path stp ~src ~dst))
    (seeded_pairs g ~seed:2026 ~n:96);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_routes () =
  check Alcotest.string "fat-tree k=8" "e67703fd8c6d1e0459c12f95cbc617f2"
    (routes_digest (golden_fat_tree ()));
  check Alcotest.string "jellyfish-64, one cable down" "69b1987cbdc075ad9620a52fad61ab1c"
    (routes_digest (golden_jellyfish ()))

let () =
  Alcotest.run "pathgraph"
    [
      ( "structure",
        [
          Alcotest.test_case "contains primary" `Quick test_contains_primary;
          Alcotest.test_case "primary shortest" `Quick test_primary_is_shortest;
          Alcotest.test_case "backup diverges" `Quick test_backup_diverges;
          Alcotest.test_case "detour bound" `Quick test_detour_length_bound;
          Alcotest.test_case "subgraph connected" `Quick test_subgraph_connected;
          Alcotest.test_case "same-switch pair" `Quick test_same_switch_pair;
          Alcotest.test_case "count paths" `Quick test_count_paths;
        ] );
      ( "failover",
        [
          Alcotest.test_case "find route after failure" `Quick test_find_route_after_failure;
          Alcotest.test_case "k routes" `Quick test_k_routes;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "reversed" `Quick test_reversed;
          Alcotest.test_case "merge" `Quick test_merge;
          QCheck_alcotest.to_alcotest wire_model_prop;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest pathgraph_invariants_prop;
          QCheck_alcotest.to_alcotest failover_within_subgraph_prop;
        ] );
      ( "backup search",
        [
          QCheck_alcotest.to_alcotest backup_search_prop;
          Alcotest.test_case "fallback: disjoint route too long" `Quick
            test_backup_fallback_too_long;
          Alcotest.test_case "fallback: no disjoint route" `Quick test_backup_fallback_unreachable;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fat-tree k=8 digest" `Quick test_golden_fat_tree;
          Alcotest.test_case "jellyfish-64 digest" `Quick test_golden_jellyfish;
          Alcotest.test_case "k-routes digest" `Quick test_golden_k_routes;
          Alcotest.test_case "route searches digest" `Quick test_golden_routes;
        ] );
      ("shared body", [ QCheck_alcotest.to_alcotest shared_body_prop ]);
    ]
