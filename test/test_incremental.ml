(* Incremental failure repair: the scoped distance-cache eviction and
   the controller's delta re-push must be invisible — every retained
   table and every regenerated path graph byte-identical to a cold
   recompute at the same generation — while doing provably less work
   than the wholesale invalidation they replaced. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Topo_store = Dumbnet.Control.Topo_store
module Controller = Dumbnet.Host.Controller
module Network = Dumbnet.Sim.Network
module Fabric = Dumbnet.Fabric
module Payload = Dumbnet.Packet.Payload
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* The reachable (switch, hops) entries of an id-indexed table, read
   through the accessor so a table's length is not part of its value. *)
let table_bindings g d =
  List.filter_map
    (fun sw ->
      let h = Adjacency.distance d sw in
      if h >= 0 then Some (sw, h) else None)
    (Graph.switch_ids g)

(* Every memoized distance table — retained, repaired, or recomputed —
   must equal a cold BFS on the store's current graph. *)
let store_matches_cold store =
  let g = Topo_store.graph store in
  let snap = Graph.adjacency g in
  List.for_all
    (fun sw ->
      table_bindings g (Topo_store.distances store ~from:sw)
      = table_bindings g (Adjacency.bfs_distances snap ~from:sw))
    (Graph.switch_ids g)

let warm_all_roots store =
  List.iter
    (fun sw -> ignore (Topo_store.distances store ~from:sw))
    (Graph.switch_ids (Topo_store.graph store))

(* --- unit: a single failure evicts a strict subset of the cache --- *)

let test_scoped_eviction () =
  let b = Builder.fat_tree ~k:4 () in
  let store = Topo_store.create b.Builder.graph in
  let g = Topo_store.graph store in
  warm_all_roots store;
  let n = Graph.num_switches g in
  check Alcotest.int "cache fully warm" n (Topo_store.cached_roots store);
  (* Fail an edge-layer cable. A fat tree is bipartite (edge and core
     switches vs aggregation), so every cable is tight for every root —
     the failure may legitimately evict the whole cache; what must
     never happen is a wholesale generation reset. *)
  let key, _ = List.hd (Graph.switch_links g) in
  let le, _ = Link_key.ends key in
  (match Topo_store.apply_event store { Payload.position = le; up = false; event_seq = 1 } with
  | Topo_store.Applied -> ()
  | _ -> Alcotest.fail "failure should apply");
  let r = Topo_store.repair_stats store in
  check Alcotest.int "no wholesale reset" 0 r.Topo_store.full_resets;
  check Alcotest.bool "some tables evicted" true (r.Topo_store.evicted_roots > 0);
  check Alcotest.int "retained + evicted covers the cache" n
    (r.Topo_store.retained_roots + r.Topo_store.evicted_roots);
  check Alcotest.bool "retained tables exact after failure" true (store_matches_cold store);
  (* [store_matches_cold] re-warmed every root. Restoring the cable can
     only shorten paths whose endpoint distances differ by >= 2, so
     most tables survive the restore. *)
  check Alcotest.int "cache re-warmed" n (Topo_store.cached_roots store);
  let before = Topo_store.repair_stats store in
  (match Topo_store.apply_event store { Payload.position = le; up = true; event_seq = 2 } with
  | Topo_store.Applied -> ()
  | _ -> Alcotest.fail "restore should apply");
  let after = Topo_store.repair_stats store in
  check Alcotest.int "still no wholesale reset" 0 after.Topo_store.full_resets;
  check Alcotest.bool "restore retains most tables" true
    (after.Topo_store.retained_roots - before.Topo_store.retained_roots > n / 2);
  check Alcotest.bool "retained tables exact after restore" true (store_matches_cold store)

(* On a non-bipartite topology (jellyfish has odd cycles) the tight-edge
   rule has real bite: across single-cable failures, a healthy share of
   distance tables must survive eviction. *)
let test_jellyfish_retention () =
  let built =
    Builder.random_regular ~rng:(Rng.create 5) ~switches:16 ~degree:4 ~hosts_per_switch:1 ()
  in
  let store = Topo_store.create built.Builder.graph in
  let g = Topo_store.graph store in
  let n = Graph.num_switches g in
  let fail_retained = ref 0 and fail_evicted = ref 0 and seq = ref 0 in
  List.iter
    (fun (key, _) ->
      warm_all_roots store;
      let le, _ = Link_key.ends key in
      let before = Topo_store.repair_stats store in
      incr seq;
      (match Topo_store.apply_event store { Payload.position = le; up = false; event_seq = !seq }
       with
      | Topo_store.Applied -> ()
      | _ -> Alcotest.fail "failure should apply");
      let after = Topo_store.repair_stats store in
      fail_retained :=
        !fail_retained + after.Topo_store.retained_roots - before.Topo_store.retained_roots;
      fail_evicted :=
        !fail_evicted + after.Topo_store.evicted_roots - before.Topo_store.evicted_roots;
      check Alcotest.bool "tables exact" true (store_matches_cold store);
      incr seq;
      match Topo_store.apply_event store { Payload.position = le; up = true; event_seq = !seq }
      with
      | Topo_store.Applied -> ()
      | _ -> Alcotest.fail "restore should apply")
    (Graph.switch_links g);
  let r = Topo_store.repair_stats store in
  check Alcotest.int "never a wholesale reset" 0 r.Topo_store.full_resets;
  let events = List.length (Graph.switch_links g) in
  check Alcotest.int "every failure covers the warm cache" (n * events)
    (!fail_retained + !fail_evicted);
  check Alcotest.bool "failures retain a real share of tables" true
    (!fail_retained * 5 > (n * events) * 1)

let test_host_link_event_keeps_cache () =
  let b = Builder.fat_tree ~k:4 () in
  let store = Topo_store.create b.Builder.graph in
  let g = Topo_store.graph store in
  warm_all_roots store;
  let host_end =
    match Graph.host_location g (List.hd (Graph.host_ids g)) with
    | Some le -> le
    | None -> Alcotest.fail "host detached"
  in
  (match Topo_store.apply_event store { Payload.position = host_end; up = false; event_seq = 1 }
   with
  | Topo_store.Applied -> ()
  | _ -> Alcotest.fail "host-link failure should apply");
  let r = Topo_store.repair_stats store in
  (* Switch-to-switch distances cannot change: nothing evicted, nothing
     reset, cache still fully warm and exact. *)
  check Alcotest.int "nothing evicted" 0 r.Topo_store.evicted_roots;
  check Alcotest.int "no reset" 0 r.Topo_store.full_resets;
  check Alcotest.int "cache still full" (Graph.num_switches g) (Topo_store.cached_roots store);
  check Alcotest.bool "tables exact" true (store_matches_cold store)

let test_out_of_band_mutation_resets () =
  let b = Builder.fat_tree ~k:4 () in
  let store = Topo_store.create b.Builder.graph in
  warm_all_roots store;
  (* Mutate the graph behind the store's back: the unified generation
     check must notice and drop everything rather than serve stale. *)
  let g = Topo_store.graph store in
  let key, _ = List.hd (Graph.switch_links g) in
  let le, _ = Link_key.ends key in
  Graph.set_link_state g le ~up:false;
  check Alcotest.bool "exact after out-of-band mutation" true (store_matches_cold store);
  check Alcotest.bool "repaired by full reset" true
    ((Topo_store.repair_stats store).Topo_store.full_resets > 0)

(* --- qcheck: randomized fail/restore sequences, incremental = cold --- *)

let switch_link_array g = Array.of_list (List.map fst (Graph.switch_links g))

(* Apply a randomized event sequence through [apply_event] (the
   controller's failure-notice path), checking every cached table
   against a cold BFS after every single event. *)
let run_event_sequence ~name built ops =
  let store = Topo_store.create built.Builder.graph in
  warm_all_roots store;
  let links = switch_link_array (Topo_store.graph store) in
  let seq = ref 0 in
  List.for_all
    (fun (pick, up) ->
      incr seq;
      let key = links.(pick mod Array.length links) in
      let le, _ = Link_key.ends key in
      ignore (Topo_store.apply_event store { Payload.position = le; up; event_seq = !seq });
      store_matches_cold store
      ||
      (QCheck.Test.fail_reportf "%s: stale table after %s of %s" name
         (if up then "restore" else "failure")
         (Format.asprintf "%a" Link_key.pp key)))
    ops

let fat_tree_event_prop =
  QCheck.Test.make ~name:"incremental = cold on fat-tree fail/restore" ~count:20
    QCheck.(small_list (pair small_nat bool))
    (fun ops -> run_event_sequence ~name:"fat-tree" (Builder.fat_tree ~k:4 ()) ops)

let jellyfish_event_prop =
  QCheck.Test.make ~name:"incremental = cold on jellyfish fail/restore" ~count:20
    QCheck.(pair small_nat (small_list (pair small_nat bool)))
    (fun (seed, ops) ->
      let built =
        Builder.random_regular ~rng:(Rng.create (seed + 1)) ~switches:16 ~degree:4
          ~hosts_per_switch:1 ()
      in
      run_event_sequence ~name:"jellyfish" built ops)

(* Path graphs served through the repaired cache must equal cold
   generation at every step of a fail/restore sequence. *)
let pathgraph_equiv_prop =
  QCheck.Test.make ~name:"served path graphs = cold generate through repair" ~count:15
    QCheck.(small_list (pair small_nat bool))
    (fun ops ->
      let built = Builder.fat_tree ~k:4 () in
      let store = Topo_store.create built.Builder.graph in
      let g = Topo_store.graph store in
      let links = switch_link_array g in
      let hosts = Array.of_list (Graph.host_ids g) in
      let rng = Rng.create 99 in
      let seq = ref 0 in
      List.for_all
        (fun (pick, up) ->
          incr seq;
          let le, _ = Link_key.ends links.(pick mod Array.length links) in
          ignore (Topo_store.apply_event store { Payload.position = le; up; event_seq = !seq });
          (* Probe a handful of random pairs at this generation. *)
          List.for_all
            (fun _ ->
              let src = hosts.(Rng.int rng (Array.length hosts)) in
              let dst = hosts.(Rng.int rng (Array.length hosts)) in
              src = dst
              ||
              let wire = Option.map Pathgraph.to_wire in
              wire (Topo_store.serve_path_graph store ~src ~dst)
              = wire (Pathgraph.generate g ~src ~dst))
            [ (); (); (); () ])
        ops)

(* Fail, restore, then fail the same cable again on jellyfish-64, with
   the store's tables warmed by a batch before every step. Tables
   recomputed while the cable was down and retained across its restore
   are checked afresh by the second failure. After each step the warm
   store serves exactly what a cold store does. *)
let test_refail_matches_cold () =
  let built = Builder.jellyfish ~switches:64 () in
  let store = Topo_store.create built.Builder.graph in
  let g = Topo_store.graph store in
  let rng = Rng.create 64 in
  let hosts = Array.of_list (Graph.host_ids g) in
  let pairs =
    Array.init 256 (fun _ -> (Rng.pick_array rng hosts, Rng.pick_array rng hosts))
  in
  let wires store = Array.map (Option.map Pathgraph.to_wire) (Topo_store.serve_path_graphs store pairs) in
  let crossed =
    Array.to_list (Topo_store.serve_path_graphs store pairs)
    |> List.find_map (fun pg -> Option.bind pg (fun pg -> Link_set.choose_opt (Pathgraph.links pg)))
  in
  let key = match crossed with Some k -> k | None -> Alcotest.fail "no served graph crosses a cable" in
  let le, _ = Link_key.ends key in
  List.iteri
    (fun i (step, up) ->
      (match Topo_store.apply_event store { Payload.position = le; up; event_seq = i + 1 } with
      | Topo_store.Applied -> ()
      | _ -> Alcotest.failf "%s should apply" step);
      check Alcotest.bool (step ^ ": warm store = cold store") true
        (wires store = wires (Topo_store.create g)))
    [ ("fail", false); ("restore", true); ("fail again", false) ];
  check Alcotest.int "never a wholesale reset" 0 (Topo_store.repair_stats store).Topo_store.full_resets;
  check Alcotest.bool "tables exact" true (store_matches_cold store)

(* --- controller: delta re-push --- *)

(* Find a cable some pushed pair's subgraph contains: those pairs, and
   only those, must be regenerated when it fails. *)
let pick_subscribed_link ctrl =
  let pairs = Controller.cached_pairs ctrl in
  let graphs =
    List.filter_map
      (fun (src, dst) -> Controller.cached_graph ctrl ~src ~dst)
      pairs
  in
  (* Same-switch pairs yield cable-free graphs — skip to one that
     actually crosses the fabric. *)
  match
    List.find_map (fun pg -> Link_set.choose_opt (Pathgraph.links pg)) graphs
  with
  | Some key -> key
  | None -> Alcotest.fail "no pushed graph crosses a cable"

let test_delta_repush_scoped () =
  let built = Builder.fat_tree ~k:4 () in
  let fab = Fabric.create ~seed:3 built in
  let ctrl = Fabric.controller fab in
  let before = Controller.repush_stats ctrl in
  check Alcotest.bool "ledger populated by bootstrap" true
    (before.Controller.cached_pairs > 0);
  let key = pick_subscribed_link ctrl in
  let subscribed_before =
    List.filter
      (fun (src, dst) ->
        match Controller.cached_graph ctrl ~src ~dst with
        | Some pg -> Link_set.mem key (Pathgraph.links pg)
        | None -> false)
      (Controller.cached_pairs ctrl)
  in
  let untouched_before =
    List.filter_map
      (fun (src, dst) ->
        match Controller.cached_graph ctrl ~src ~dst with
        | Some pg when not (Link_set.mem key (Pathgraph.links pg)) ->
          Some ((src, dst), Pathgraph.to_wire pg)
        | Some _ | None -> None)
      (Controller.cached_pairs ctrl)
  in
  let le, _ = Link_key.ends key in
  Fabric.fail_link fab le;
  Fabric.run fab;
  let after = Controller.repush_stats ctrl in
  check Alcotest.bool "a repair round ran" true
    (after.Controller.repair_rounds > before.Controller.repair_rounds);
  check Alcotest.bool "re-push covers the subscribed pairs" true
    (after.Controller.repushed_pairs - before.Controller.repushed_pairs
    >= List.length subscribed_before);
  check Alcotest.bool "re-push is scoped, not wholesale" true
    (after.Controller.repushed_pairs - before.Controller.repushed_pairs
    < before.Controller.cached_pairs);
  (* Every subscribed pair's ledger entry now equals a cold generate on
     the post-failure view. *)
  let g = Topo_store.graph (Controller.store ctrl) in
  List.iter
    (fun (src, dst) ->
      let wire = Option.map Pathgraph.to_wire in
      check Alcotest.bool
        (Printf.sprintf "pair %d->%d regenerated = cold" src dst)
        true
        (wire (Controller.cached_graph ctrl ~src ~dst) = wire (Pathgraph.generate g ~src ~dst)))
    subscribed_before;
  (* Untouched pairs kept their caches live — not regenerated — unless
     a host's own re-query refreshed them during recovery. *)
  let unchanged =
    List.filter
      (fun ((src, dst), w) ->
        match Controller.cached_graph ctrl ~src ~dst with
        | Some pg -> Pathgraph.to_wire pg = w
        | None -> false)
      untouched_before
  in
  check Alcotest.bool "most untouched pairs kept their cache" true
    (List.length unchanged * 2 >= List.length untouched_before)

(* Every host's cached path graphs and PathTable entries, in a fixed
   order: the host side of bootstrap and of a delta re-push, where a
   re-pushed graph is merged into the one already cached. *)
let host_cache_digest fab =
  let module Agent = Dumbnet.Host.Agent in
  let module Topocache = Dumbnet.Host.Topocache in
  let module Pathtable = Dumbnet.Host.Pathtable in
  let buf = Buffer.create 65536 in
  let path (p : Path.t) =
    Printf.bprintf buf "%d>%d:" p.Path.src p.Path.dst;
    List.iter (fun (sw, tag) -> Printf.bprintf buf "%d.%d," sw tag) p.Path.hops;
    Buffer.add_char buf ';'
  in
  let hosts = Fabric.hosts fab in
  List.iter
    (fun h ->
      let a = Fabric.agent fab h in
      Printf.bprintf buf "H%d{" h;
      List.iter
        (fun dst ->
          match Topocache.get (Agent.topocache a) ~dst with
          | None -> ()
          | Some pg ->
            let w = Pathgraph.to_wire pg in
            Printf.bprintf buf "G%d>%d@%d.%d/%d.%d:" w.Pathgraph.w_src w.Pathgraph.w_dst
              w.Pathgraph.w_src_loc.sw w.Pathgraph.w_src_loc.port w.Pathgraph.w_dst_loc.sw
              w.Pathgraph.w_dst_loc.port;
            path w.Pathgraph.w_primary;
            Option.iter path w.Pathgraph.w_backup;
            List.iter
              (fun (x, y) -> Printf.bprintf buf "%d.%d-%d.%d," x.sw x.port y.sw y.port)
              w.Pathgraph.w_edges;
            Printf.bprintf buf "n%d|" (Pathgraph.switch_count pg))
        (Topocache.known (Agent.topocache a));
      List.iter
        (fun dst ->
          match Pathtable.lookup (Agent.pathtable a) ~dst with
          | None -> ()
          | Some e ->
            Printf.bprintf buf "T%d:" dst;
            List.iter path e.Pathtable.paths;
            Buffer.add_char buf '/';
            Option.iter path e.Pathtable.backup;
            Buffer.add_char buf '|')
        hosts;
      Buffer.add_char buf '}')
    hosts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_host_cache_digest () =
  let fab = Fabric.create ~seed:3 (Builder.fat_tree ~k:4 ()) in
  let bootstrap = host_cache_digest fab in
  let le, _ = Link_key.ends (pick_subscribed_link (Fabric.controller fab)) in
  Fabric.fail_link fab le;
  Fabric.run fab;
  check Alcotest.(pair string string) "bootstrap, then one failure and its re-push"
    ("47bc20e8c0c054d09aa16ea4928e523b", "1d3b521fad25f598251cc3316fb4861a")
    (bootstrap, host_cache_digest fab)

let test_restore_repushes_nothing () =
  let built = Builder.fat_tree ~k:4 () in
  let fab = Fabric.create ~seed:7 built in
  let ctrl = Fabric.controller fab in
  let key = pick_subscribed_link ctrl in
  let le, _ = Link_key.ends key in
  Fabric.fail_link fab le;
  Fabric.run fab;
  let after_fail = Controller.repush_stats ctrl in
  (* Run past the monitor's 1 s suppression window so the up-notice
     actually fires. *)
  Fabric.run ~for_ns:1_100_000_000 fab;
  Fabric.restore_link fab le;
  Fabric.run fab;
  let after_restore = Controller.repush_stats ctrl in
  check Alcotest.int "restore patch carries no re-push"
    after_fail.Controller.repushed_pairs after_restore.Controller.repushed_pairs;
  check Alcotest.bool "but the patch itself went out" true
    (Controller.patches_sent ctrl >= 2)

(* --- burst coalescing --- *)

let two_distinct_links g =
  match Graph.switch_links g with
  | (k1, _) :: (k2, _) :: _ -> (k1, k2)
  | _ -> Alcotest.fail "need two switch links"

let test_burst_coalescing () =
  let built = Builder.fat_tree ~k:4 () in
  (* Without coalescing: two events, two patches. *)
  let fab = Fabric.create ~seed:11 built in
  let k1, k2 = two_distinct_links (Network.graph (Fabric.network fab)) in
  let le1, _ = Link_key.ends k1 and le2, _ = Link_key.ends k2 in
  let p0 = Controller.patches_sent (Fabric.controller fab) in
  Fabric.fail_link fab le1;
  Fabric.fail_link fab le2;
  Fabric.run fab;
  let immediate = Controller.patches_sent (Fabric.controller fab) - p0 in
  check Alcotest.int "immediate mode: one patch per event" 2 immediate;
  (* With a 10 ms window the burst leaves as one combined patch. Build
     a fresh topology: the first fabric's network owns [built]'s graph
     and has already taken both cables down in it. *)
  let built = Builder.fat_tree ~k:4 () in
  let fab = Fabric.create ~seed:11 ~coalesce_ns:10_000_000 built in
  let p0 = Controller.patches_sent (Fabric.controller fab) in
  Fabric.fail_link fab le1;
  Fabric.fail_link fab le2;
  Fabric.run fab;
  let coalesced = Controller.patches_sent (Fabric.controller fab) - p0 in
  check Alcotest.int "coalesced mode: one combined patch" 1 coalesced;
  (* Both failures must still be visible in the controller's view. *)
  let g = Topo_store.graph (Controller.store (Fabric.controller fab)) in
  List.iter
    (fun key ->
      match List.assoc_opt key (Graph.switch_links g) with
      | Some up -> check Alcotest.bool "failure applied" false up
      | None -> Alcotest.fail "cable vanished from the view")
    [ k1; k2 ]

let () =
  Alcotest.run "incremental"
    [
      ( "distance cache",
        [
          Alcotest.test_case "scoped eviction on failure" `Quick test_scoped_eviction;
          Alcotest.test_case "jellyfish failures retain tables" `Quick
            test_jellyfish_retention;
          Alcotest.test_case "host-link events keep the cache" `Quick
            test_host_link_event_keeps_cache;
          Alcotest.test_case "out-of-band mutation full-resets" `Quick
            test_out_of_band_mutation_resets;
          QCheck_alcotest.to_alcotest fat_tree_event_prop;
          QCheck_alcotest.to_alcotest jellyfish_event_prop;
          QCheck_alcotest.to_alcotest pathgraph_equiv_prop;
          Alcotest.test_case "fail, restore, fail again = cold" `Quick test_refail_matches_cold;
        ] );
      ( "delta re-push",
        [
          Alcotest.test_case "failure re-pushes only subscribed pairs" `Quick
            test_delta_repush_scoped;
          Alcotest.test_case "restore re-pushes nothing" `Quick test_restore_repushes_nothing;
          Alcotest.test_case "burst coalescing" `Quick test_burst_coalescing;
          Alcotest.test_case "host cache digest" `Quick test_host_cache_digest;
        ] );
    ]
