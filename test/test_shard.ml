(* Tests for the pod-partitioned controller: the hash-consed tag-stack
   arena, the compact path-graph form it backs, and the headline
   property — a sharded controller serves byte-identical path graphs
   to an unsharded [Topo_store] across fail/restore churn, for shard
   counts 1, 2 and 4. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Payload = Dumbnet.Packet.Payload
module Topo_store = Dumbnet.Control.Topo_store
module Shard = Dumbnet.Control.Shard
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- tag arena --- *)

let test_arena_interns_and_dedups () =
  let a = Tag_arena.create ~initial_bytes:2 () in
  let h1 = Tag_arena.intern a [ 1; 2; 3 ] in
  let h2 = Tag_arena.intern a [ 9 ] in
  let h3 = Tag_arena.intern a [ 1; 2; 3 ] in
  check Alcotest.int "equal stacks share a handle" h1 h3;
  check Alcotest.bool "distinct stacks differ" true (h1 <> h2);
  check Alcotest.int "distinct stacks" 2 (Tag_arena.stacks a);
  check Alcotest.int "interns counted" 3 (Tag_arena.interns a);
  check Alcotest.int "bytes = sum of distinct lengths" 4 (Tag_arena.bytes a);
  check Alcotest.(list int) "get roundtrips" [ 1; 2; 3 ] (Tag_arena.get a h1);
  check Alcotest.int "length without materializing" 3 (Tag_arena.length a h1);
  let seen = ref [] in
  Tag_arena.iter a h1 (fun tag -> seen := tag :: !seen);
  check Alcotest.(list int) "iter walks in order" [ 1; 2; 3 ] (List.rev !seen);
  (* The empty stack is a valid stack (same-switch route). *)
  let he = Tag_arena.intern a [] in
  check Alcotest.(list int) "empty stack" [] (Tag_arena.get a he);
  check Alcotest.int "empty stack interned once" he (Tag_arena.intern a [])

let test_arena_growth_and_validation () =
  let a = Tag_arena.create ~initial_bytes:1 () in
  (* Force both the byte buffer and the handle tables to double. *)
  let handles =
    List.init 40 (fun i -> Tag_arena.intern a [ i mod 250; (i + 1) mod 250; (i + 2) mod 250 ])
  in
  List.iteri
    (fun i h ->
      check Alcotest.(list int)
        (Printf.sprintf "stack %d survives growth" i)
        [ i mod 250; (i + 1) mod 250; (i + 2) mod 250 ]
        (Tag_arena.get a h))
    handles;
  check Alcotest.int "all distinct" 40 (Tag_arena.stacks a);
  Alcotest.check_raises "tag above max_port rejected"
    (Invalid_argument "Tag_arena.intern: tag 255 outside 0..254") (fun () ->
      ignore (Tag_arena.intern a [ 255 ]));
  Alcotest.check_raises "negative tag rejected"
    (Invalid_argument "Tag_arena.intern: tag -1 outside 0..254") (fun () ->
      ignore (Tag_arena.intern a [ -1 ]));
  Alcotest.check_raises "foreign handle rejected"
    (Invalid_argument "Tag_arena.get: unknown handle 4096") (fun () ->
      ignore (Tag_arena.get a 4096))

(* --- compact path graphs --- *)

let sample_pairs g rng n =
  let hosts = Array.of_list (Graph.host_ids g) in
  List.init n (fun _ ->
      let src = Rng.pick_array rng hosts in
      let dst = Rng.pick_array rng hosts in
      (src, dst))
  |> List.filter (fun (s, d) -> s <> d)

let test_compact_roundtrip () =
  let b = Builder.fat_tree ~k:4 () in
  let g = b.Builder.graph in
  let arena = Tag_arena.create () in
  let rng = Rng.create 7 in
  let checked = ref 0 in
  List.iter
    (fun (src, dst) ->
      match Pathgraph.generate g ~src ~dst with
      | None -> ()
      | Some pg ->
        incr checked;
        let c = Pathgraph.to_compact arena pg in
        let back = Pathgraph.of_compact arena c in
        check Alcotest.bool
          (Printf.sprintf "wire form survives %d->%d" src dst)
          true
          (Pathgraph.to_wire back = Pathgraph.to_wire pg);
        check Alcotest.int "switch count preserved" (Pathgraph.switch_count pg)
          (Pathgraph.compact_switch_count c);
        check Alcotest.(list bool) "link set preserved" []
          (let stored = List.sort Link_key.compare (Pathgraph.compact_links c) in
           let orig =
             List.sort Link_key.compare (Link_set.elements (Pathgraph.links pg))
           in
           if stored = orig then [] else [ false ]))
    (sample_pairs g rng 40);
  check Alcotest.bool "exercised some pairs" true (!checked > 10);
  (* Fat-tree stacks repeat heavily: interning must dedup across pairs. *)
  check Alcotest.bool "arena deduped across pairs" true
    (Tag_arena.interns arena > 2 * Tag_arena.stacks arena)

(* --- the sharded controller --- *)

let encode_opt = function
  | None -> Bytes.empty
  | Some pg -> Payload.encode (Payload.Path_response (Pathgraph.to_wire pg))

(* The acceptance property: across random fail/restore sequences, a
   sharded controller (1, 2 or 4 shards) serves byte-for-byte the same
   path-response payloads as an unsharded store. *)
let sharded_serve_identical_prop =
  QCheck.Test.make ~name:"sharded serve is byte-identical to unsharded across churn" ~count:24
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, shard_idx) ->
      let shards = [| 1; 2; 4 |].(shard_idx) in
      let b = Builder.fat_tree ~k:4 () in
      let store = Topo_store.create b.Builder.graph in
      let sharded = Shard.create ~shards b.Builder.graph in
      let rng = Rng.create seed in
      let hosts = Array.of_list (Graph.host_ids b.Builder.graph) in
      let cables = Array.of_list (List.map fst (Graph.switch_links b.Builder.graph)) in
      let seq = ref 0 in
      let compare_serves label =
        for _ = 1 to 10 do
          let src = Rng.pick_array rng hosts in
          let dst = Rng.pick_array rng hosts in
          if src <> dst then begin
            let unsharded = Topo_store.serve_path_graph store ~src ~dst in
            let stitched = Shard.serve_path_graph sharded ~src ~dst in
            if not (Bytes.equal (encode_opt unsharded) (encode_opt stitched)) then
              QCheck.Test.fail_reportf "%s: %d->%d differs (shards=%d seed=%d)" label src dst
                shards seed
          end
        done
      in
      compare_serves "initial";
      for round = 1 to 5 do
        let key = Rng.pick_array rng cables in
        let le, _ = Link_key.ends key in
        incr seq;
        let ev = { Payload.position = le; up = Rng.bool rng; event_seq = !seq } in
        let a = Topo_store.apply_event store ev in
        let b = Shard.apply_event sharded ev in
        if a <> b then
          QCheck.Test.fail_reportf "round %d: outcomes differ (shards=%d seed=%d)" round shards
            seed;
        compare_serves (Printf.sprintf "round %d" round)
      done;
      true)

let test_shard_batch_matches_sequential () =
  let b = Builder.fat_tree ~k:4 () in
  let sharded = Shard.create ~shards:4 b.Builder.graph in
  let pairs = Array.of_list (sample_pairs b.Builder.graph (Rng.create 11) 20) in
  let batch = Shard.serve_path_graphs sharded pairs in
  Array.iteri
    (fun i (src, dst) ->
      check Alcotest.bool
        (Printf.sprintf "batch item %d" i)
        true
        (Bytes.equal (encode_opt batch.(i)) (encode_opt (Shard.serve_path_graph sharded ~src ~dst))))
    pairs

let test_shard_patch_and_probe () =
  let b = Builder.testbed () in
  let sharded = Shard.create ~shards:2 b.Builder.graph in
  let ev = { Payload.position = { sw = 2; port = 1 }; up = false; event_seq = 1 } in
  check Alcotest.bool "down applied" true (Shard.apply_event sharded ev = Topo_store.Applied);
  check Alcotest.bool "duplicate ignored" true
    (Shard.apply_event sharded ev = Topo_store.Ignored);
  (match Shard.take_patch sharded with
  | Some (Payload.Topo_patch { version; changes }) ->
    check Alcotest.int "version bumped" 1 version;
    check Alcotest.int "one change" 1 (List.length changes)
  | _ -> Alcotest.fail "expected a patch");
  check Alcotest.bool "patch drained" true (Shard.take_patch sharded = None);
  (* Port-up on an unknown cable: every shard needs the probe result. *)
  (match Shard.apply_event sharded { Payload.position = { sw = 2; port = 60 }; up = true; event_seq = 2 } with
  | Topo_store.Needs_probe le ->
    check Alcotest.bool "probe position" true (le = { sw = 2; port = 60 })
  | _ -> Alcotest.fail "expected needs-probe");
  Shard.record_discovered_link sharded { sw = 2; port = 60 } { sw = 0; port = 60 };
  match Shard.take_patch sharded with
  | Some (Payload.Topo_patch { changes = [ Payload.Link_discovered _ ]; _ }) -> ()
  | _ -> Alcotest.fail "expected discovery patch"

let test_shard_ledger_scoping () =
  let b = Builder.fat_tree ~k:4 () in
  let g = b.Builder.graph in
  let sharded = Shard.create ~shards:4 g in
  let pairs = sample_pairs g (Rng.create 3) 30 in
  let pushed =
    List.filter_map
      (fun (src, dst) ->
        match Shard.serve_path_graph sharded ~src ~dst with
        | None -> None
        | Some pg ->
          Shard.record_push sharded pg;
          Some ((src, dst), pg))
      pairs
  in
  check Alcotest.bool "some pairs pushed" true (List.length pushed > 5);
  (* The cached graph rebuilds to the pushed wire form. *)
  List.iter
    (fun ((src, dst), pg) ->
      match Shard.cached_graph sharded ~src ~dst with
      | None -> Alcotest.fail "pushed pair missing from ledger"
      | Some back ->
        check Alcotest.bool
          (Printf.sprintf "ledger rebuild %d->%d" src dst)
          true
          (Pathgraph.to_wire back = Pathgraph.to_wire pg))
    pushed;
  (* A failed cable must hit exactly the pairs whose generated subgraph
     covered it — and only consult that cable's owning shard. *)
  let key, _ = List.hd (Graph.switch_links g) in
  let a, b_end = Link_key.ends key in
  let consulted_before = Shard.subs_shards_consulted sharded in
  let affected = Shard.affected_pairs sharded [ Payload.Link_failed (a, b_end) ] in
  let expected =
    List.filter_map
      (fun (pair, pg) -> if Link_set.mem key (Pathgraph.links pg) then Some pair else None)
      pushed
    |> List.sort_uniq compare
  in
  check Alcotest.(list (pair int int)) "failed cable hits exactly its subscribers" expected
    affected;
  check Alcotest.int "one shard index consulted" 1
    (Shard.subs_shards_consulted sharded - consulted_before);
  (* Restores invalidate nothing. *)
  check Alcotest.(list (pair int int)) "restore hits nobody" []
    (Shard.affected_pairs sharded [ Payload.Link_restored (a, b_end) ]);
  (* Unsubscribing removes the pair from ledger and index. *)
  (match expected with
  | [] -> ()
  | pair :: _ ->
    Shard.unsubscribe sharded pair;
    check Alcotest.bool "unsubscribed pair gone" true
      (Shard.cached_graph sharded ~src:(fst pair) ~dst:(snd pair) = None);
    let affected' = Shard.affected_pairs sharded [ Payload.Link_failed (a, b_end) ] in
    check Alcotest.(list (pair int int)) "index forgets unsubscribed pair"
      (List.filter (fun p -> p <> pair) expected)
      affected')

let test_shard_distance_ownership () =
  let b = Builder.fat_tree ~k:4 () in
  let sharded = Shard.create ~shards:4 b.Builder.graph in
  List.iter
    (fun (src, dst) -> ignore (Shard.serve_path_graph sharded ~src ~dst))
    (sample_pairs b.Builder.graph (Rng.create 5) 40);
  let roots = Shard.dist_cache_roots sharded in
  let total = Array.fold_left ( + ) 0 roots in
  check Alcotest.bool "tables memoized" true (total > 0);
  check Alcotest.bool "no shard owns everything" true
    (Array.for_all (fun r -> r < total) roots);
  let stats = Shard.stitch_stats sharded in
  check Alcotest.bool "queries were served" true (stats.Shard.served_pairs > 0);
  check Alcotest.bool "cross-region queries stitched" true (stats.Shard.stitched_pairs > 0);
  check Alcotest.bool "fetch split recorded" true
    (stats.Shard.local_fetches > 0 && stats.Shard.cross_fetches > 0)

(* --- bench scale's memory column --- *)

module Scale = Dumbnet_experiments.Scale

(* A point's live-memory figure must not depend on what ran before it
   in the same process: jellyfish-64 alone and right after the much
   bigger fat-tree k=16 agree within 5%. *)
let test_scale_memory_independent_of_order () =
  Scale.quick := true;
  let point name =
    match List.find_opt (fun pt -> pt.Scale.pt_name = name) Scale.points with
    | Some pt -> pt
    | None -> Alcotest.fail ("no scale point " ^ name)
  in
  let jelly = point "jellyfish_64" in
  let alone = (Scale.measure jelly).Scale.r_live_mib in
  ignore (Scale.measure (point "fat_tree_k16"));
  let after = (Scale.measure jelly).Scale.r_live_mib in
  check Alcotest.bool "a point holds live memory" true (alone > 0.);
  check Alcotest.bool
    (Printf.sprintf "alone %.3f MiB vs after k=16 %.3f MiB within 5%%" alone after)
    true
    (Float.abs (after -. alone) <= 0.05 *. alone)

let () =
  Alcotest.run "shard"
    [
      ( "tag_arena",
        [
          Alcotest.test_case "intern + dedup" `Quick test_arena_interns_and_dedups;
          Alcotest.test_case "growth + validation" `Quick test_arena_growth_and_validation;
        ] );
      ( "compact",
        [ Alcotest.test_case "roundtrip through arena" `Quick test_compact_roundtrip ] );
      ( "sharded controller",
        [
          QCheck_alcotest.to_alcotest sharded_serve_identical_prop;
          Alcotest.test_case "batch = sequential" `Quick test_shard_batch_matches_sequential;
          Alcotest.test_case "patch + probe fan-out" `Quick test_shard_patch_and_probe;
          Alcotest.test_case "ledger scoping" `Quick test_shard_ledger_scoping;
          Alcotest.test_case "distance ownership" `Quick test_shard_distance_ownership;
        ] );
      ( "bench scale",
        [
          Alcotest.test_case "live memory independent of curve order" `Quick
            test_scale_memory_independent_of_order;
        ] );
    ]
