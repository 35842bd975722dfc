(* Tests for the controller's push ledger: the hash-consed tag-stack
   arena, the compact path-graph form it backs, the ledger's
   subscription index, and the `bench scale` harness that measures
   them. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Payload = Dumbnet.Packet.Payload
module Topo_store = Dumbnet.Control.Topo_store
module Ledger = Dumbnet.Control.Ledger
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
        let c = Pathgraph.to_compact arena (Pathgraph.to_wire pg) in
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

(* --- the push ledger --- *)

let test_ledger_scoping () =
  let b = Builder.fat_tree ~k:4 () in
  let g = b.Builder.graph in
  let store = Topo_store.create g in
  let ledger = Ledger.create () in
  let pairs = sample_pairs g (Rng.create 3) 30 in
  let pushed =
    List.filter_map
      (fun (src, dst) ->
        match Topo_store.serve_path_graph store ~src ~dst with
        | None -> None
        | Some pg ->
          Ledger.record_push ledger (Pathgraph.to_wire pg);
          Some ((src, dst), pg))
      pairs
  in
  check Alcotest.bool "some pairs pushed" true (List.length pushed > 5);
  let pushed_pairs = List.sort_uniq compare (List.map fst pushed) in
  check Alcotest.(list (pair int int)) "pair list" pushed_pairs (Ledger.pair_list ledger);
  (* The cached graph rebuilds to the pushed wire form. *)
  List.iter
    (fun ((src, dst), pg) ->
      match Ledger.cached_graph ledger ~src ~dst with
      | None -> Alcotest.fail "pushed pair missing from ledger"
      | Some back ->
        check Alcotest.bool
          (Printf.sprintf "ledger rebuild %d->%d" src dst)
          true
          (Pathgraph.to_wire back = Pathgraph.to_wire pg))
    pushed;
  (* A failed cable must hit exactly the pairs whose generated subgraph
     covered it. *)
  let key, _ = List.hd (Graph.switch_links g) in
  let a, b_end = Link_key.ends key in
  let affected = Ledger.affected_pairs ledger [ Payload.Link_failed (a, b_end) ] in
  let expected =
    List.filter_map
      (fun (pair, pg) -> if Link_set.mem key (Pathgraph.links pg) then Some pair else None)
      pushed
    |> List.sort_uniq compare
  in
  check Alcotest.bool "the failed cable has subscribers" true (expected <> []);
  check Alcotest.(list (pair int int)) "failed cable hits exactly its subscribers" expected
    affected;
  (* Restores invalidate nothing. *)
  check Alcotest.(list (pair int int)) "restore hits nobody" []
    (Ledger.affected_pairs ledger [ Payload.Link_restored (a, b_end) ]);
  (* Unsubscribing removes the pair from ledger and index. *)
  let pair = List.hd expected in
  Ledger.unsubscribe ledger pair;
  check Alcotest.bool "unsubscribed pair gone" true
    (Ledger.cached_graph ledger ~src:(fst pair) ~dst:(snd pair) = None);
  check Alcotest.int "pair count drops" (List.length pushed_pairs - 1) (Ledger.pairs ledger);
  let affected' = Ledger.affected_pairs ledger [ Payload.Link_failed (a, b_end) ] in
  check Alcotest.(list (pair int int)) "index forgets unsubscribed pair"
    (List.filter (fun p -> p <> pair) expected)
    affected'

(* --- bench scale's memory column --- *)

module Scale = Dumbnet_experiments.Scale

(* A point's live-memory figure must not depend on what ran before it
   in the same process: jellyfish-64 alone and right after the much
   bigger fat-tree k=16 agree within 5%. *)
let test_scale_memory_independent_of_order () =
  Dumbnet_experiments.Bench_util.quick := true;
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

(* Both benches read their gate tolerance through one parser: a value
   that would make every throughput gate vacuous (NaN, infinite, zero
   or negative) or that is not a number at all is an error, not 2.0. *)
let test_max_regression_parsing () =
  let parse = Dumbnet_experiments.Bench_util.parse_max_regression in
  let parsed = Alcotest.(result (float 0.) string) in
  check parsed "unset" (Ok 2.0) (parse None);
  check parsed "8" (Ok 8.0) (parse (Some "8"));
  List.iter
    (fun bad ->
      check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (parse (Some bad))))
    [ "nan"; "-1"; "inf"; "abc"; "0"; "" ]

let () =
  Alcotest.run "ledger"
    [
      ( "tag_arena",
        [
          Alcotest.test_case "intern + dedup" `Quick test_arena_interns_and_dedups;
          Alcotest.test_case "growth + validation" `Quick test_arena_growth_and_validation;
        ] );
      ( "compact",
        [ Alcotest.test_case "roundtrip through arena" `Quick test_compact_roundtrip ] );
      ( "push ledger",
        [ Alcotest.test_case "scoping" `Quick test_ledger_scoping ] );
      ( "bench scale",
        [
          Alcotest.test_case "live memory independent of curve order" `Quick
            test_scale_memory_independent_of_order;
        ] );
      ( "gate tolerance env",
        [ Alcotest.test_case "max regression parsing" `Quick test_max_regression_parsing ] );
    ]
