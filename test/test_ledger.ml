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
        let c = Pathgraph.to_compact arena pg in
        let back = Pathgraph.of_compact arena c in
        check Alcotest.bool
          (Printf.sprintf "wire form survives %d->%d" src dst)
          true
          (Pathgraph.to_wire back = Pathgraph.to_wire pg);
        check Alcotest.int "switch count preserved" (Pathgraph.switch_count pg)
          (Pathgraph.compact_switch_count c);
        check Alcotest.(list bool) "link set preserved" []
          (if Link_set.equal (Pathgraph.links back) (Pathgraph.links pg) then [] else [ false ]))
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
          Ledger.record_push ledger pg;
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

(* The ledger against a list model: random sequences of pushes,
   unsubscribes and delta queries over a pool of served graphs, two per
   pair (the intact fabric and one with a cable down), so a re-push
   replaces a pair's subscriptions. *)
type ledger_op =
  | Push of int * bool  (* pool index, graph from the degraded fabric *)
  | Forget of int
  | Affected of Payload.change list

let ledger_pool =
  lazy
    (let g = (Builder.fat_tree ~k:4 ()).Builder.graph in
     let pairs =
       List.concat_map
         (fun src -> List.filter_map (fun dst -> if src <> dst then Some (src, dst) else None) (Graph.host_ids g))
         (Graph.host_ids g)
     in
     let serve g = Topo_store.serve_path_graphs (Topo_store.create g) (Array.of_list pairs) in
     let intact = serve g in
     let cables = Array.of_list (List.map fst (Graph.switch_links g)) in
     let degraded = Graph.copy g in
     Graph.set_link_state degraded (fst (Link_key.ends cables.(5))) ~up:false;
     let broken = serve degraded in
     let graphs =
       List.concat
         (List.mapi
            (fun i pair ->
              match (intact.(i), broken.(i)) with
              | Some a, Some b -> [ (pair, a, b) ]
              | _ -> [])
            pairs)
     in
     (Array.of_list graphs, cables, Graph.switch_ids g))

let ledger_op_gen =
  let open QCheck.Gen in
  let graphs, cables, switches = Lazy.force ledger_pool in
  let cable = map (fun i -> Link_key.ends cables.(i)) (int_bound (Array.length cables - 1)) in
  let flipped = map2 (fun (a, b) flip -> if flip then (b, a) else (a, b)) cable bool in
  let stray = return ({ sw = 0; port = 200 }, { sw = 1; port = 200 }) in
  let change =
    frequency
      [
        (4, map (fun (a, b) -> Payload.Link_failed (a, b)) flipped);
        (1, map (fun (a, b) -> Payload.Link_failed (a, b)) stray);
        (2, map (fun sw -> Payload.Switch_removed sw) (oneofl (99 :: switches)));
        (1, map (fun (a, b) -> Payload.Link_restored (a, b)) cable);
        (1, map (fun (a, b) -> Payload.Link_discovered (a, b)) cable);
      ]
  in
  let index = int_bound (Array.length graphs - 1) in
  frequency
    [
      (5, map2 (fun i d -> Push (i, d)) index bool);
      (1, map (fun i -> Forget i) index);
      (3, map (fun l -> Affected l) (list_size (1 -- 3) change));
    ]

let ledger_model_prop =
  QCheck.Test.make ~name:"ledger matches a list model" ~count:150
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) ledger_op_gen))
    (fun ops ->
      let graphs, _, _ = Lazy.force ledger_pool in
      let ledger = Ledger.create () in
      (* (pair, graph) of every recorded pair, newest push only. *)
      let model = ref [] in
      let links pg = List.map Link_key.ends (Link_set.elements (Pathgraph.links pg)) in
      let hit change (_, pg) =
        match change with
        | Payload.Link_failed (a, b) -> List.mem (Link_key.ends (Link_key.make a b)) (links pg)
        | Payload.Switch_removed sw -> List.exists (fun (a, b) -> a.sw = sw || b.sw = sw) (links pg)
        | Payload.Link_restored _ | Payload.Link_discovered _ -> false
      in
      List.for_all
        (fun op ->
          match op with
          | Push (i, degraded) ->
            let pair, intact, broken = graphs.(i) in
            let pg = if degraded then broken else intact in
            Ledger.record_push ledger pg;
            model := (pair, pg) :: List.remove_assoc pair !model;
            true
          | Forget i ->
            let pair, _, _ = graphs.(i) in
            Ledger.unsubscribe ledger pair;
            model := List.remove_assoc pair !model;
            true
          | Affected changes ->
            let expected =
              List.filter (fun entry -> List.exists (fun c -> hit c entry) changes) !model
              |> List.map fst |> List.sort compare
            in
            Ledger.affected_pairs ledger changes = expected
            && Ledger.pair_list ledger = List.sort compare (List.map fst !model)
            && Ledger.pairs ledger = List.length !model
            && List.for_all
                 (fun ((src, dst), pg) ->
                   match Ledger.cached_graph ledger ~src ~dst with
                   | Some back -> Pathgraph.to_wire back = Pathgraph.to_wire pg
                   | None -> false)
                 !model)
        ops)

(* Ids beyond the int keys' fields are refused, and the ledger is left
   as it was. *)
let test_ledger_key_range () =
  let ledger = Ledger.create () in
  let graph ~src_sw ~port =
    let loc = { sw = src_sw; port = 1 } and far = { sw = 1; port = 1 } in
    Pathgraph.of_wire
      {
        Pathgraph.w_src = 0;
        w_dst = 1;
        w_src_loc = loc;
        w_dst_loc = far;
        w_primary = { Path.src = 0; hops = [ (src_sw, port); (1, 1) ]; dst = 1 };
        w_backup = None;
        w_edges = [ ({ sw = src_sw; port }, { sw = 1; port = 2 }) ];
      }
  in
  Ledger.record_push ledger (graph ~src_sw:0 ~port:2);
  let rejects what f =
    check Alcotest.bool what true
      (match f () with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "switch id 2^22" (fun () -> Ledger.record_push ledger (graph ~src_sw:(1 lsl 22) ~port:2));
  rejects "negative switch id" (fun () -> Ledger.record_push ledger (graph ~src_sw:(-1) ~port:2));
  rejects "port 256" (fun () -> Ledger.record_push ledger (graph ~src_sw:0 ~port:256));
  rejects "host id 2^30" (fun () -> Ledger.unsubscribe ledger (1 lsl 30, 0));
  rejects "failed cable beyond the switch range" (fun () ->
      ignore
        (Ledger.affected_pairs ledger
           [ Payload.Link_failed ({ sw = 1 lsl 22; port = 1 }, { sw = 0; port = 1 }) ]));
  check Alcotest.(list (pair int int)) "the first push stands" [ (0, 1) ] (Ledger.pair_list ledger);
  check Alcotest.(list (pair int int)) "with its subscription" [ (0, 1) ]
    (Ledger.affected_pairs ledger [ Payload.Link_failed ({ sw = 1; port = 2 }, { sw = 0; port = 2 }) ])

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
        [
          Alcotest.test_case "scoping" `Quick test_ledger_scoping;
          QCheck_alcotest.to_alcotest ledger_model_prop;
          Alcotest.test_case "ids out of key range" `Quick test_ledger_key_range;
        ] );
      ( "bench scale",
        [
          Alcotest.test_case "live memory independent of curve order" `Quick
            test_scale_memory_independent_of_order;
        ] );
      ( "gate tolerance env",
        [ Alcotest.test_case "max regression parsing" `Quick test_max_regression_parsing ] );
    ]
