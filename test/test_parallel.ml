(* Tests for the domain pool and the parallel path-graph service: chunk
   arithmetic, exception propagation with every domain joined, and the
   determinism contract — a batch served over any number of domains is
   byte-identical to serving it sequentially. *)

open Dumbnet.Topology
module Topo_store = Dumbnet.Control.Topo_store
module Pool = Dumbnet.Util.Pool
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- pool mechanics --- *)

let test_default_jobs_env () =
  let derived = min (Domain.recommended_domain_count ()) Pool.max_default_jobs in
  Unix.putenv "DUMBNET_JOBS" "3";
  check Alcotest.int "env wins" 3 (Pool.default_jobs ());
  Unix.putenv "DUMBNET_JOBS" "0";
  check Alcotest.int "non-positive ignored" derived (Pool.default_jobs ());
  Unix.putenv "DUMBNET_JOBS" "";
  check Alcotest.int "empty ignored" derived (Pool.default_jobs ())

let test_worthwhile () =
  check Alcotest.bool "jobs=1 never" false (Pool.worthwhile ~jobs:1 ~items:10_000);
  check Alcotest.bool "tiny batch falls through" false
    (Pool.worthwhile ~jobs:4 ~items:(4 * Pool.min_items_per_worker - 1));
  check Alcotest.bool "big batch fans out" true
    (Pool.worthwhile ~jobs:4 ~items:(4 * Pool.min_items_per_worker))

let test_pool_chunks_cover () =
  (* Every index is visited exactly once, whatever the jobs/n ratio —
     including n < jobs (empty slices) and n = 0. *)
  List.iter
    (fun (jobs, n) ->
      Pool.with_pool ~jobs (fun pool ->
          let marks = Array.make (max n 1) 0 in
          Pool.run_chunks pool ~n (fun ~worker:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                (* Disjoint slices: no two domains touch the same cell. *)
                marks.(i) <- marks.(i) + 1
              done);
          Array.iteri
            (fun i m ->
              if i < n then
                check Alcotest.int (Printf.sprintf "jobs=%d n=%d index %d" jobs n i) 1 m)
            marks))
    [ (1, 10); (2, 10); (4, 10); (4, 3); (4, 0); (3, 1); (8, 64) ]

let test_parallel_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 101 (fun i -> i) in
      let out = Pool.parallel_map pool ~f:(fun ~worker:_ x -> x * x) input in
      check Alcotest.(array int) "squares in order" (Array.map (fun x -> x * x) input) out;
      check Alcotest.(array int) "empty input" [||]
        (Pool.parallel_map pool ~f:(fun ~worker:_ x -> x) [||]))

let test_pool_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Array.make 4 false in
      (* Workers 1 and 3 fail; the lowest-numbered failure wins, and the
         surviving chunks still run to completion. *)
      (try
         Pool.run_chunks pool ~n:4 (fun ~worker ~lo ~hi:_ ->
             ran.(lo) <- true;
             if worker = 1 || worker = 3 then failwith (Printf.sprintf "worker %d" worker))
       with
      | Failure msg -> check Alcotest.string "lowest worker re-raised" "worker 1" msg
      | e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e));
      Array.iteri (fun i r -> check Alcotest.bool (Printf.sprintf "chunk %d ran" i) true r) ran;
      (* The pool survives a failed batch: same domains, next call works. *)
      let out = Pool.parallel_map pool ~f:(fun ~worker:_ x -> x + 1) [| 1; 2; 3 |] in
      check Alcotest.(array int) "pool reusable after raise" [| 2; 3; 4 |] out)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:3 () in
  check Alcotest.int "jobs" 3 (Pool.jobs pool);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (try
     Pool.run_chunks pool ~n:1 (fun ~worker:_ ~lo:_ ~hi:_ -> ());
     Alcotest.fail "expected Invalid_argument after shutdown"
   with Invalid_argument _ -> ());
  match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | p ->
    Pool.shutdown p;
    Alcotest.fail "jobs=0 should be rejected"

(* --- parallel = sequential on the path-graph service --- *)

let all_pairs hosts =
  Array.of_list
    (List.concat_map
       (fun src -> List.filter_map (fun dst -> if src <> dst then Some (src, dst) else None) hosts)
       hosts)

let wire_forms results = Array.map (Option.map Pathgraph.to_wire) results

(* Serve [pairs] from a fresh store over [jobs] domains and return the
   wire forms. A fresh store per call keeps cache state from leaking
   between runs — determinism must not depend on warm caches. *)
let serve ~jobs built pairs =
  let store = Topo_store.create built.Builder.graph in
  let serve_with pool = Topo_store.serve_path_graphs ?pool store pairs in
  if jobs = 1 then wire_forms (serve_with None)
  else Pool.with_pool ~jobs (fun pool -> wire_forms (serve_with (Some pool)))

let check_parallel_matches_sequential built =
  let pairs = all_pairs built.Builder.hosts in
  let reference = serve ~jobs:1 built pairs in
  List.iter
    (fun jobs ->
      let got = serve ~jobs built pairs in
      check Alcotest.bool (Printf.sprintf "jobs=%d matches sequential" jobs) true (got = reference))
    [ 2; 4 ]

let test_fat_tree_parallel_matches () = check_parallel_matches_sequential (Builder.fat_tree ~k:4 ())

let jellyfish_prop =
  QCheck.Test.make ~name:"parallel = sequential on random jellyfish" ~count:15 QCheck.small_nat
    (fun seed ->
      let built =
        Builder.random_regular ~rng:(Rng.create (seed + 1)) ~switches:12 ~degree:4
          ~hosts_per_switch:1 ()
      in
      let pairs = all_pairs built.Builder.hosts in
      let reference = serve ~jobs:1 built pairs in
      List.for_all (fun jobs -> serve ~jobs built pairs = reference) [ 2; 4 ])

(* A batch whose hosts sit on a few switches repeats each switch pair
   many times, so most items are stamped on a body another item
   built. Whatever the pool width, every item must read exactly as if
   it had been asked alone. *)
let repeated_switch_pairs_prop =
  QCheck.Test.make ~name:"batch of repeated switch pairs = per-item serves" ~count:15
    QCheck.(pair small_nat (int_range 2 4))
    (fun (seed, n_switches) ->
      let rng = Rng.create (seed + 1) in
      let built =
        Builder.random_regular ~rng ~switches:12 ~degree:4 ~hosts_per_switch:4 ()
      in
      let g = built.Builder.graph in
      let switches = Array.of_list (Graph.switch_ids g) in
      let chosen = Array.init n_switches (fun _ -> Rng.pick_array rng switches) in
      let hosts =
        Array.of_list
          (List.filter
             (fun h ->
               match Graph.host_location g h with
               | Some le -> Array.mem le.sw chosen
               | None -> false)
             built.Builder.hosts)
      in
      let pairs =
        Array.init 200 (fun _ -> (Rng.pick_array rng hosts, Rng.pick_array rng hosts))
      in
      let store = Topo_store.create g in
      let per_item =
        Array.map
          (fun (src, dst) -> Option.map Pathgraph.to_wire (Topo_store.serve_path_graph store ~src ~dst))
          pairs
      in
      List.for_all (fun jobs -> serve ~jobs built pairs = per_item) [ 1; 2 ])

(* 20 back-to-back parallel batches over live domains: the digest must
   never move, whatever the scheduler did that iteration. *)
let test_determinism_digest_smoke () =
  let built = Builder.fat_tree ~k:4 () in
  let pairs = all_pairs built.Builder.hosts in
  let digest_of forms = Digest.to_hex (Digest.string (Marshal.to_string forms [])) in
  let reference = digest_of (serve ~jobs:1 built pairs) in
  for i = 1 to 20 do
    let d = digest_of (serve ~jobs:4 built pairs) in
    check Alcotest.string (Printf.sprintf "iteration %d digest" i) reference d
  done

(* --- single-writer rule bookkeeping --- *)

let test_in_batch_flag () =
  let built = Builder.fat_tree ~k:4 () in
  let store = Topo_store.create built.Builder.graph in
  check Alcotest.bool "not in batch at rest" false (Topo_store.in_batch store);
  ignore (Topo_store.serve_path_graphs store (all_pairs built.Builder.hosts));
  check Alcotest.bool "flag cleared after batch" false (Topo_store.in_batch store);
  (* Mutators work again once the batch is over. *)
  let hits, misses = Topo_store.dist_cache_stats store in
  check Alcotest.bool "cache was exercised" true (hits > 0 && misses > 0);
  Topo_store.invalidate_dist_cache store;
  check Alcotest.bool "invalidate after batch is fine" true (not (Topo_store.in_batch store))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "DUMBNET_JOBS parsing" `Quick test_default_jobs_env;
          Alcotest.test_case "worthwhile heuristic" `Quick test_worthwhile;
          Alcotest.test_case "chunks cover exactly once" `Quick test_pool_chunks_cover;
          Alcotest.test_case "parallel_map preserves order" `Quick test_parallel_map_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "path-graph batches",
        [
          Alcotest.test_case "fat-tree parallel = sequential" `Quick
            test_fat_tree_parallel_matches;
          QCheck_alcotest.to_alcotest jellyfish_prop;
          QCheck_alcotest.to_alcotest repeated_switch_pairs_prop;
          Alcotest.test_case "20x digest smoke" `Quick test_determinism_digest_smoke;
          Alcotest.test_case "in_batch bookkeeping" `Quick test_in_batch_flag;
        ] );
    ]
