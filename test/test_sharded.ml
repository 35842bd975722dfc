(* Tests for the sharded discrete-event engine and its supporting cast:
   the topology partitioner, the struct-of-arrays frame pool, and the
   determinism contract — a run over any shard count (and any pool
   width) is byte-identical to the single-shard run, including mid-run
   link failures that change the cut set. *)

open Dumbnet.Topology
open Dumbnet.Topology.Types
module Frame_pool = Dumbnet.Packet.Frame_pool
module Frame = Dumbnet.Packet.Frame
module Payload = Dumbnet.Packet.Payload
module Sharded = Dumbnet.Sim.Sharded
module Engine = Dumbnet.Sim.Engine
module Network = Dumbnet.Sim.Network
module Pool = Dumbnet.Util.Pool
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- partitioner --- *)

let test_partition_covers_and_balances () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let n = Graph.num_switches g in
  List.iter
    (fun shards ->
      let part = Partition.compute g ~shards in
      check Alcotest.int (Printf.sprintf "shards=%d count" shards) shards
        part.Partition.shards;
      check Alcotest.int
        (Printf.sprintf "shards=%d sizes sum" shards)
        n
        (Array.fold_left ( + ) 0 part.Partition.sizes);
      Array.iter
        (fun w ->
          check Alcotest.bool "assignment in range" true (w >= 0 && w < shards))
        part.Partition.of_switch;
      Array.iter
        (fun size ->
          (* Balance: within one of the even split. *)
          check Alcotest.bool
            (Printf.sprintf "shards=%d balanced (%d)" shards size)
            true
            (size >= (n / shards) - 1 && size <= (n / shards) + 2))
        part.Partition.sizes)
    [ 2; 4; 8 ]

let test_partition_cut_is_exact () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let part = Partition.compute g ~shards:4 in
  let expected =
    List.filter
      (fun (key, _up) ->
        let a, b = Link_key.ends key in
        part.Partition.of_switch.(a.sw) <> part.Partition.of_switch.(b.sw))
      (Graph.switch_links g)
    |> List.map fst
    |> List.sort Link_key.compare
  in
  check Alcotest.int "cut size" (List.length expected) (List.length part.Partition.cut);
  check Alcotest.bool "cut cables exact" true (expected = part.Partition.cut);
  check Alcotest.bool "cut is a strict subset" true
    (List.length part.Partition.cut < List.length (Graph.switch_links g))

let test_partition_trivial_and_clamped () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let one = Partition.compute g ~shards:1 in
  check Alcotest.int "shards=1" 1 one.Partition.shards;
  check Alcotest.bool "no cut at shards=1" true (one.Partition.cut = []);
  Array.iter (fun w -> check Alcotest.int "all in shard 0" 0 w) one.Partition.of_switch;
  let n = Graph.num_switches g in
  let big = Partition.compute g ~shards:(n * 3) in
  check Alcotest.int "clamped to switch count" n big.Partition.shards

(* Pod of a non-core fat-tree switch, from the builder's id layout:
   cores first, then all aggregation switches pod-major, then all edge
   switches pod-major, k/2 of each per pod. *)
let fat_tree_pod ~k sw =
  let half = k / 2 in
  let cores = half * half in
  if sw < cores then None
  else if sw < cores + (k * half) then Some ((sw - cores) / half)
  else Some ((sw - cores - (k * half)) / half)

(* The partitioner's fat-tree promise: pods are recovered whole. At
   [shards = k] every region is exactly one pod plus its share of the
   core layer; at [shards = 2] each half holds complete pods. Checked
   at k = 16 — 320 switches, the smallest size where greedy one-at-a-
   time growth is known to shred pods. *)
let test_partition_recovers_pods_k16 () =
  let k = 16 in
  let built = Builder.fat_tree ~k () in
  let g = built.Builder.graph in
  let n = Graph.num_switches g in
  List.iter
    (fun shards ->
      let part = Partition.compute g ~shards in
      (* Every pod lands in exactly one region. *)
      let pod_region = Hashtbl.create 16 in
      let split = ref 0 in
      Array.iteri
        (fun sw w ->
          match fat_tree_pod ~k sw with
          | None -> ()
          | Some pod -> (
            match Hashtbl.find_opt pod_region pod with
            | None -> Hashtbl.replace pod_region pod w
            | Some w' -> if w <> w' then incr split))
        part.Partition.of_switch;
      check Alcotest.int (Printf.sprintf "shards=%d: no pod is split" shards) 0 !split;
      (* Balance stays within one switch of the even split. *)
      Array.iter
        (fun size ->
          check Alcotest.bool
            (Printf.sprintf "shards=%d balanced (%d)" shards size)
            true
            (abs (size - (n / shards)) <= 1))
        part.Partition.sizes;
      (* Cut invariant: exactly the cables whose ends disagree. *)
      let expected =
        List.filter
          (fun (key, _up) ->
            let a, b = Link_key.ends key in
            part.Partition.of_switch.(a.sw) <> part.Partition.of_switch.(b.sw))
          (Graph.switch_links g)
        |> List.map fst
        |> List.sort Link_key.compare
      in
      check Alcotest.bool (Printf.sprintf "shards=%d cut exact" shards) true
        (expected = part.Partition.cut))
    [ 2; k ]

(* On a jellyfish there are no pods to recover — the partitioner is a
   plain min-cut heuristic — but coverage, balance, cut exactness and
   a non-degenerate cut must still hold at realistic scale. *)
let test_partition_jellyfish_256 () =
  let built =
    Builder.random_regular ~rng:(Rng.create 23) ~switches:256 ~degree:6 ~hosts_per_switch:1 ()
  in
  let g = built.Builder.graph in
  let n = Graph.num_switches g in
  List.iter
    (fun shards ->
      let part = Partition.compute g ~shards in
      check Alcotest.int (Printf.sprintf "shards=%d sizes sum" shards) n
        (Array.fold_left ( + ) 0 part.Partition.sizes);
      Array.iter
        (fun size ->
          check Alcotest.bool
            (Printf.sprintf "shards=%d balanced (%d)" shards size)
            true
            (abs (size - (n / shards)) <= 1))
        part.Partition.sizes;
      let expected =
        List.filter
          (fun (key, _up) ->
            let a, b = Link_key.ends key in
            part.Partition.of_switch.(a.sw) <> part.Partition.of_switch.(b.sw))
          (Graph.switch_links g)
        |> List.map fst
        |> List.sort Link_key.compare
      in
      check Alcotest.bool (Printf.sprintf "shards=%d cut exact" shards) true
        (expected = part.Partition.cut);
      check Alcotest.bool
        (Printf.sprintf "shards=%d cut below uniform-random" shards)
        true
        (* A random assignment cuts (1 - 1/shards) of the cables; the
           bubble growth must do strictly better than 60% of that. *)
        (Partition.cut_fraction part g < 0.6 *. (1.0 -. (1.0 /. float_of_int shards))))
    [ 2; 4; 8 ]

let test_partition_deterministic () =
  let built =
    Builder.random_regular ~rng:(Rng.create 5) ~switches:16 ~degree:4 ~hosts_per_switch:1 ()
  in
  let g = built.Builder.graph in
  let a = Partition.compute g ~shards:4 in
  let b = Partition.compute g ~shards:4 in
  check Alcotest.bool "same assignment" true (a.Partition.of_switch = b.Partition.of_switch);
  check Alcotest.bool "same cut" true (a.Partition.cut = b.Partition.cut)

(* --- frame pool --- *)

let test_pool_byte_size_matches_frame () =
  let fp = Frame_pool.create ~capacity:4 () in
  let payload = Payload.Data { flow = 0; seq = 0; size = 777; sent_ns = 0 } in
  let reference tags ~int_enabled ~stamps =
    let f = Frame.along_path ~src:1 ~dst:2 ~tags_of:tags ~payload in
    let f = if int_enabled then Frame.with_int f else f in
    let f =
      List.fold_left
        (fun f i ->
          Frame.add_stamp
            { Dumbnet.Packet.Int_stamp.switch = i; port = 1; queue_depth = 0; timestamp_ns = i }
            f)
        f
        (List.init stamps (fun i -> i))
    in
    Frame.byte_size f
  in
  List.iter
    (fun (tags, int_enabled, stamps) ->
      let s = Frame_pool.acquire fp ~src:1 ~dst:2 ~payload_bytes:777 ~int_enabled in
      Frame_pool.set_tags fp s tags;
      for i = 0 to stamps - 1 do
        ignore
          (Frame_pool.try_stamp fp s ~switch:i ~port:1 ~queue_depth:0 ~timestamp_ns:i)
      done;
      check Alcotest.int
        (Printf.sprintf "byte size (|tags|=%d int=%b stamps=%d)" (List.length tags)
           int_enabled stamps)
        (reference tags ~int_enabled ~stamps)
        (Frame_pool.byte_size fp s);
      Frame_pool.release fp s)
    [ ([ 3; 1; 2 ], false, 0); ([ 5 ], true, 0); ([ 2; 2; 2; 2 ], true, 3); ([], false, 0) ]

let test_pool_reuse_carries_nothing () =
  let fp = Frame_pool.create ~capacity:1 () in
  let s = Frame_pool.acquire fp ~src:7 ~dst:8 ~payload_bytes:100 ~int_enabled:true in
  Frame_pool.set_tags fp s [ 4; 9; 2 ];
  ignore (Frame_pool.try_stamp fp s ~switch:1 ~port:4 ~queue_depth:55 ~timestamp_ns:99);
  ignore (Frame_pool.try_stamp fp s ~switch:2 ~port:9 ~queue_depth:66 ~timestamp_ns:100);
  Frame_pool.advance fp s;
  Frame_pool.release fp s;
  (* Same physical slot comes back (capacity 1): nothing of the first
     life may be observable. *)
  let s' = Frame_pool.acquire fp ~src:1 ~dst:2 ~payload_bytes:0 ~int_enabled:false in
  check Alcotest.int "same slot recycled" s s';
  check Alcotest.int "no stale stamps" 0 (Frame_pool.stamp_count fp s');
  check Alcotest.int "no stale tags" 0 (Frame_pool.remaining_tag_bytes fp s');
  check Alcotest.bool "INT flag reset" false (Frame_pool.int_enabled fp s');
  check Alcotest.bool "stamping a non-INT frame refused" false
    (Frame_pool.try_stamp fp s' ~switch:3 ~port:1 ~queue_depth:0 ~timestamp_ns:0);
  Frame_pool.set_tags fp s' [ 6 ];
  check Alcotest.int "fresh tag stack" 2 (Frame_pool.remaining_tag_bytes fp s');
  check Alcotest.int "fresh head tag" 6 (Frame_pool.peek_tag fp s');
  Frame_pool.release fp s'

let test_pool_export_import_roundtrip () =
  let a = Frame_pool.create ~capacity:2 () in
  let b = Frame_pool.create ~capacity:2 () in
  let s = Frame_pool.acquire a ~src:3 ~dst:4 ~payload_bytes:50 ~int_enabled:true in
  Frame_pool.set_tags a s [ 7; 1; 9 ];
  Frame_pool.advance a s;
  (* Consumed one tag. *)
  ignore (Frame_pool.try_stamp a s ~switch:5 ~port:7 ~queue_depth:123 ~timestamp_ns:42);
  let s' =
    Frame_pool.import b ~src:(Frame_pool.src a s) ~dst:(Frame_pool.dst a s)
      ~payload_bytes:(Frame_pool.payload_bytes a s)
      ~int_enabled:(Frame_pool.int_enabled a s)
      ~tags:(Frame_pool.export_tags a s)
      ~stamps:(Frame_pool.export_stamps a s)
  in
  check Alcotest.int "remaining tags travel" 3 (Frame_pool.remaining_tag_bytes b s');
  check Alcotest.int "head tag" 1 (Frame_pool.peek_tag b s');
  check Alcotest.int "stamps travel" 1 (Frame_pool.stamp_count b s');
  check Alcotest.int "stamp switch" 5 (Frame_pool.stamp_switch b s' 0);
  check Alcotest.int "stamp queue" 123 (Frame_pool.stamp_queue b s' 0);
  check Alcotest.int "byte size preserved" (Frame_pool.byte_size a s)
    (Frame_pool.byte_size b s')

let test_pool_growth () =
  let fp = Frame_pool.create ~capacity:2 () in
  let slots =
    List.init 9 (fun i ->
        let s = Frame_pool.acquire fp ~src:i ~dst:i ~payload_bytes:i ~int_enabled:false in
        Frame_pool.set_tags fp s [ (i mod 5) + 1 ];
        s)
  in
  check Alcotest.bool "grew" true (Frame_pool.capacity fp >= 9);
  check Alcotest.int "all live" 9 (Frame_pool.live fp);
  check Alcotest.int "slots distinct" 9
    (List.length (List.sort_uniq compare slots));
  List.iteri
    (fun i s ->
      check Alcotest.int (Printf.sprintf "slot %d payload survived growth" i) i
        (Frame_pool.payload_bytes fp s);
      Frame_pool.release fp s)
    slots;
  check Alcotest.int "all released" 0 (Frame_pool.live fp)

(* --- sharded engine vs the classic engine, single frame --- *)

(* One frame, one path: tie-breaking can't matter, so the classic
   Network and the sharded engine must agree on every counter. *)
let test_single_frame_matches_classic () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let hosts = Array.of_list built.Builder.hosts in
  let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
  let tags =
    match Routing.host_route g ~src ~dst with
    | Some p -> Path.tags p
    | None -> Alcotest.fail "no route"
  in
  let payload = Payload.Data { flow = 0; seq = 0; size = 1000; sent_ns = 0 } in
  let eng = Engine.create () in
  let net = Network.create ~engine:eng ~graph:g () in
  Network.set_host_handler net dst (fun _ -> ());
  let f = Frame.with_int (Frame.along_path ~src ~dst ~tags_of:tags ~payload) in
  Network.host_send net src f;
  Engine.run eng;
  let classic = Network.stats net in
  let sim = Sharded.create ~shards:1 ~graph:g () in
  Sharded.inject sim ~at_ns:0 ~src ~dst ~tags ~payload_bytes:1000 ~int_enabled:true ();
  Sharded.run sim;
  let st = Sharded.stats sim in
  check Alcotest.int "hops" classic.Network.switch_hops st.Network.switch_hops;
  check Alcotest.int "delivered" classic.Network.host_rx st.Network.host_rx;
  check Alcotest.int "bytes" classic.Network.bytes_delivered st.Network.bytes_delivered;
  check Alcotest.int "stamps" classic.Network.int_stamped st.Network.int_stamped;
  check Alcotest.int "tx" classic.Network.host_tx st.Network.host_tx;
  check Alcotest.int "no leak" 0 (Sharded.live_slots sim)

let test_mid_run_failure_drops () =
  (* A chain 0-1-2-...: kill the middle cable while the frame is still
     in the source NIC, and the frame must die at the break with a
     dataplane drop; restore instead and it must arrive. *)
  let built = Builder.linear ~n:4 () in
  let g = built.Builder.graph in
  let hosts = Array.of_list built.Builder.hosts in
  let src = hosts.(0) and dst = hosts.(3) in
  let tags =
    match Routing.host_route g ~src ~dst with
    | Some p -> Path.tags p
    | None -> Alcotest.fail "no route"
  in
  let cut =
    match Graph.peer_port g { sw = 1; port = 2 } with
    | Some _ -> { sw = 1; port = 2 }
    | None -> (
      match Graph.switch_neighbors g 1 with
      | (p, _, _) :: _ -> { sw = 1; port = p }
      | [] -> Alcotest.fail "no cable at switch 1")
  in
  let run_with ~failure =
    let sim = Sharded.create ~shards:1 ~graph:g () in
    Sharded.inject sim ~at_ns:0 ~src ~dst ~tags ();
    if failure then Sharded.fail_link_at sim ~at_ns:100 cut;
    Sharded.run sim;
    (Sharded.delivered sim, (Sharded.stats sim).Network.dataplane_drops)
  in
  let ok_rx, ok_drops = run_with ~failure:false in
  check Alcotest.int "healthy chain delivers" 1 ok_rx;
  check Alcotest.int "healthy chain drops nothing" 0 ok_drops;
  let cut_rx, cut_drops = run_with ~failure:true in
  check Alcotest.int "cut chain delivers nothing" 0 cut_rx;
  check Alcotest.int "cut chain drops at the break" 1 cut_drops

(* --- determinism: sharded = single-shard --- *)

(* A randomized scenario: every host sends [frames] INT-stamped frames
   to random destinations at staggered times, and random cables fail
   (some later restore) while traffic is in flight. Observables: the
   delivered-frame digest (arrival times, endpoints, sizes, full INT
   stamp lists), every aggregate counter, and pool hygiene. *)
type fingerprint = {
  fp_digest : int;
  fp_hops : int;
  fp_stats : int * int * int * int * int * int * int;
  fp_leak : int;
}

let scenario_fingerprint ?pool g ~seed ~shards ~frames =
  let rng = Rng.create (0x5eed + seed) in
  let hosts = Array.of_list (Graph.host_ids g) in
  let n = Array.length hosts in
  let sim = Sharded.create ~shards ~graph:g () in
  Array.iter
    (fun src ->
      for i = 1 to frames do
        let dst = hosts.(Rng.int rng n) in
        if dst <> src then
          match Routing.host_route g ~src ~dst with
          | Some p ->
            Sharded.inject sim
              ~at_ns:(Rng.int rng 2_000_000)
              ~src ~dst ~tags:(Path.tags p)
              ~payload_bytes:(200 + Rng.int rng 1200)
              ~int_enabled:(i mod 2 = 0)
              ()
          | None -> ()
      done)
    hosts;
  (* Fail a handful of random cables mid-flight (the NIC tx latency
     puts first arrivals past ~562us, so [600us, 3ms] hits traffic),
     restoring some — exercising cut cables and intact ones alike. *)
  let cables = Array.of_list (List.map fst (Graph.switch_links g)) in
  for i = 1 to 3 do
    let key = cables.(Rng.int rng (Array.length cables)) in
    let le, _ = Link_key.ends key in
    let at_ns = 600_000 + Rng.int rng 2_400_000 in
    Sharded.fail_link_at sim ~at_ns le;
    if i mod 2 = 0 then Sharded.restore_link_at sim ~at_ns:(at_ns + Rng.int rng 1_000_000) le
  done;
  Sharded.run ?pool sim;
  let st = Sharded.stats sim in
  {
    fp_digest = Sharded.digest sim;
    fp_hops = Sharded.hops sim;
    fp_stats =
      ( st.Network.host_tx,
        st.Network.host_rx,
        st.Network.switch_hops,
        st.Network.queue_drops,
        st.Network.dataplane_drops,
        st.Network.bytes_delivered,
        st.Network.int_stamped );
    fp_leak = Sharded.live_slots sim;
  }

let check_shard_counts_agree g ~seed ~frames =
  let reference = scenario_fingerprint g ~seed ~shards:1 ~frames in
  check Alcotest.bool "traffic flowed" true (reference.fp_hops > 0);
  check Alcotest.int "no slot leak" 0 reference.fp_leak;
  List.iter
    (fun shards ->
      let got = scenario_fingerprint g ~seed ~shards ~frames in
      check Alcotest.bool
        (Printf.sprintf "shards=%d = single shard (seed %d)" shards seed)
        true (got = reference))
    [ 2; 3; 4 ]

let test_fat_tree_determinism () =
  let built = Builder.fat_tree ~k:4 () in
  List.iter (fun seed -> check_shard_counts_agree built.Builder.graph ~seed ~frames:6) [ 1; 2; 5 ]

let jellyfish_determinism_prop =
  QCheck.Test.make ~name:"sharded = single-heap on random jellyfish" ~count:12
    QCheck.small_nat (fun seed ->
      let built =
        Builder.random_regular ~rng:(Rng.create (seed + 3)) ~switches:16 ~degree:4
          ~hosts_per_switch:1 ()
      in
      let g = built.Builder.graph in
      let reference = scenario_fingerprint g ~seed ~shards:1 ~frames:4 in
      List.for_all
        (fun shards -> scenario_fingerprint g ~seed ~shards ~frames:4 = reference)
        [ 2; 4 ])

let test_pooled_run_matches () =
  (* Domains actually running the windows change nothing. *)
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let reference = scenario_fingerprint g ~seed:9 ~shards:1 ~frames:6 in
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun shards ->
          let got = scenario_fingerprint ~pool g ~seed:9 ~shards ~frames:6 in
          check Alcotest.bool
            (Printf.sprintf "pooled shards=%d = single shard" shards)
            true (got = reference))
        [ 2; 4 ])

(* --- zero-allocation contract --- *)

(* Every host bursts frames along one source route, injected before the
   counter is read, so only the steady-state drain is on the meter: the
   frame pool and the wheel recycle their slots, and one word per hop
   of slack covers their doublings. *)
let test_hop_loop_allocation_free () =
  let built = Builder.fat_tree ~k:4 () in
  let g = built.Builder.graph in
  let hosts = Array.of_list built.Builder.hosts in
  let n = Array.length hosts in
  let sim = Sharded.create ~shards:1 ~graph:g () in
  Array.iteri
    (fun i src ->
      let dst = hosts.((i + (n / 2)) mod n) in
      match Routing.host_route g ~src ~dst with
      | Some p ->
        for _ = 1 to 20 do
          Sharded.inject sim ~at_ns:0 ~src ~dst ~tags:(Path.tags p) ~int_enabled:true ()
        done
      | None -> Alcotest.fail "no route")
    hosts;
  let w0 = Gc.minor_words () in
  Sharded.run sim;
  let w1 = Gc.minor_words () in
  let hops = Sharded.hops sim in
  check Alcotest.bool "traffic flowed" true (hops > 0);
  let per_hop = (w1 -. w0) /. float_of_int hops in
  check Alcotest.bool (Printf.sprintf "minor words per hop %.3f <= 1.0" per_hop) true (per_hop <= 1.0)

let () =
  Alcotest.run "sharded"
    [
      ( "partition",
        [
          Alcotest.test_case "covers and balances" `Quick test_partition_covers_and_balances;
          Alcotest.test_case "cut is exact" `Quick test_partition_cut_is_exact;
          Alcotest.test_case "trivial and clamped" `Quick test_partition_trivial_and_clamped;
          Alcotest.test_case "recovers pods at k=16" `Quick test_partition_recovers_pods_k16;
          Alcotest.test_case "jellyfish-256" `Quick test_partition_jellyfish_256;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
        ] );
      ( "frame pool",
        [
          Alcotest.test_case "byte size matches Frame" `Quick test_pool_byte_size_matches_frame;
          Alcotest.test_case "reuse carries nothing" `Quick test_pool_reuse_carries_nothing;
          Alcotest.test_case "export/import roundtrip" `Quick test_pool_export_import_roundtrip;
          Alcotest.test_case "growth" `Quick test_pool_growth;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single frame = classic" `Quick test_single_frame_matches_classic;
          Alcotest.test_case "mid-run failure" `Quick test_mid_run_failure_drops;
          Alcotest.test_case "hop loop allocation-free" `Quick test_hop_loop_allocation_free;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fat-tree k=4 all shard counts" `Quick test_fat_tree_determinism;
          QCheck_alcotest.to_alcotest jellyfish_determinism_prop;
          Alcotest.test_case "pooled = sequential" `Quick test_pooled_run_matches;
        ] );
    ]
