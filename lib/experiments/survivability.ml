(** `bench survivability`: how much adversity the fabric absorbs before
    it stops being a network — and how fast the diagnosis engine finds
    the adversity it cannot see.

    Three failure schedules run on a k=8 fat tree and a 64-switch
    Jellyfish, cutting cables in cumulative waves until the host set
    partitions (or the wave budget runs out):

    - {e independent}: uniform random cable kills, the memoryless
      baseline;
    - {e correlated}: one random switch loses half its up cables per
      wave — the pod-local blast radius of a bad linecard or a yanked
      bundle;
    - {e flapping}: cables go down, up, down again inside the
      controller's coalescing window, the worst case for repair churn.

    After every wave the harness measures ground-truth reachable host
    pairs, the observer host's cached-path health (how many cached
    primaries still validate, and their stretch vs the surviving
    optimum), wall-clock repair latency, and the controller's delta
    re-push volume — the survivability curve of PR 5's incremental
    repair machinery.

    A separate trial section injects hidden single-cable faults (silent
    drops and miswirings the control plane cannot observe) and runs the
    {!Dumbnet.Diagnosis.Localizer} against each, reporting localization
    accuracy and probes-to-localization. Writes
    BENCH_SURVIVABILITY.json; with [quick] set, the run fails unless
    wave 1 keeps every host pair reachable on both topologies and every
    injected fault is localized to exactly its cable. *)

open Dumbnet_topology
module Fabric = Dumbnet.Fabric
module Agent = Dumbnet_host.Agent
module Pathtable = Dumbnet_host.Pathtable
module Controller = Dumbnet_host.Controller
module Network = Dumbnet_sim.Network
module Engine = Dumbnet_sim.Engine
module Endpoint = Dumbnet_telemetry.Endpoint
module Prober = Dumbnet_telemetry.Prober
module Localizer = Dumbnet_diagnosis.Localizer
module Rng = Dumbnet_util.Rng
module Table = Dumbnet_util.Table
module Stats = Dumbnet_util.Stats

let json_path = "BENCH_SURVIVABILITY.json"

type schedule =
  | Independent
  | Correlated
  | Flapping

let all_schedules = [ Independent; Correlated; Flapping ]

let schedule_name = function
  | Independent -> "independent"
  | Correlated -> "correlated"
  | Flapping -> "flapping"

type wave = {
  w_index : int;
  w_cut : int;  (** cables taken down by this wave *)
  w_cum_cut : int;
  w_reach_pct : float;  (** ground-truth reachable host pairs *)
  w_valid_paths_pct : float;  (** observer's cached primaries that still validate *)
  w_stretch_mean : float;  (** over valid cached primaries, vs surviving optimum *)
  w_stretch_p99 : float;
  w_repair_ms : float;  (** wall clock, wave injection -> quiescence *)
  w_repushed : int;  (** path graphs the controller delta re-pushed *)
}

type sched_result = {
  sr_topo : string;
  sr_sched : schedule;
  sr_waves : wave list;  (** in order *)
  sr_partitioned : bool;
}

(* --- ground-truth reachability ---------------------------------------- *)

(* Ground truth over the fabric's up cables: one BFS per connected
   component that holds a host, each host counted into the first
   component whose distance table reaches its switch. *)
let reachable_pct g hosts =
  let adj = Graph.adjacency g in
  let comps = ref [] in
  let located = ref 0 in
  List.iter
    (fun h ->
      match Graph.host_location g h with
      | None -> ()
      | Some (le : Types.link_end) -> (
        incr located;
        match List.find_opt (fun (d, _) -> Adjacency.distance d le.Types.sw >= 0) !comps with
        | Some (_, k) -> incr k
        | None -> comps := (Adjacency.bfs_distances adj ~from:le.Types.sw, ref 1) :: !comps))
    hosts;
  let pairs k = k * (k - 1) / 2 in
  let total = pairs !located in
  let intra = List.fold_left (fun acc (_, k) -> acc + pairs !k) 0 !comps in
  if total = 0 then 100. else 100. *. float_of_int intra /. float_of_int total

(* The observer's view after a wave: how many cached best paths still
   walk the surviving fabric, and how far they wander from the new
   optimum. Destinations the fabric itself can no longer reach are
   excluded from both (they are the reachability metric's business). *)
let observer_path_health g agent ~observer dsts =
  let pt = Agent.pathtable agent in
  let obs_sw =
    match Graph.host_location g observer with
    | Some (le : Types.link_end) -> le.Types.sw
    | None -> invalid_arg "observer not attached"
  in
  let dist = Adjacency.bfs_distances (Graph.adjacency g) ~from:obs_sw in
  let considered = ref 0 in
  let valid = ref 0 in
  let stretches = ref [] in
  List.iter
    (fun dst ->
      if dst <> observer then
        match Graph.host_location g dst with
        | None -> ()
        | Some (dle : Types.link_end) -> (
          match Adjacency.distance dist dle.Types.sw with
          | -1 -> () (* physically partitioned: not a caching failure *)
          | d ->
            incr considered;
            let optimal = d + 1 in
            (match Pathtable.paths_to pt ~dst with
            | p :: _ when Path.validate g p ->
              incr valid;
              stretches :=
                (float_of_int (Path.length p) /. float_of_int optimal) :: !stretches
            | _ :: _ | [] -> ())))
    dsts;
  let sorted = List.sort compare !stretches in
  let valid_pct =
    if !considered = 0 then 100. else 100. *. float_of_int !valid /. float_of_int !considered
  in
  (valid_pct, Stats.mean sorted, Bench_util.percentile (Array.of_list sorted) 0.99)

(* --- failure schedules ------------------------------------------------ *)

let up_cables g = List.filter_map (fun (key, up) -> if up then Some key else None) (Graph.switch_links g)

let pick_distinct rng n pool =
  let arr = Array.of_list pool in
  let len = Array.length arr in
  if len = 0 then []
  else begin
    let perm = Rng.permutation rng len in
    List.init (min n len) (fun i -> arr.(perm.(i)))
  end

(* One wave's worth of cable kills for the schedule; returns the cables
   taken (permanently) down. The flapping schedule additionally drives
   each cable through a down/up/down cycle inside the coalescing
   window before leaving it down. *)
let inject_wave fab rng sched ~per_wave =
  let g = Network.graph (Fabric.network fab) in
  let eng = Fabric.engine fab in
  let now = Fabric.now_ns fab in
  let fail victims =
    List.iter
      (fun key ->
        let le, _ = Types.Link_key.ends key in
        Fabric.fail_link fab le)
      victims;
    victims
  in
  match sched with
  | Independent -> fail (pick_distinct rng per_wave (up_cables g))
  | Correlated ->
    (* A switch-local blast: one random switch loses half its up
       fabric cables at once. *)
    let switches =
      List.filter (fun s -> List.length (Graph.switch_neighbors g s) >= 2) (Graph.switch_ids g)
    in
    (match switches with
    | [] -> []
    | _ :: _ ->
      let s = List.nth switches (Rng.int rng (List.length switches)) in
      let cables =
        List.map
          (fun (port, peer, peer_port) ->
            Types.Link_key.make { Types.sw = s; port } { Types.sw = peer; port = peer_port })
          (Graph.switch_neighbors g s)
      in
      fail (pick_distinct rng ((List.length cables + 1) / 2) cables))
  | Flapping ->
    let victims = pick_distinct rng per_wave (up_cables g) in
    List.iteri
      (fun i key ->
        let le, _ = Types.Link_key.ends key in
        let t0 = now + (i * 100_000) in
        Engine.schedule_at eng ~at_ns:t0 (fun () -> Fabric.fail_link fab le);
        Engine.schedule_at eng ~at_ns:(t0 + 2_000_000) (fun () -> Fabric.restore_link fab le);
        Engine.schedule_at eng ~at_ns:(t0 + 4_000_000) (fun () -> Fabric.fail_link fab le))
      victims;
    victims

let max_waves quick = if quick then 2 else 8

let cables_per_wave quick = if quick then 3 else 6

(* A fabric whose observer — the first host that is not the controller —
   has asked for, and cached, a path graph to every other host. *)
let warm_fabric ~seed ?coalesce_ns built =
  let fab = Fabric.create ~seed ?coalesce_ns built in
  let hosts = built.Builder.hosts in
  let observer =
    match List.filter (fun h -> h <> built.Builder.controller) hosts with
    | h :: _ -> h
    | [] -> built.Builder.controller
  in
  let agent = Fabric.agent fab observer in
  List.iter (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst)) hosts;
  Fabric.run fab;
  (fab, observer, agent)

let run_schedule ~topo_name built sched =
  let coalesce_ns =
    match sched with
    | Flapping -> Some 500_000
    | Independent | Correlated -> None
  in
  let fab, observer, agent = warm_fabric ~seed:29 ?coalesce_ns built in
  let hosts = built.Builder.hosts in
  let ctrl = Fabric.controller fab in
  let rng = Rng.create (1 + Hashtbl.hash (topo_name, schedule_name sched)) in
  let g = Network.graph (Fabric.network fab) in
  let waves = ref [] in
  let cum = ref 0 in
  let partitioned = ref false in
  let wave_no = ref 0 in
  while (not !partitioned) && !wave_no < max_waves !Bench_util.quick do
    incr wave_no;
    let r0 = Controller.repush_stats ctrl in
    let t0 = Unix.gettimeofday () in
    let victims = inject_wave fab rng sched ~per_wave:(cables_per_wave !Bench_util.quick) in
    Fabric.run fab;
    let repair_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let r1 = Controller.repush_stats ctrl in
    cum := !cum + List.length victims;
    let reach = reachable_pct g hosts in
    let valid_pct, s_mean, s_p99 = observer_path_health g agent ~observer hosts in
    if reach < 100. then partitioned := true;
    waves :=
      {
        w_index = !wave_no;
        w_cut = List.length victims;
        w_cum_cut = !cum;
        w_reach_pct = reach;
        w_valid_paths_pct = valid_pct;
        w_stretch_mean = s_mean;
        w_stretch_p99 = s_p99;
        w_repair_ms = repair_ms;
        w_repushed = r1.Controller.repushed_pairs - r0.Controller.repushed_pairs;
      }
      :: !waves
  done;
  { sr_topo = topo_name; sr_sched = sched; sr_waves = List.rev !waves; sr_partitioned = !partitioned }

(* --- hidden-fault localization trials --------------------------------- *)

type loc_result = {
  l_topo : string;
  l_trials : int;
  l_exact : int;  (** verdicts naming exactly the faulted cable *)
  l_silent : int;  (** silent-drop trials (the rest are miswirings) *)
  l_probes_mean : float;
  l_probes_p99 : float;
  l_batches_mean : float;
}

let off_path_partner g rng legs =
  let on_path (le : Types.link_end) =
    List.exists
      (fun (l : Prober.leg) ->
        (l.Prober.leg_from.Types.sw = le.Types.sw && l.Prober.leg_from.Types.port = le.Types.port)
        || (l.Prober.leg_to.Types.sw = le.Types.sw && l.Prober.leg_to.Types.port = le.Types.port))
      legs
  in
  let candidates =
    List.filter_map
      (fun (key, up) ->
        if not up then None
        else
          let a, b = Types.Link_key.ends key in
          if (not (on_path a)) && not (on_path b) then Some a else None)
      (Graph.switch_links g)
  in
  match candidates with
  | [] -> None
  | _ :: _ -> Some (List.nth candidates (Rng.int rng (List.length candidates)))

let localization_trials ~topo_name built ~trials =
  let fab, observer, agent = warm_fabric ~seed:41 built in
  let hosts = built.Builder.hosts in
  let engine = Fabric.engine fab in
  let net = Fabric.network fab in
  let g = Network.graph net in
  let ep = Endpoint.attach ~probing:false ~watching:false ~engine ~agent () in
  let prober = Endpoint.prober ep in
  (* demote:false keeps the fabric's caches pristine between trials —
     each trial sees the same healthy starting state. *)
  let loc = Localizer.create ~demote:false ~engine ~agent ~prober () in
  let rng = Rng.create 53 in
  let cache = Agent.topocache agent in
  let primary_legs dst =
    Option.bind (Dumbnet_host.Topocache.get cache ~dst) (fun pg ->
        Prober.path_legs ~adj:(Pathgraph.adjacency pg) (Pathgraph.primary pg))
  in
  let dsts =
    List.filter
      (fun d ->
        d <> observer
        &&
        match primary_legs d with
        | Some (_ :: _) -> true
        | Some [] | None -> false)
      hosts
  in
  let exact = ref 0 in
  let silent = ref 0 in
  let probes = ref [] in
  let batches = ref [] in
  let ran = ref 0 in
  for trial = 1 to trials do
    match dsts with
    | [] -> ()
    | _ :: _ ->
      let dst = List.nth dsts (Rng.int rng (List.length dsts)) in
      (match primary_legs dst with
      | None | Some [] -> ()
      | Some legs ->
        let leg = List.nth legs (Rng.int rng (List.length legs)) in
        let target = Types.Link_key.make leg.Prober.leg_from leg.Prober.leg_to in
        let want_miswire = trial mod 2 = 0 in
        let partner = if want_miswire then off_path_partner g rng legs else None in
        let undo =
          match partner with
          | Some p ->
            Network.rewire_swap net leg.Prober.leg_from p;
            fun () -> Network.rewire_swap net leg.Prober.leg_from p
          | None ->
            Network.set_cable_fault net leg.Prober.leg_from (Some Network.Silent_drop);
            incr silent;
            fun () -> Network.clear_faults net
        in
        incr ran;
        let got = ref None in
        let launched = Localizer.diagnose loc ~dst ~on_done:(fun v -> got := Some v) in
        if launched then Fabric.run ~for_ns:200_000_000 fab;
        undo ();
        (match !got with
        | None -> ()
        | Some v ->
          probes := float_of_int v.Localizer.v_probes :: !probes;
          batches := float_of_int v.Localizer.v_batches :: !batches;
          let named =
            match v.Localizer.v_class with
            | Localizer.Silent_drop { near; far } when partner = None ->
              Some (Types.Link_key.make near far)
            | Localizer.Miswired { near; far; _ } when partner <> None ->
              Some (Types.Link_key.make near far)
            | Localizer.Silent_drop _ | Localizer.Miswired _ | Localizer.Healthy
            | Localizer.Degraded _ | Localizer.Inconclusive ->
              None
          in
          (match named with
          | Some key when Types.Link_key.compare key target = 0 -> incr exact
          | Some _ | None -> ())))
  done;
  {
    l_topo = topo_name;
    l_trials = !ran;
    l_exact = !exact;
    l_silent = !silent;
    l_probes_mean = Stats.mean !probes;
    l_probes_p99 = Bench_util.percentile (Array.of_list (List.sort compare !probes)) 0.99;
    l_batches_mean = Stats.mean !batches;
  }

(* --- the report ------------------------------------------------------- *)

type results = {
  quick : bool;
  schedules : sched_result list;  (** per topology, per schedule *)
  locs : loc_result list;  (** per topology *)
}

let accuracy_pct l =
  if l.l_trials = 0 then 0. else 100. *. float_of_int l.l_exact /. float_of_int l.l_trials

let json r =
  let open Bench_util in
  let wave w =
    Obj
      [ ("wave", Int w.w_index); ("cut", Int w.w_cut); ("cum_cut", Int w.w_cum_cut);
        ("reach_pct", Float (2, w.w_reach_pct));
        ("valid_paths_pct", Float (2, w.w_valid_paths_pct));
        ("stretch_mean", Float (3, w.w_stretch_mean)); ("stretch_p99", Float (3, w.w_stretch_p99));
        ("repair_ms", Float (2, w.w_repair_ms)); ("repushed_pairs", Int w.w_repushed) ]
  in
  let schedule sr =
    Obj
      [ ("topology", String sr.sr_topo); ("schedule", String (schedule_name sr.sr_sched));
        ("partitioned", Bool sr.sr_partitioned); ("waves", List (List.map wave sr.sr_waves)) ]
  in
  let localization l =
    Obj
      [ ("topology", String l.l_topo); ("trials", Int l.l_trials); ("exact", Int l.l_exact);
        ("accuracy_pct", Float (1, accuracy_pct l)); ("silent_drop_trials", Int l.l_silent);
        ("miswire_trials", Int (l.l_trials - l.l_silent));
        ("probes_mean", Float (1, l.l_probes_mean)); ("probes_p99", Float (1, l.l_probes_p99));
        ("batches_mean", Float (2, l.l_batches_mean)) ]
  in
  Obj
    [
      ( "meta",
        Obj
          [ ("quick", Bool r.quick); ("max_waves", Int (max_waves r.quick));
            ("cables_per_wave", Int (cables_per_wave r.quick));
            ("schedules", List (List.map (fun s -> String (schedule_name s)) all_schedules));
            ("topologies", List [ String "fat_tree_k8"; String "jellyfish_64" ]) ] );
      ("survivability", List (List.map schedule r.schedules));
      ("localization", List (List.map localization r.locs));
    ]

let waves_table r =
  Table.of_rows
    [ "topology"; "schedule"; "wave"; "cables down"; "reachable"; "valid paths";
      "stretch (mean/p99)"; "repair"; "re-pushed" ]
    (List.concat_map
       (fun sr ->
         List.map
           (fun w ->
             [ sr.sr_topo; schedule_name sr.sr_sched; string_of_int w.w_index;
               string_of_int w.w_cum_cut; Report.pct w.w_reach_pct; Report.pct w.w_valid_paths_pct;
               Printf.sprintf "%.2f/%.2f" w.w_stretch_mean w.w_stretch_p99;
               Report.ms w.w_repair_ms; string_of_int w.w_repushed ])
           sr.sr_waves)
       r.schedules)

let localization_table r =
  Table.of_rows
    [ "topology"; "trials"; "exact"; "accuracy"; "probes (mean/p99)"; "batches" ]
    (List.map
       (fun l ->
         [ l.l_topo; string_of_int l.l_trials; string_of_int l.l_exact;
           (if l.l_trials = 0 then "-" else Report.pct (accuracy_pct l));
           Printf.sprintf "%.1f/%.0f" l.l_probes_mean l.l_probes_p99;
           Printf.sprintf "%.2f" l.l_batches_mean ])
       r.locs)

let gates r =
  List.filter_map
    (fun sr ->
      match sr.sr_waves with
      | w :: _ when w.w_reach_pct >= 100. -> None
      | _ :: _ | [] ->
        Some
          (Printf.sprintf "%s/%s loses reachability in wave 1" sr.sr_topo
             (schedule_name sr.sr_sched)))
    r.schedules
  @ List.filter_map
      (fun l ->
        if l.l_trials > 0 && l.l_exact >= l.l_trials then None
        else
          Some
            (Printf.sprintf "localization on %s at %d/%d exact (expected 100%%)" l.l_topo
               l.l_exact l.l_trials))
      r.locs

let run () =
  Report.section ~id:"Survivability"
    ~title:"failure waves, repair, and hidden-fault localization (BENCH_SURVIVABILITY.json)";
  let ft8 = Builder.fat_tree ~k:8 () in
  let jelly =
    Builder.random_regular ~rng:(Rng.create 23) ~switches:64 ~degree:6 ~hosts_per_switch:1 ()
  in
  let topos = [ ("fat_tree_k8", ft8); ("jellyfish_64", jelly) ] in
  let schedules =
    List.concat_map
      (fun (name, built) ->
        List.map (fun sched -> run_schedule ~topo_name:name built sched) all_schedules)
      topos
  in
  let trials = if !Bench_util.quick then 6 else 16 in
  let locs =
    List.map (fun (name, built) -> localization_trials ~topo_name:name built ~trials) topos
  in
  let r = { quick = !Bench_util.quick; schedules; locs } in
  Table.print (waves_table r);
  Table.print (localization_table r);
  Bench_util.write_reports [ (json_path, Bench_util.json_to_string (json r)) ];
  Bench_util.enforce ~prefix:"SURVIVABILITY REGRESSION" (gates r)
