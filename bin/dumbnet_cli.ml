(* The dumbnet command-line tool: build topologies, run discovery,
   simulate traffic with failures, and launch the evaluation harness —
   the operator-facing face of the library. *)

open Cmdliner
open Dumbnet.Topology
module Fabric = Dumbnet.Fabric
module Agent = Dumbnet.Host.Agent
module Discovery = Dumbnet.Control.Discovery

(* --- shared topology argument --- *)

let build_topology spec seed =
  match String.split_on_char ':' spec with
  | [ "figure1" ] -> Ok (Builder.figure1 ())
  | [ "testbed" ] -> Ok (Builder.testbed ())
  | [ "leaf-spine"; s; l; h ] -> (
    match (int_of_string_opt s, int_of_string_opt l, int_of_string_opt h) with
    | Some spines, Some leaves, Some hosts_per_leaf ->
      Ok (Builder.leaf_spine ~spines ~leaves ~hosts_per_leaf ())
    | _ -> Error "leaf-spine wants three integers: spines:leaves:hosts")
  | [ "fat-tree"; k ] -> (
    match int_of_string_opt k with
    | Some k -> Ok (Builder.fat_tree ~k ())
    | None -> Error "fat-tree wants an integer k")
  | [ "cube"; n ] -> (
    match int_of_string_opt n with
    | Some n -> Ok (Builder.cube ~n ~controller_at:`Corner ())
    | None -> Error "cube wants an integer edge length")
  | [ "random"; sw; d ] -> (
    match (int_of_string_opt sw, int_of_string_opt d) with
    | Some switches, Some degree ->
      Ok
        (Builder.random_regular
           ~rng:(Dumbnet.Util.Rng.create seed)
           ~switches ~degree ~hosts_per_switch:1 ())
    | _ -> Error "random wants switches:degree")
  | [ "jellyfish"; sw ] -> (
    match int_of_string_opt sw with
    | Some switches -> Ok (Builder.jellyfish ~switches ())
    | None -> Error "jellyfish wants an integer switch count")
  | [ "linear"; n ] -> (
    match int_of_string_opt n with
    | Some n -> Ok (Builder.linear ~n ())
    | None -> Error "linear wants an integer length")
  | [ "star"; l ] -> (
    match int_of_string_opt l with
    | Some leaves -> Ok (Builder.star ~leaves ())
    | None -> Error "star wants an integer leaf count")
  | _ ->
    Error
      "unknown topology; try figure1, testbed, leaf-spine:S:L:H, fat-tree:K, cube:N, \
       random:N:D, jellyfish:N, linear:N, star:L"

let topo_conv =
  let parse s = Ok s in
  Arg.conv ((fun s -> parse s), fun ppf s -> Format.pp_print_string ppf s)

let topo_arg =
  let doc =
    "Topology: figure1 | testbed | leaf-spine:S:L:H | fat-tree:K | cube:N | random:N:D | \
     jellyfish:N | linear:N."
  in
  Arg.(value & opt topo_conv "testbed" & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")

let jobs_arg =
  let doc =
    "Controller path-graph parallelism: bootstrap and failure re-pushes batch their \
     queries over N domains (answers are identical whatever N). Defaults to \
     \\$(b,DUMBNET_JOBS) or the machine's core count; 1 never spawns a domain."
  in
  Arg.(
    value
    & opt int (Dumbnet.Util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log control-plane events to stderr.")

let apply_verbosity v =
  if v then Dumbnet.Util.Logging.setup ~level:Logs.Debug ()

let with_topology spec seed f =
  match build_topology spec seed with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok built -> f built

(* --- topo subcommand --- *)

let topo_run spec seed =
  with_topology spec seed (fun built ->
      let g = built.Builder.graph in
      Printf.printf "switches: %d\nhosts:    %d\nlinks:    %d\ncontroller: H%d\n"
        (Graph.num_switches g) (Graph.num_hosts g)
        (List.length (Graph.switch_links g))
        built.Builder.controller;
      Format.printf "%a@." Graph.pp g;
      0)

let topo_cmd =
  Cmd.v
    (Cmd.info "topo" ~doc:"Build a topology and print its structure.")
    Term.(const topo_run $ topo_arg $ seed_arg)

(* --- discover subcommand --- *)

let discover_run spec seed packet_level =
  with_topology spec seed (fun built ->
      let t0 = Unix.gettimeofday () in
      let fab = Fabric.create ~seed ~packet_level_discovery:packet_level built in
      let d = Fabric.discovery fab in
      let s = d.Discovery.stats in
      Printf.printf
        "probes sent:    %d\nverifications:  %d\nswitches found: %d\nlinks found:    %d\n\
         hosts found:    %d\nexact match:    %b\nmodelled time:  %.2f s\nwall time:      %.2f s\n"
        s.Discovery.probes_sent s.Discovery.verifications s.Discovery.switches_found
        s.Discovery.links_found s.Discovery.hosts_found
        (Graph.equal d.Discovery.topology built.Builder.graph)
        (float_of_int (Discovery.time_ns s) /. 1e9)
        (Unix.gettimeofday () -. t0);
      0)

let packet_level_arg =
  Arg.(
    value & flag
    & info [ "packet-level" ]
        ~doc:"Send real probe frames through the simulator instead of the fast oracle.")

let discover_cmd =
  Cmd.v
    (Cmd.info "discover" ~doc:"Run host-driven topology discovery and report statistics.")
    Term.(const discover_run $ topo_arg $ seed_arg $ packet_level_arg)

(* --- simulate subcommand --- *)

let simulate_run spec seed jobs duration_ms fail_after_ms verbose =
  apply_verbosity verbose;
  with_topology spec seed (fun built ->
      let fab = Fabric.create ~seed ~jobs built in
      let hosts = Array.of_list built.Builder.hosts in
      let rng = Dumbnet.Util.Rng.create (seed + 1) in
      let eng = Fabric.engine fab in
      let t0 = Fabric.now_ns fab in
      (* Random pairwise chatter for the whole window. *)
      let rec chatter () =
        let src = Dumbnet.Util.Rng.pick_array rng hosts in
        let dst = Dumbnet.Util.Rng.pick_array rng hosts in
        if src <> dst then
          ignore (Fabric.send fab ~src ~dst ~flow:(Dumbnet.Util.Rng.int rng 64) ~size:1450 ());
        if Fabric.now_ns fab < t0 + (duration_ms * 1_000_000) then
          Dumbnet.Sim.Engine.schedule eng ~delay_ns:50_000 chatter
      in
      Dumbnet.Sim.Engine.schedule eng ~delay_ns:0 chatter;
      (match fail_after_ms with
      | Some ms ->
        Dumbnet.Sim.Engine.schedule_at eng ~at_ns:(t0 + (ms * 1_000_000)) (fun () ->
            let links =
              List.filter snd (Graph.switch_links (Dumbnet.Sim.Network.graph (Fabric.network fab)))
            in
            match links with
            | [] -> ()
            | _ ->
              let key, _ = List.nth links (Dumbnet.Util.Rng.int rng (List.length links)) in
              let a, b = Types.Link_key.ends key in
              Format.printf ">>> failing %a<->%a at %d ms@." Types.pp_link_end a
                Types.pp_link_end b ms;
              Fabric.fail_link fab a)
      | None -> ());
      Fabric.run fab;
      let sent, received, queries, floods =
        Array.fold_left
          (fun (s, r, q, f) h ->
            let st = Agent.stats (Fabric.agent fab h) in
            ( s + st.Agent.data_sent,
              r + st.Agent.data_received,
              q + st.Agent.queries_sent,
              f + st.Agent.floods_sent ))
          (0, 0, 0, 0) hosts
      in
      let net = Dumbnet.Sim.Network.stats (Fabric.network fab) in
      Printf.printf
        "data sent:      %d\ndata delivered: %d\npath queries:   %d\nhost floods:    %d\n\
         queue drops:    %d\nswitch hops:    %d\n"
        sent received queries floods net.Dumbnet.Sim.Network.queue_drops
        net.Dumbnet.Sim.Network.switch_hops;
      print_endline "hottest egress ports (stateless per-port counters):";
      List.iter
        (fun ((le : Types.link_end), bytes) ->
          Printf.printf "  S%d port %d: %d bytes\n" le.sw le.port bytes)
        (Dumbnet.Sim.Network.busiest_ports (Fabric.network fab) ~top:3);
      0)

let duration_arg =
  Arg.(value & opt int 50 & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Simulated milliseconds.")

let fail_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fail-after" ] ~docv:"MS" ~doc:"Cut a random fabric link after MS milliseconds.")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Drive random traffic over a fabric, optionally with a failure.")
    Term.(
      const simulate_run $ topo_arg $ seed_arg $ jobs_arg $ duration_arg $ fail_arg
      $ verbose_arg)

(* --- hops subcommand --- *)

module Perf = Dumbnet_experiments.Perf

(* Every host bursts [frames] frames along one random source route; the
   drain is the one `bench perf`'s net_drain rows time. The digest pins
   the delivery order: each delivery's host, time and wire bytes, hashed
   after the timed drain. *)
let hops_run spec seed frames =
  with_topology spec seed (fun built ->
      let routes = Perf.sim_routes ~seed:(seed + 1) built in
      let delivered = ref [] in
      let on_deliver ~now h frame = delivered := (now, h, frame) :: !delivered in
      let eng, net, dt, _ = Perf.net_drain ~on_deliver built routes ~frames_per_host:frames in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (now, h, frame) ->
          Printf.bprintf buf "%d@%d:" h now;
          Buffer.add_bytes buf (Dumbnet.Packet.Frame.to_bytes frame))
        (List.rev !delivered);
      let st = Dumbnet.Sim.Network.stats net in
      Printf.printf
        "host tx:        %d\nhost rx:        %d\nswitch hops:    %d\n\
         queue drops:    %d\ndataplane drops:%d\nnic drops:      %d\nbytes delivered:%d\n\
         events:         %d\ndelivery digest:%s\nwall time:      %.3f s\nhops/sec:       %.0f\n"
        st.Dumbnet.Sim.Network.host_tx st.host_rx st.switch_hops st.queue_drops
        st.dataplane_drops st.nic_drops st.bytes_delivered
        (Dumbnet.Sim.Engine.events_processed eng)
        (String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16)
        dt
        (float_of_int st.switch_hops /. dt);
      0)

let frames_arg =
  Arg.(
    value & opt int 20
    & info [ "frames" ] ~docv:"N" ~doc:"Data frames injected per host (default 20).")

let hops_cmd =
  Cmd.v
    (Cmd.info "hops"
       ~doc:
         "Blast source-routed frames through the packet simulator and report its \
          counters, events and hop throughput.")
    Term.(const hops_run $ topo_arg $ seed_arg $ frames_arg)

(* --- repair subcommand --- *)

let repair_run spec seed jobs events coalesce_us verbose =
  apply_verbosity verbose;
  with_topology spec seed (fun built ->
      let coalesce_ns = Option.map (fun us -> us * 1_000) coalesce_us in
      let fab = Fabric.create ~seed ~jobs ?coalesce_ns built in
      let ctrl = Fabric.controller fab in
      let g = Dumbnet.Sim.Network.graph (Fabric.network fab) in
      let links = Array.of_list (List.map fst (Graph.switch_links g)) in
      if Array.length links = 0 then begin
        Printf.eprintf "error: topology has no switch-to-switch cables to fail\n";
        1
      end
      else begin
        let rng = Dumbnet.Util.Rng.create (seed + 1) in
        for i = 1 to events do
          let key = links.(Dumbnet.Util.Rng.int rng (Array.length links)) in
          let a, b = Types.Link_key.ends key in
          Format.printf "event %d: fail %a<->%a@." i Types.pp_link_end a Types.pp_link_end b;
          Fabric.fail_link fab a;
          Fabric.run fab;
          (* Past the monitor's up-notice suppression window, then heal. *)
          Fabric.run ~for_ns:1_100_000_000 fab;
          Fabric.restore_link fab a;
          Fabric.run fab
        done;
        let r = Dumbnet.Control.Topo_store.repair_stats (Dumbnet.Host.Controller.store ctrl) in
        let p = Dumbnet.Host.Controller.repush_stats ctrl in
        Printf.printf
          "scoped repairs:    %d (%d full resets)\n\
           distance tables:   %d evicted, %d retained\n\
           patches sent:      %d\n\
           delta re-pushes:   %d rounds, %d path graphs re-sent\n\
           push ledger:       %d cached pairs\n"
          r.Dumbnet.Control.Topo_store.repair_events r.Dumbnet.Control.Topo_store.full_resets
          r.Dumbnet.Control.Topo_store.evicted_roots r.Dumbnet.Control.Topo_store.retained_roots
          (Dumbnet.Host.Controller.patches_sent ctrl)
          p.Dumbnet.Host.Controller.repair_rounds p.Dumbnet.Host.Controller.repushed_pairs
          p.Dumbnet.Host.Controller.cached_pairs;
        0
      end)

let repair_events_arg =
  Arg.(
    value & opt int 5
    & info [ "n"; "events" ] ~docv:"N" ~doc:"Fail/restore cycles to drive through the fabric.")

let coalesce_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "coalesce" ] ~docv:"US"
        ~doc:
          "Burst-coalescing window in microseconds: events landing inside it leave as one \
           combined patch and one delta re-push (default: patch immediately).")

let repair_cmd =
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Inject cable failures and report the controller's incremental repair statistics \
          (scoped cache eviction, delta re-pushes).")
    Term.(
      const repair_run $ topo_arg $ seed_arg $ jobs_arg $ repair_events_arg $ coalesce_arg
      $ verbose_arg)

(* --- telemetry subcommand --- *)

let telemetry_run spec seed jobs duration_ms verbose =
  apply_verbosity verbose;
  with_topology spec seed (fun built ->
      let fab = Fabric.create ~seed ~jobs built in
      let eng = Fabric.engine fab in
      let ctrl = built.Builder.controller in
      let hosts = built.Builder.hosts in
      let observer =
        match List.filter (fun h -> h <> ctrl) hosts with
        | h :: _ -> h
        | [] -> ctrl
      in
      let agent = Fabric.agent fab observer in
      (* Warm the path caches so the prober has loops to walk. *)
      List.iter
        (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst))
        hosts;
      Fabric.run fab;
      let ep =
        Dumbnet.Telemetry.Endpoint.attach ~probe_interval_ns:50_000 ~engine:eng ~agent ()
      in
      Fabric.run ~for_ns:(duration_ms * 1_000_000) fab;
      let collector = Dumbnet.Telemetry.Endpoint.collector ep in
      let prober = Dumbnet.Telemetry.Endpoint.prober ep in
      (* Stop probing, then drain the last round trips (~1 ms of host
         stack each way) so un-returned means lost, not cut off. *)
      Dumbnet.Telemetry.Prober.stop prober;
      Fabric.run fab;
      let net_stats = Dumbnet.Sim.Network.stats (Fabric.network fab) in
      Printf.printf
        "observer H%d: %d loop probes sent, %d returned, %d lost\n\
         fabric: %d stamps appended, %d queue drops, %d dataplane drops\n\
         per-link estimates (egress = switch:port):\n"
        observer
        (Dumbnet.Telemetry.Prober.sent prober)
        (Dumbnet.Telemetry.Prober.returned prober)
        (Dumbnet.Telemetry.Prober.lost prober)
        net_stats.Dumbnet.Sim.Network.int_stamped net_stats.Dumbnet.Sim.Network.queue_drops
        net_stats.Dumbnet.Sim.Network.dataplane_drops;
      let links =
        List.sort
          (fun ((a : Types.link_end), _) (b, _) -> compare (a.sw, a.port) (b.sw, b.port))
          (Dumbnet.Telemetry.Collector.known_links collector)
      in
      List.iter
        (fun ((le : Types.link_end), (s : Dumbnet.Telemetry.Collector.snapshot)) ->
          Printf.printf "  S%-3d p%-3d queue %8.0f B  latency %8.2f us  samples %d/%d  losses %d\n"
            le.sw le.port s.Dumbnet.Telemetry.Collector.queue_bytes
            (s.Dumbnet.Telemetry.Collector.latency_ns /. 1e3)
            s.Dumbnet.Telemetry.Collector.queue_samples
            s.Dumbnet.Telemetry.Collector.latency_samples
            s.Dumbnet.Telemetry.Collector.losses)
        links;
      let hop_latencies_us =
        List.filter_map
          (fun (_, (s : Dumbnet.Telemetry.Collector.snapshot)) ->
            if s.Dumbnet.Telemetry.Collector.latency_samples > 0 then
              Some (s.Dumbnet.Telemetry.Collector.latency_ns /. 1e3)
            else None)
          links
      in
      (match hop_latencies_us with
      | [] -> print_endline "no per-hop latency samples collected"
      | samples ->
        Format.printf "per-hop latency across links (us): %a@."
          Dumbnet.Util.Stats.pp_summary
          (Dumbnet.Util.Stats.summarize samples));
      0)

let telemetry_duration_arg =
  Arg.(
    value & opt int 20
    & info [ "d"; "duration" ] ~docv:"MS" ~doc:"Simulated milliseconds of probing.")

let telemetry_cmd =
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run loop probes from one host and dump its collector's per-link fabric model.")
    Term.(
      const telemetry_run $ topo_arg $ seed_arg $ jobs_arg $ telemetry_duration_arg
      $ verbose_arg)

(* --- diagnose subcommand --- *)

(* Inject a fault the control plane cannot see (no port transition, no
   notice, no alarm), then let the diagnosis engine localize it from
   probe-program outcomes alone. Exit 0 iff the verdict names exactly
   the faulted cable. *)
let diagnose_run spec seed fault_kind verbose =
  apply_verbosity verbose;
  with_topology spec seed (fun built ->
      let module Network = Dumbnet.Sim.Network in
      let module Topocache = Dumbnet.Host.Topocache in
      let module Prober = Dumbnet.Telemetry.Prober in
      let module Localizer = Dumbnet.Diagnosis.Localizer in
      let fab = Fabric.create ~seed built in
      let hosts = built.Builder.hosts in
      let observer =
        match List.filter (fun h -> h <> built.Builder.controller) hosts with
        | h :: _ -> h
        | [] -> built.Builder.controller
      in
      let agent = Fabric.agent fab observer in
      (* Warm the observer's path caches before the fault lands, so
         diagnosis works from what a live host would actually hold. *)
      List.iter (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst)) hosts;
      Fabric.run fab;
      let engine = Fabric.engine fab in
      let net = Fabric.network fab in
      let g = Network.graph net in
      let rng = Dumbnet.Util.Rng.create (seed + 5) in
      let cache = Agent.topocache agent in
      (* A destination whose cached primary crosses at least one fabric
         cable, picked at random. *)
      let candidates =
        List.filter_map
          (fun dst ->
            if dst = observer then None
            else
              match Topocache.get cache ~dst with
              | None -> None
              | Some pg -> (
                let path = Pathgraph.primary pg in
                match Prober.path_legs ~adj:(Pathgraph.adjacency pg) path with
                | Some (_ :: _ as legs) -> Some (dst, legs)
                | Some [] | None -> None))
          hosts
      in
      match candidates with
      | [] ->
        Printf.eprintf "error: no cached multi-hop path to diagnose on this topology\n";
        1
      | _ :: _ -> (
        let dst, legs = List.nth candidates (Dumbnet.Util.Rng.int rng (List.length candidates)) in
        let leg = List.nth legs (Dumbnet.Util.Rng.int rng (List.length legs)) in
        let target = Types.Link_key.make leg.Prober.leg_from leg.Prober.leg_to in
        let on_path (le : Types.link_end) =
          List.exists
            (fun (l : Prober.leg) ->
              (l.Prober.leg_from.sw = le.sw && l.Prober.leg_from.port = le.port)
              || (l.Prober.leg_to.sw = le.sw && l.Prober.leg_to.port = le.port))
            legs
        in
        let injected =
          match fault_kind with
          | `Silent ->
            Network.set_cable_fault net leg.Prober.leg_from (Some Network.Silent_drop);
            Some "silent drop"
          | `Corrupt ->
            Network.set_cable_fault net leg.Prober.leg_from
              (Some (Network.Corrupting { rate = 0.5; seed = seed + 11 }));
            Some "corrupting (rate 0.5)"
          | `Miswire -> (
            let partner =
              List.filter_map
                (fun (key, up) ->
                  if not up then None
                  else
                    let a, b = Types.Link_key.ends key in
                    if (not (on_path a)) && not (on_path b) then Some a else None)
                (Graph.switch_links g)
            in
            match partner with
            | [] -> None
            | _ :: _ ->
              let p = List.nth partner (Dumbnet.Util.Rng.int rng (List.length partner)) in
              Network.rewire_swap net leg.Prober.leg_from p;
              Some "miswired cable pair")
        in
        match injected with
        | None ->
          Printf.eprintf "error: no off-path cable available to miswire against\n";
          1
        | Some desc ->
          let a, b = Types.Link_key.ends target in
          Format.printf "hidden fault: %s on %a<->%a (path H%d -> H%d, %d cables)@." desc
            Types.pp_link_end a Types.pp_link_end b observer dst (List.length legs);
          let ep =
            Dumbnet.Telemetry.Endpoint.attach ~probing:false ~watching:false ~engine ~agent ()
          in
          let loc =
            Localizer.create ~engine ~agent ~prober:(Dumbnet.Telemetry.Endpoint.prober ep) ()
          in
          let verdict = ref None in
          let launched = Localizer.diagnose loc ~dst ~on_done:(fun v -> verdict := Some v) in
          if not launched then begin
            Printf.eprintf "error: could not launch diagnosis\n";
            1
          end
          else begin
            Fabric.run ~for_ns:500_000_000 fab;
            match !verdict with
            | None ->
              print_endline "no verdict (probes still outstanding?)";
              1
            | Some v ->
              Format.printf "verdict: %a@." Localizer.pp_verdict v;
              let named =
                match v.Localizer.v_class with
                | Localizer.Silent_drop { near; far }
                | Localizer.Miswired { near; far; _ }
                | Localizer.Degraded { near; far; _ } ->
                  Some (Types.Link_key.make near far)
                | Localizer.Healthy | Localizer.Inconclusive -> None
              in
              (match named with
              | Some key when Types.Link_key.compare key target = 0 ->
                print_endline "localization: EXACT (verdict names the faulted cable)";
                0
              | Some key ->
                let a', b' = Types.Link_key.ends key in
                Format.printf "localization: WRONG cable (%a<->%a)@." Types.pp_link_end a'
                  Types.pp_link_end b';
                1
              | None ->
                print_endline "localization: MISSED (no cable named)";
                1)
          end))

let fault_arg =
  let kind_conv =
    Arg.enum [ ("silent", `Silent); ("miswire", `Miswire); ("corrupt", `Corrupt) ]
  in
  Arg.(
    value & opt kind_conv `Silent
    & info [ "fault" ] ~docv:"KIND"
        ~doc:"Hidden fault to inject: $(b,silent) (eats every frame), $(b,miswire) (swap two \
              cables' far ends), or $(b,corrupt) (drop half the frames).")

let diagnose_cmd =
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Inject a hidden forwarding-plane fault (no alarms anywhere) and localize it with \
          probe programs; exits 0 iff the verdict names exactly the faulted cable.")
    Term.(const diagnose_run $ topo_arg $ seed_arg $ fault_arg $ verbose_arg)

let () =
  let info =
    Cmd.info "dumbnet" ~version:"1.0.0"
      ~doc:"A stateless source-routed data center fabric (EuroSys'18 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            topo_cmd;
            discover_cmd;
            simulate_cmd;
            hops_cmd;
            repair_cmd;
            telemetry_cmd;
            diagnose_cmd;
          ]))
