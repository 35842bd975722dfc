(* Tests for the adversity suite: the probe-program codec and its
   frame region, the switch-side per-hop interpreter, the suspect-set
   accounting, and end-to-end localization of hidden forwarding-plane
   faults (silent drops, miswired cables) on fat-tree and jellyfish
   fabrics — including the gray-failure hand-off from the health
   monitor to the diagnosis engine. *)

open Dumbnet.Packet
open Dumbnet.Topology
open Dumbnet.Topology.Types
module Dataplane = Dumbnet.Switch.Dataplane
module Network = Dumbnet.Sim.Network
module Fabric = Dumbnet.Fabric
module Agent = Dumbnet.Host.Agent
module Topocache = Dumbnet.Host.Topocache
module Endpoint = Dumbnet.Telemetry.Endpoint
module Prober = Dumbnet.Telemetry.Prober
module Health = Dumbnet.Telemetry.Health
module Localizer = Dumbnet.Diagnosis.Localizer
module Suspects = Dumbnet.Diagnosis.Suspects
module Rng = Dumbnet.Util.Rng

let check = Alcotest.check

(* --- probe-program codec --- *)

let rich_prog () =
  Probe_prog.of_instrs
    [
      Probe_prog.stamp_all;
      {
        Probe_prog.pred =
          { Probe_prog.m_switch = Some 9; m_port = Some 3; min_queue = 4096; after_hops = 2 };
        op = Probe_prog.Stamp;
      };
      Probe_prog.mirror ~pred:(Probe_prog.at_hop 3) [ 4; 7; 1 ];
      Probe_prog.bounce [ 254 ];
      Probe_prog.bounce ~pred:{ Probe_prog.any with Probe_prog.min_queue = 1 } [];
    ]

let roundtrip prog =
  let w = Wire.Writer.create () in
  Probe_prog.write w prog;
  let b = Wire.Writer.contents w in
  check Alcotest.int "wire_size exact" (Probe_prog.wire_size prog) (Bytes.length b);
  let r = Wire.Reader.of_bytes b in
  let prog' = Probe_prog.read r in
  Alcotest.(check bool) "roundtrip" true (Probe_prog.equal prog prog')

let test_prog_roundtrip () =
  roundtrip (rich_prog ());
  roundtrip (Probe_prog.of_instrs [ Probe_prog.stamp_all ]);
  roundtrip (Probe_prog.of_instrs [ Probe_prog.bounce ~pred:(Probe_prog.at_hop 256) [] ])

let test_prog_rejects_truncation () =
  let w = Wire.Writer.create () in
  Probe_prog.write w (rich_prog ());
  let b = Wire.Writer.contents w in
  for cut = 0 to Bytes.length b - 1 do
    match Probe_prog.read (Wire.Reader.of_bytes (Bytes.sub b 0 cut)) with
    | _ -> Alcotest.failf "accepted a %d-byte prefix of %d" cut (Bytes.length b)
    | exception Wire.Truncated -> ()
  done

let test_prog_rejects_unknown_opcode () =
  let w = Wire.Writer.create () in
  Probe_prog.write w (Probe_prog.of_instrs [ Probe_prog.stamp_all ]) ;
  let b = Wire.Writer.contents w in
  Bytes.set b 1 '\x7f';
  (* count byte, then the first instruction's opcode *)
  Alcotest.(check bool) "unknown opcode rejected" true
    (try
       ignore (Probe_prog.read (Wire.Reader.of_bytes b));
       false
     with Wire.Truncated -> true)

let test_prog_constructor_limits () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty program" true (raises (fun () -> Probe_prog.of_instrs []));
  Alcotest.(check bool) "oversize program" true
    (raises (fun () ->
         Probe_prog.of_instrs
           (List.init (Probe_prog.max_instrs + 1) (fun _ -> Probe_prog.stamp_all))));
  Alcotest.(check bool) "oversize continuation" true
    (raises (fun () ->
         Probe_prog.bounce (List.init (Probe_prog.max_cont_tags + 1) (fun _ -> 1))));
  Alcotest.(check bool) "port 0 in continuation" true
    (raises (fun () -> Probe_prog.mirror [ 0 ]));
  Alcotest.(check bool) "at_hop 0" true (raises (fun () -> Probe_prog.at_hop 0))

(* --- frame region --- *)

let data_payload = Payload.Data { flow = 0; seq = 0; size = 100; sent_ns = 0 }

let prog_frame () =
  Frame.along_path ~src:1 ~dst:2 ~tags_of:[ 2; 5; 3 ] ~payload:data_payload
  |> Frame.with_int
  |> Frame.add_stamp { Int_stamp.switch = 4; port = 2; queue_depth = 100; timestamp_ns = 50 }
  |> Frame.with_prog (rich_prog ())

let test_frame_prog_roundtrip () =
  let f = prog_frame () in
  let f' = Frame.of_bytes (Frame.to_bytes f) in
  Alcotest.(check bool) "frame with program round-trips" true (Frame.equal f f');
  (match f'.Frame.prog with
  | Some p -> Alcotest.(check bool) "program intact" true (Probe_prog.equal p (rich_prog ()))
  | None -> Alcotest.fail "program region lost");
  let stripped = Frame.strip_prog f in
  Alcotest.(check bool) "strip removes the region" true
    (match (Frame.of_bytes (Frame.to_bytes stripped)).Frame.prog with
    | None -> true
    | Some _ -> false)

(* Bit-flip fuzz over the serialized frame: every single-byte
   corruption must either parse into some frame or raise [Truncated] —
   never any other exception, never a crash. *)
let test_frame_prog_corruption () =
  let b0 = Frame.to_bytes (prog_frame ()) in
  for i = 0 to Bytes.length b0 - 1 do
    let b = Bytes.copy b0 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5));
    match Frame.of_bytes b with
    | _ -> ()
    | exception Wire.Truncated -> ()
  done

(* --- the per-hop interpreter --- *)

let all_up _ = true

let observe ?(queue = 0) () p =
  { Int_stamp.switch = 7; port = p; queue_depth = queue; timestamp_ns = 42 }

let handle ?(num_ports = 8) ?(port_up = all_up) ?stamp ?(in_port = 2) frame =
  Dataplane.handle ~self:7 ~num_ports ~port_up ?stamp ~in_port frame

let tagged ?(tags = [ 3; 5 ]) prog =
  Frame.along_path ~src:0 ~dst:1 ~tags_of:tags ~payload:data_payload
  |> Frame.with_int
  |> Frame.with_prog prog

let test_conditional_stamp () =
  let prog =
    Probe_prog.of_instrs
      [ { Probe_prog.pred = { Probe_prog.any with Probe_prog.min_queue = 1000 }; op = Probe_prog.Stamp } ]
  in
  (match handle ~stamp:(observe ~queue:500 ()) (tagged prog) with
  | Dataplane.Forward (3, f') ->
    check Alcotest.int "below threshold: no stamp" 0 (List.length (Frame.int_stamps f'))
  | _ -> Alcotest.fail "expected forward");
  match handle ~stamp:(observe ~queue:2000 ()) (tagged prog) with
  | Dataplane.Forward (3, f') ->
    check Alcotest.int "above threshold: stamped" 1 (List.length (Frame.int_stamps f'));
    (match (Frame.int_stamps f') with
    | [ s ] -> check Alcotest.int "stamp observes the egress" 3 s.Int_stamp.port
    | _ -> Alcotest.fail "one stamp");
    (* The program never takes over the frame's INT arming. *)
    Alcotest.(check bool) "program persists" true
      (match f'.Frame.prog with
      | Some _ -> true
      | None -> false)
  | _ -> Alcotest.fail "expected forward"

let test_bounce_exits_ingress () =
  let prog = Probe_prog.of_instrs [ Probe_prog.stamp_all; Probe_prog.bounce [ 6; 1 ] ] in
  match handle ~stamp:(observe ()) ~in_port:4 (tagged prog) with
  | Dataplane.Forward (p, f') ->
    check Alcotest.int "exits the ingress" 4 p;
    Alcotest.(check bool) "continuation installed" true
      (f'.Frame.tags = [ Tag.forward 6; Tag.forward 1; Tag.End_of_path ]);
    (match (Frame.int_stamps f') with
    | [ s ] -> check Alcotest.int "stamp observes the turnaround port" 4 s.Int_stamp.port
    | _ -> Alcotest.fail "expected exactly the bounce stamp");
    (match f'.Frame.prog with
    | Some [ { Probe_prog.op = Probe_prog.Stamp; _ } ] -> ()
    | Some _ -> Alcotest.fail "fired bounce must be consumed"
    | None -> Alcotest.fail "surviving stamp must persist")
  | _ -> Alcotest.fail "expected forward"

let test_bounce_works_on_dead_egress () =
  (* The popped egress is down; a tableless switch would drop — but the
     bounce turns the frame around on its ingress, which is exactly how
     a probe reports on a dead cable from its near side. *)
  let prog = Probe_prog.of_instrs [ Probe_prog.bounce [] ] in
  match handle ~port_up:(fun p -> p <> 3) ~in_port:5 (tagged prog) with
  | Dataplane.Forward (5, f') ->
    Alcotest.(check bool) "empty continuation is just ø" true (f'.Frame.tags = [ Tag.End_of_path ])
  | _ -> Alcotest.fail "expected forward out the ingress"

let test_mirror_copies_and_continues () =
  let prog = Probe_prog.of_instrs [ Probe_prog.mirror [ 6 ] ] in
  match handle ~in_port:2 (tagged prog) with
  | Dataplane.Forward_many [ (p1, original); (p2, copy) ] ->
    check Alcotest.int "original continues on its egress" 3 p1;
    check Alcotest.int "copy exits the ingress" 2 p2;
    Alcotest.(check bool) "original keeps its route" true
      (original.Frame.tags = [ Tag.forward 5; Tag.End_of_path ]);
    Alcotest.(check bool) "fired mirror consumed from original" true
      (match original.Frame.prog with
      | None -> true
      | Some _ -> false);
    Alcotest.(check bool) "copy carries the continuation, no program" true
      (copy.Frame.tags = [ Tag.forward 6; Tag.End_of_path ]
      &&
      match copy.Frame.prog with
      | None -> true
      | Some _ -> false)
  | _ -> Alcotest.fail "expected a forward pair"

let test_after_hops_counts_down () =
  let prog = Probe_prog.of_instrs [ Probe_prog.bounce ~pred:(Probe_prog.at_hop 2) [] ] in
  (* Hop 1: not yet eligible — the frame forwards normally and the
     countdown ticks inside the forwarded program. *)
  match handle ~in_port:2 (tagged prog) with
  | Dataplane.Forward (3, f') -> (
    (match f'.Frame.prog with
    | Some [ { Probe_prog.pred = { Probe_prog.after_hops = 0; _ }; _ } ] -> ()
    | Some _ | None -> Alcotest.fail "countdown must tick to 0");
    (* Hop 2: now it fires. *)
    match handle ~in_port:1 f' with
    | Dataplane.Forward (1, _) -> ()
    | _ -> Alcotest.fail "expected the bounce at hop 2")
  | _ -> Alcotest.fail "expected plain forward at hop 1"

(* --- suspect accounting --- *)

let test_suspects_ranking () =
  let k a b = Link_key.make { sw = a; port = 1 } { sw = b; port = 1 } in
  let s = Suspects.create () in
  (* cable 0-1 on every probe; 1-2 only on the failing ones *)
  Suspects.observe s ~covered:[ k 0 1 ] ~ok:true;
  Suspects.observe s ~covered:[ k 0 1; k 1 2 ] ~ok:false;
  Suspects.observe s ~covered:[ k 0 1; k 1 2 ] ~ok:false;
  check Alcotest.int "two cables observed" 2 (Suspects.observed s);
  (match Suspects.top s with
  | Some r ->
    Alcotest.(check bool) "the always-failing cable ranks first" true
      (Link_key.compare r.Suspects.r_key (k 1 2) = 0);
    check Alcotest.int "its failures" 2 r.Suspects.r_fails
  | None -> Alcotest.fail "expected a ranking");
  match Suspects.consistent_culprits s with
  | [ r ] ->
    Alcotest.(check bool) "only 1-2 failed every covering probe" true
      (Link_key.compare r.Suspects.r_key (k 1 2) = 0)
  | rs -> Alcotest.failf "expected one consistent culprit, got %d" (List.length rs)

(* --- end-to-end localization --- *)

let observer_of built =
  match List.filter (fun h -> h <> built.Builder.controller) built.Builder.hosts with
  | h :: _ -> h
  | [] -> built.Builder.controller

(* A warmed fabric with a localizer attached to one observer host.
   [demote:false] keeps every trial starting from the same clean
   caches. *)
let diag_rig built =
  let fab = Fabric.create ~seed:7 built in
  let observer = observer_of built in
  let agent = Fabric.agent fab observer in
  List.iter
    (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst))
    built.Builder.hosts;
  Fabric.run fab;
  let engine = Fabric.engine fab in
  let ep = Endpoint.attach ~probing:false ~watching:false ~engine ~agent () in
  let loc = Localizer.create ~demote:false ~engine ~agent ~prober:(Endpoint.prober ep) () in
  (fab, observer, agent, loc)

let legs_to cache dst =
  match Topocache.get cache ~dst with
  | None -> None
  | Some pg -> (
    let path = Pathgraph.primary pg in
    match Prober.path_legs ~adj:(Pathgraph.adjacency pg) path with
    | Some (_ :: _ as legs) -> Some legs
    | Some [] | None -> None)

let on_path legs (le : link_end) =
  List.exists
    (fun (l : Prober.leg) ->
      (l.Prober.leg_from.sw = le.sw && l.Prober.leg_from.port = le.port)
      || (l.Prober.leg_to.sw = le.sw && l.Prober.leg_to.port = le.port))
    legs

let off_path_partner g rng legs =
  let cs =
    List.filter_map
      (fun (key, up) ->
        if not up then None
        else
          let a, b = Link_key.ends key in
          if (not (on_path legs a)) && not (on_path legs b) then Some a else None)
      (Graph.switch_links g)
  in
  match cs with
  | [] -> None
  | _ :: _ -> Some (List.nth cs (Rng.int rng (List.length cs)))

(* One hidden-fault trial: inject, diagnose, undo; [true] iff the
   verdict names exactly the faulted cable with the right class, within
   [max_batches] batches. *)
let localize_once fab loc ~miswire rng dst legs =
  let net = Fabric.network fab in
  let g = Network.graph net in
  let leg = List.nth legs (Rng.int rng (List.length legs)) in
  let target = Link_key.make leg.Prober.leg_from leg.Prober.leg_to in
  let partner = if miswire then off_path_partner g rng legs else None in
  let undo =
    match partner with
    | Some p ->
      Network.rewire_swap net leg.Prober.leg_from p;
      fun () -> Network.rewire_swap net leg.Prober.leg_from p
    | None ->
      Network.set_cable_fault net leg.Prober.leg_from (Some Network.Silent_drop);
      fun () -> Network.clear_faults net
  in
  let got = ref None in
  let launched = Localizer.diagnose loc ~dst ~on_done:(fun v -> got := Some v) in
  if launched then Fabric.run ~for_ns:200_000_000 fab;
  undo ();
  match !got with
  | None -> false
  | Some v -> (
    v.Localizer.v_batches <= 3
    &&
    match (v.Localizer.v_class, partner) with
    | Localizer.Silent_drop { near; far }, None ->
      Link_key.compare (Link_key.make near far) target = 0
    | Localizer.Miswired { near; far; actual; actual_port }, Some _ ->
      Link_key.compare (Link_key.make near far) target = 0
      (* the landing point the stamp reads must be the partner's true
         far side — not the switch, or not the port, we expected *)
      && (actual <> leg.Prober.leg_to.sw || actual_port <> leg.Prober.leg_to.port)
    | (Localizer.Silent_drop _ | Localizer.Miswired _ | Localizer.Healthy
      | Localizer.Degraded _ | Localizer.Inconclusive), _ ->
      false)

let localization_prop name built =
  let rig = lazy (diag_rig built) in
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let fab, observer, agent, loc = Lazy.force rig in
      let rng = Rng.create (seed + 1) in
      let cache = Agent.topocache agent in
      let dsts =
        List.filter_map
          (fun d ->
            if d = observer then None
            else Option.map (fun legs -> (d, legs)) (legs_to cache d))
          built.Builder.hosts
      in
      match dsts with
      | [] -> QCheck.Test.fail_report "no multi-leg destinations cached"
      | _ :: _ ->
        let dst, legs = List.nth dsts (Rng.int rng (List.length dsts)) in
        let miswire = Rng.int rng 2 = 0 in
        localize_once fab loc ~miswire rng dst legs)

let fat_tree_prop = localization_prop "fat-tree k=4: hidden fault -> exact cable" (Builder.fat_tree ~k:4 ())

let jellyfish_prop =
  localization_prop "jellyfish-16: hidden fault -> exact cable"
    (Builder.random_regular ~rng:(Rng.create 5) ~switches:16 ~degree:5 ~hosts_per_switch:1 ())

(* Regression: a miswire whose partner cable lands on the target's far
   switch through another port. Every outbound stamp still names the
   expected switch; only the bounce stamp's ingress port gives the swap
   away. *)
let test_same_switch_miswire () =
  let built = Builder.fat_tree ~k:4 () in
  let fab, observer, agent, loc = diag_rig built in
  let net = Fabric.network fab in
  let g = Network.graph net in
  let cache = Agent.topocache agent in
  (* The first cached leg with an off-path cable into its far switch;
     [partner] is that cable's other end, so the swap moves our cable
     onto [landing]. *)
  let pick dst =
    match legs_to cache dst with
    | None -> None
    | Some legs ->
      List.find_map
        (fun (leg : Prober.leg) ->
          List.find_map
            (fun (key, up) ->
              let a, b = Link_key.ends key in
              if (not up) || on_path legs a || on_path legs b then None
              else if b.sw = leg.Prober.leg_to.sw then Some (dst, leg, a, b)
              else if a.sw = leg.Prober.leg_to.sw then Some (dst, leg, b, a)
              else None)
            (Graph.switch_links g))
        legs
  in
  match List.find_map (fun d -> if d = observer then None else pick d) built.Builder.hosts with
  | None -> Alcotest.fail "no leg with an off-path cable into its far switch"
  | Some (dst, leg, partner, landing) ->
    Network.rewire_swap net leg.Prober.leg_from partner;
    let got = ref None in
    let launched = Localizer.diagnose loc ~dst ~on_done:(fun v -> got := Some v) in
    Alcotest.(check bool) "diagnosis launched" true launched;
    Fabric.run ~for_ns:200_000_000 fab;
    Network.rewire_swap net leg.Prober.leg_from partner;
    let target = Link_key.make leg.Prober.leg_from leg.Prober.leg_to in
    (match !got with
    | Some { Localizer.v_class = Localizer.Miswired { near; far; actual; actual_port }; _ } ->
      Alcotest.(check bool) "names the swapped cable" true
        (Link_key.compare (Link_key.make near far) target = 0);
      Alcotest.(check int) "lands on the expected switch" leg.Prober.leg_to.sw actual;
      Alcotest.(check int) "through the partner's port" landing.port actual_port
    | Some v -> Alcotest.failf "expected a miswire, got %a" Localizer.pp_verdict v
    | None -> Alcotest.fail "no verdict")

(* The paper-scale smoke: one silent drop each on k=8 fat tree and
   64-switch jellyfish, localized to exactly the faulted cable. *)
let test_large_topology_smoke () =
  List.iter
    (fun built ->
      let fab, observer, agent, loc = diag_rig built in
      ignore observer;
      let rng = Rng.create 3 in
      let cache = Agent.topocache agent in
      let dst =
        List.find_opt (fun d -> d <> observer_of built && legs_to cache d <> None) built.Builder.hosts
      in
      match dst with
      | None -> Alcotest.fail "no cached destination"
      | Some dst ->
        (match legs_to cache dst with
        | None -> Alcotest.fail "no legs"
        | Some legs ->
          Alcotest.(check bool) "silent drop localized exactly" true
            (localize_once fab loc ~miswire:false rng dst legs)))
    [
      Builder.fat_tree ~k:8 ();
      Builder.random_regular ~rng:(Rng.create 23) ~switches:64 ~degree:6 ~hosts_per_switch:1 ();
    ]

(* --- health monitor hand-off --- *)

let test_health_handoff () =
  (* A corrupting cable on the observer's paths: loop probes start
     vanishing, the collector charges losses, the health monitor flags
     suspects, and the subscribed localizer turns one of them into an
     exact cable verdict — no human in the loop. *)
  let built = Builder.fat_tree ~k:4 () in
  let fab = Fabric.create ~seed:7 built in
  let observer = observer_of built in
  let agent = Fabric.agent fab observer in
  List.iter
    (fun dst -> if dst <> observer then ignore (Agent.query_path agent ~dst))
    built.Builder.hosts;
  Fabric.run fab;
  let engine = Fabric.engine fab in
  let ep = Endpoint.attach ~probe_interval_ns:20_000 ~engine ~agent () in
  let loc =
    Localizer.create ~engine ~agent ~prober:(Endpoint.prober ep) ()
  in
  Localizer.attach_health loc (Endpoint.health ep);
  (* Fault a cable on the observer's primary path to some destination. *)
  let cache = Agent.topocache agent in
  let target =
    let rec first = function
      | [] -> Alcotest.fail "no multi-leg destination"
      | d :: rest -> (
        if d = observer then first rest
        else
          match legs_to cache d with
          | Some (leg :: _) -> Link_key.make leg.Prober.leg_from leg.Prober.leg_to
          | Some [] | None -> first rest)
    in
    first built.Builder.hosts
  in
  let a, _ = Link_key.ends target in
  Network.set_cable_fault (Fabric.network fab) a (Some (Network.Corrupting { rate = 1.0; seed = 3 }));
  Fabric.run ~for_ns:400_000_000 fab;
  let hits =
    List.filter
      (fun v ->
        match v.Localizer.v_class with
        | Localizer.Silent_drop { near; far } | Localizer.Degraded { near; far; _ } ->
          Link_key.compare (Link_key.make near far) target = 0
        | Localizer.Miswired _ | Localizer.Healthy | Localizer.Inconclusive -> false)
      (Localizer.verdicts loc)
  in
  Alcotest.(check bool) "health suspects reached the localizer" true
    (Health.suspects (Endpoint.health ep) <> []);
  Alcotest.(check bool) "some verdict names the faulted cable" true (hits <> [])

let () =
  Alcotest.run "diagnosis"
    [
      ( "probe programs",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_prog_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick test_prog_rejects_truncation;
          Alcotest.test_case "unknown opcode rejected" `Quick test_prog_rejects_unknown_opcode;
          Alcotest.test_case "constructor limits" `Quick test_prog_constructor_limits;
          Alcotest.test_case "frame region roundtrip" `Quick test_frame_prog_roundtrip;
          Alcotest.test_case "corruption fuzz" `Quick test_frame_prog_corruption;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "conditional stamp" `Quick test_conditional_stamp;
          Alcotest.test_case "bounce exits ingress" `Quick test_bounce_exits_ingress;
          Alcotest.test_case "bounce on dead egress" `Quick test_bounce_works_on_dead_egress;
          Alcotest.test_case "mirror copies, original continues" `Quick
            test_mirror_copies_and_continues;
          Alcotest.test_case "after_hops countdown" `Quick test_after_hops_counts_down;
        ] );
      ( "localization",
        [
          Alcotest.test_case "suspect ranking" `Quick test_suspects_ranking;
          QCheck_alcotest.to_alcotest fat_tree_prop;
          QCheck_alcotest.to_alcotest jellyfish_prop;
          Alcotest.test_case "same-switch miswire" `Quick test_same_switch_miswire;
          Alcotest.test_case "k=8 and jellyfish-64 smoke" `Slow test_large_topology_smoke;
          Alcotest.test_case "health monitor hand-off" `Quick test_health_handoff;
        ] );
    ]
