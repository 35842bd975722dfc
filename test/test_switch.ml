(* Tests for the dumb switch: the pure data plane, the port monitor's
   alarm suppression, and the FPGA resource model. *)

open Dumbnet.Packet
open Dumbnet.Topology.Types
module Dataplane = Dumbnet.Switch.Dataplane
module Monitor = Dumbnet.Switch.Monitor
module Resource_model = Dumbnet.Switch.Resource_model

let check = Alcotest.check

let all_up _ = true

let data_payload = Payload.Data { flow = 0; seq = 0; size = 100; sent_ns = 0 }

let handle ?(num_ports = 8) ?(port_up = all_up) ?(in_port = 1) frame =
  Dataplane.handle ~self:7 ~num_ports ~port_up ~in_port frame

let test_forward_pops_tag () =
  let f = Frame.along_path ~src:0 ~dst:1 ~tags_of:[ 3; 5 ] ~payload:data_payload in
  match handle f with
  | Dataplane.Forward (p, f') ->
    check Alcotest.int "output port" 3 p;
    Alcotest.(check bool) "first tag consumed" true
      (f'.Frame.tags = [ Tag.forward 5; Tag.End_of_path ])
  | _ -> Alcotest.fail "expected forward"

let test_id_query_rewrites () =
  (* 0-5-ø: answer with our ID, routed out port 5. *)
  let f =
    Frame.dumbnet ~src:0 ~dst:Frame.Broadcast
      ~tags:[ Tag.Id_query; Tag.forward 5; Tag.End_of_path ]
      ~payload:(Payload.Probe { origin = 0; forward_tags = [] })
  in
  match handle f with
  | Dataplane.Forward (p, f') ->
    check Alcotest.int "reply exits port 5" 5 p;
    Alcotest.(check bool) "payload replaced by our id" true
      (f'.Frame.payload = Payload.Id_reply { switch = 7 });
    Alcotest.(check bool) "source is the switch" true
      (f'.Frame.src = Frame.Node (Switch 7));
    Alcotest.(check bool) "only ø remains" true (f'.Frame.tags = [ Tag.End_of_path ])
  | _ -> Alcotest.fail "expected forwarded reply"

let test_drops () =
  let frame tags =
    { (Frame.along_path ~src:0 ~dst:1 ~tags_of:[ 1 ] ~payload:data_payload) with
      Frame.tags }
  in
  (match handle (frame []) with
  | Dataplane.Drop Dataplane.No_tags -> ()
  | _ -> Alcotest.fail "empty tags must drop");
  (match handle (frame [ Tag.End_of_path ]) with
  | Dataplane.Drop Dataplane.Path_ended_at_switch -> ()
  | _ -> Alcotest.fail "ø at switch must drop");
  (match handle ~num_ports:4 (frame [ Tag.forward 9; Tag.End_of_path ]) with
  | Dataplane.Drop (Dataplane.Port_out_of_range 9) -> ()
  | _ -> Alcotest.fail "out of range must drop");
  (match handle ~port_up:(fun p -> p <> 2) (frame [ Tag.forward 2; Tag.End_of_path ]) with
  | Dataplane.Drop (Dataplane.Port_down 2) -> ()
  | _ -> Alcotest.fail "down port must drop");
  match
    handle (Frame.plain ~src:0 ~dst:1 ~payload:data_payload)
  with
  | Dataplane.Drop Dataplane.Untagged -> ()
  | _ -> Alcotest.fail "plain ethernet must drop (no tables!)"

let test_notice_flood_and_ttl () =
  let event = { Payload.position = { sw = 3; port = 1 }; up = false; event_seq = 1 } in
  let n = Frame.notice ~origin:3 ~event ~hops_left:2 in
  (match handle n with
  | Dataplane.Flood f -> (
    match f.Frame.payload with
    | Payload.Port_notice { hops_left; _ } -> check Alcotest.int "ttl decremented" 1 hops_left
    | _ -> Alcotest.fail "payload changed")
  | _ -> Alcotest.fail "expected flood");
  match handle (Frame.notice ~origin:3 ~event ~hops_left:0) with
  | Dataplane.Drop Dataplane.Ttl_expired -> ()
  | _ -> Alcotest.fail "expired ttl must drop"

let test_statelessness () =
  (* Same input, same output — the handler closes over nothing. *)
  let f = Frame.along_path ~src:0 ~dst:1 ~tags_of:[ 2; 3 ] ~payload:data_payload in
  let r1 = handle f and r2 = handle f in
  Alcotest.(check bool) "pure" true (r1 = r2)

(* A multi-hop conformance property: forwarding the structured frame
   and forwarding its serialized bytes (re-parsed at every hop, as a
   real switch chain would) must agree hop for hop. *)
let bytes_vs_structured_prop =
  QCheck.Test.make ~name:"byte-level forwarding agrees with structured forwarding" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (int_range 1 8))
    (fun ports ->
      let frame = Frame.along_path ~src:0 ~dst:1 ~tags_of:ports ~payload:data_payload in
      let rec walk f g hops =
        match
          ( Dataplane.handle ~self:7 ~num_ports:8 ~port_up:all_up ~in_port:1 f,
            Dataplane.handle ~self:7 ~num_ports:8 ~port_up:all_up ~in_port:1
              (Frame.of_bytes (Frame.to_bytes g)) )
        with
        | Dataplane.Forward (p1, f'), Dataplane.Forward (p2, g') ->
          p1 = p2 && Frame.equal f' g'
          && (hops = 0 || walk f' g' (hops - 1))
        | Dataplane.Drop r1, Dataplane.Drop r2 -> r1 = r2
        | Dataplane.Flood _, Dataplane.Flood _ -> true
        | _ -> false
      in
      walk frame frame (List.length ports))

(* The common hop a forwarder takes on its own tag cursor must be
   exactly what [handle] does: for any frame, carrying any tag stack in
   place of its own, whenever [plain_pop] names a port, [handle] on the
   rebuilt frame forwards out that port with just the head tag gone —
   and a hop that [handle] forwards that way, with no program and no
   INT flag to rewrite, is one [plain_pop] names. *)
let plain_pop_prop =
  let tag =
    QCheck.Gen.(
      frequency
        [
          (6, int_range 1 10 >|= fun p -> Tag.Forward p);
          (1, return Tag.Id_query);
          (1, return Tag.End_of_path);
        ])
  in
  let gen =
    QCheck.Gen.(
      tup5 (list_size (0 -- 4) tag)
        (oneofl [ Frame.ethertype_dumbnet; Frame.ethertype_notice; Frame.ethertype_ip ])
        bool
        (oneofl [ None; Some [ { Probe_prog.pred = Probe_prog.any; op = Probe_prog.Stamp } ] ])
        (int_bound 511))
  in
  QCheck.Test.make ~name:"plain pop agrees with handle" ~count:1000 (QCheck.make gen)
    (fun (tags, ethertype, int_enabled, prog, up_mask) ->
      let port_up p = up_mask land (1 lsl p) <> 0 in
      let built = Frame.along_path ~src:0 ~dst:1 ~tags_of:[ 4 ] ~payload:data_payload in
      let frame = { built with Frame.ethertype; int_enabled; prog } in
      let stamp p = { Int_stamp.switch = 7; port = p; queue_depth = 0; timestamp_ns = 0 } in
      let p = Dataplane.plain_pop ~num_ports:8 ~port_up frame tags in
      let action =
        Dataplane.handle ~self:7 ~num_ports:8 ~port_up ~stamp ~in_port:1 (Frame.with_tags tags frame)
      in
      match (action, tags) with
      | Dataplane.Forward (q, f), Tag.Forward head :: rest ->
        let popped = q = head && Frame.equal f (Frame.with_tags rest frame) in
        if p > 0 then popped && p = q
        else not (popped && Option.is_none prog && not int_enabled)
      | _ -> p = 0)

let test_notice_spent () =
  let event = { Payload.position = { sw = 3; port = 1 }; up = false; event_seq = 1 } in
  List.iter
    (fun hops_left ->
      let n = Frame.notice ~origin:3 ~event ~hops_left in
      let spent = Dataplane.notice_spent n in
      check Alcotest.bool (Printf.sprintf "hops_left %d" hops_left) (hops_left <= 0) spent;
      List.iter
        (fun port_up ->
          match handle ~port_up n with
          | Dataplane.Drop Dataplane.Ttl_expired -> Alcotest.(check bool) "drop is spent" true spent
          | _ -> Alcotest.(check bool) "live notice" false spent)
        [ all_up; (fun _ -> false) ])
    [ -1; 0; 1; 5 ];
  Alcotest.(check bool) "data is never spent" false
    (Dataplane.notice_spent (Frame.along_path ~src:0 ~dst:1 ~tags_of:[ 2 ] ~payload:data_payload))

(* --- monitor --- *)

let test_monitor_emits_then_suppresses () =
  let m = Monitor.create ~suppress_ns:1_000_000_000 ~self:3 () in
  (match Monitor.on_port_event m ~now_ns:0 ~port:1 ~up:false with
  | Some f -> (
    match f.Frame.payload with
    | Payload.Port_notice { event; hops_left } ->
      check Alcotest.int "hop budget" (Monitor.hop_limit m) hops_left;
      Alcotest.(check bool) "position" true (event.Payload.position = { sw = 3; port = 1 });
      check Alcotest.int "seq" 1 event.Payload.event_seq
    | _ -> Alcotest.fail "wrong payload")
  | None -> Alcotest.fail "first alarm must fire");
  (* A flap inside the window is suppressed. *)
  Alcotest.(check bool) "suppressed" true
    (Monitor.on_port_event m ~now_ns:500_000_000 ~port:1 ~up:true = None);
  (* After the window it fires again with a fresh sequence. *)
  (match Monitor.on_port_event m ~now_ns:1_500_000_000 ~port:1 ~up:true with
  | Some f -> (
    match f.Frame.payload with
    | Payload.Port_notice { event; _ } -> check Alcotest.int "seq grows" 2 event.Payload.event_seq
    | _ -> Alcotest.fail "wrong payload")
  | None -> Alcotest.fail "must fire after window");
  check Alcotest.int "emitted" 2 (Monitor.alarms_emitted m);
  check Alcotest.int "suppressed count" 1 (Monitor.alarms_suppressed m)

let test_monitor_per_port_windows () =
  let m = Monitor.create ~self:3 () in
  Alcotest.(check bool) "port 1 fires" true
    (Monitor.on_port_event m ~now_ns:0 ~port:1 ~up:false <> None);
  Alcotest.(check bool) "port 2 independent" true
    (Monitor.on_port_event m ~now_ns:0 ~port:2 ~up:false <> None)

(* --- resource model --- *)

let test_resource_anchors () =
  let d = Resource_model.dumbnet ~ports:4 in
  check Alcotest.int "dumbnet luts" 1713 d.Resource_model.luts;
  check Alcotest.int "dumbnet regs" 1504 d.Resource_model.registers;
  let o = Resource_model.openflow ~ports:4 in
  check Alcotest.int "openflow luts" 16070 o.Resource_model.luts;
  check Alcotest.int "openflow regs" 17193 o.Resource_model.registers

let test_resource_monotonic () =
  let prev = ref 0 in
  List.iter
    (fun p ->
      let d = Resource_model.dumbnet ~ports:p in
      Alcotest.(check bool) "grows with ports" true (d.Resource_model.luts > !prev);
      prev := d.Resource_model.luts)
    [ 2; 4; 8; 16; 32 ];
  Alcotest.(check bool) "~90% saving at 4 ports" true
    (Resource_model.reduction_factor ~ports:4 > 9.)

let () =
  Alcotest.run "switch"
    [
      ( "dataplane",
        [
          Alcotest.test_case "forward pops tag" `Quick test_forward_pops_tag;
          Alcotest.test_case "id query rewrite" `Quick test_id_query_rewrites;
          Alcotest.test_case "drops" `Quick test_drops;
          Alcotest.test_case "notice flood + ttl" `Quick test_notice_flood_and_ttl;
          Alcotest.test_case "stateless" `Quick test_statelessness;
          QCheck_alcotest.to_alcotest bytes_vs_structured_prop;
          QCheck_alcotest.to_alcotest plain_pop_prop;
          Alcotest.test_case "spent notice" `Quick test_notice_spent;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "suppression window" `Quick test_monitor_emits_then_suppresses;
          Alcotest.test_case "per-port windows" `Quick test_monitor_per_port_windows;
        ] );
      ( "resources",
        [
          Alcotest.test_case "paper anchors" `Quick test_resource_anchors;
          Alcotest.test_case "monotonic growth" `Quick test_resource_monotonic;
        ] );
    ]
