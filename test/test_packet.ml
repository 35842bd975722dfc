(* Tests for the packet layer: tags, CRC, payload and frame codecs,
   MPLS encoding. Property tests drive the codecs with generated
   values; every byte format must round-trip exactly. *)

open Dumbnet.Packet
open Dumbnet.Topology
open Dumbnet.Topology.Types

let check = Alcotest.check

(* --- tags --- *)

let test_tag_bytes () =
  check Alcotest.char "forward" '\x07' (Tag.to_byte (Tag.forward 7));
  check Alcotest.char "id query" '\x00' (Tag.to_byte Tag.Id_query);
  check Alcotest.char "end" '\xff' (Tag.to_byte Tag.End_of_path);
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun t -> Tag.equal t (Tag.of_byte (Tag.to_byte t)))
       [ Tag.forward 1; Tag.forward 254; Tag.Id_query; Tag.End_of_path ])

let test_tag_forward_bounds () =
  Alcotest.(check bool) "0 rejected" true
    (try
       ignore (Tag.forward 0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "255 rejected" true
    (try
       ignore (Tag.forward 255);
       false
     with Invalid_argument _ -> true)

let test_tag_ports_roundtrip () =
  let tags = Tag.of_ports [ 2; 3; 5 ] in
  check Alcotest.int "length includes terminator" 4 (List.length tags);
  Alcotest.(check bool) "roundtrip" true (Tag.to_ports tags = Some [ 2; 3; 5 ]);
  Alcotest.(check bool) "missing terminator" true (Tag.to_ports [ Tag.forward 1 ] = None);
  Alcotest.(check bool) "early terminator" true
    (Tag.to_ports [ Tag.End_of_path; Tag.forward 1 ] = None)

(* --- crc32 --- *)

let test_crc32_vector () =
  (* The canonical check value for CRC-32/IEEE. *)
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.digest (Bytes.of_string "123456789"))

let test_crc32_sub () =
  let b = Bytes.of_string "xx123456789yy" in
  check Alcotest.int32 "slice" 0xCBF43926l (Crc32.digest_sub b ~pos:2 ~len:9);
  Alcotest.(check bool) "bad bounds" true
    (try
       ignore (Crc32.digest_sub b ~pos:10 ~len:9);
       false
     with Invalid_argument _ -> true)

(* --- payload codec --- *)

let sample_payloads =
  [
    Payload.Data { flow = 1; seq = 2; size = 1450; sent_ns = 123456789 };
    Payload.Probe { origin = 3; forward_tags = [ 1; 0; 2; 255 ] };
    Payload.Probe_reply { responder = 9; knows_controller = Some 4 };
    Payload.Probe_reply { responder = 9; knows_controller = None };
    Payload.Id_reply { switch = 77 };
    Payload.Port_notice
      { event = { Payload.position = { sw = 5; port = 3 }; up = false; event_seq = 2 };
        hops_left = 5 };
    Payload.Host_flood
      { event = { Payload.position = { sw = 5; port = 3 }; up = true; event_seq = 3 };
        origin = 11 };
    Payload.Topo_patch
      {
        version = 4;
        changes =
          [
            Payload.Link_failed ({ sw = 1; port = 2 }, { sw = 3; port = 4 });
            Payload.Link_restored ({ sw = 1; port = 2 }, { sw = 3; port = 4 });
            Payload.Link_discovered ({ sw = 9; port = 1 }, { sw = 8; port = 7 });
            Payload.Switch_removed 6;
          ];
      };
    Payload.Path_query { requester = 1; target = 2 };
    Payload.Controller_hello { controller = 0 };
    Payload.Peer_list { peers = [ 1; 2; 3; 4; 5 ] };
  ]

let test_payload_roundtrip () =
  List.iter
    (fun p ->
      let decoded = Payload.decode (Payload.encode p) in
      Alcotest.(check bool)
        (Format.asprintf "%a" Payload.pp p)
        true (Payload.equal p decoded))
    sample_payloads

let test_payload_pathgraph_roundtrip () =
  let b = Builder.testbed () in
  match Pathgraph.generate b.Builder.graph ~src:0 ~dst:20 with
  | None -> Alcotest.fail "no path graph"
  | Some pg ->
    let p = Payload.Path_response pg in
    Alcotest.(check bool) "path response roundtrips" true
      (Payload.equal p (Payload.decode (Payload.encode p)))

let test_payload_data_size () =
  let p = Payload.Data { flow = 0; seq = 0; size = 9000; sent_ns = 0 } in
  check Alcotest.int "data charged at declared size" 9000 (Payload.byte_size p);
  let q = Payload.Id_reply { switch = 1 } in
  check Alcotest.int "control charged at encoded size" (Bytes.length (Payload.encode q))
    (Payload.byte_size q)

let test_payload_rejects_garbage () =
  Alcotest.(check bool) "bad marker" true
    (try
       ignore (Payload.decode (Bytes.of_string "\xee"));
       false
     with Dumbnet.Packet.Wire.Truncated -> true);
  Alcotest.(check bool) "trailing bytes" true
    (try
       let b = Payload.encode (Payload.Id_reply { switch = 1 }) in
       ignore (Payload.decode (Bytes.cat b (Bytes.of_string "x")));
       false
     with Dumbnet.Packet.Wire.Truncated -> true)

(* --- frame codec --- *)

let sample_frame () =
  Frame.along_path ~src:3 ~dst:4 ~tags_of:[ 2; 3; 5 ]
    ~payload:(Payload.Data { flow = 1; seq = 0; size = 100; sent_ns = 42 })

let test_frame_roundtrip () =
  let f = sample_frame () in
  Alcotest.(check bool) "roundtrip" true (Frame.equal f (Frame.of_bytes (Frame.to_bytes f)));
  let n = Frame.notice ~origin:7
      ~event:{ Payload.position = { sw = 7; port = 1 }; up = false; event_seq = 1 }
      ~hops_left:5
  in
  Alcotest.(check bool) "notice roundtrip" true
    (Frame.equal n (Frame.of_bytes (Frame.to_bytes n)))

let test_frame_ecn_roundtrip () =
  let f = Frame.mark_ecn (sample_frame ()) in
  Alcotest.(check bool) "marked" true f.Frame.ecn;
  Alcotest.(check bool) "mark roundtrips" true
    (Frame.equal f (Frame.of_bytes (Frame.to_bytes f)));
  Alcotest.(check bool) "idempotent" true (Frame.mark_ecn f == f)

let test_frame_crc_detects_corruption () =
  let f = sample_frame () in
  let b = Frame.to_bytes f in
  Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lxor 0x01));
  Alcotest.(check bool) "corruption detected" true
    (try
       ignore (Frame.of_bytes b);
       false
     with Dumbnet.Packet.Wire.Truncated -> true)

let test_frame_requires_terminator () =
  Alcotest.(check bool) "missing ø rejected" true
    (try
       ignore
         (Frame.dumbnet ~src:0 ~dst:Frame.Broadcast ~tags:[ Tag.forward 1 ]
            ~payload:(Payload.Id_reply { switch = 0 }));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "ø not last rejected" true
    (try
       ignore
         (Frame.dumbnet ~src:0 ~dst:Frame.Broadcast
            ~tags:[ Tag.End_of_path; Tag.forward 1 ]
            ~payload:(Payload.Id_reply { switch = 0 }));
       false
     with Invalid_argument _ -> true)

let test_frame_byte_size () =
  let f = sample_frame () in
  (* 14 eth + 4 tags (3 + ø) + 1 ECN + 4 FCS + 100 payload. *)
  check Alcotest.int "size" (14 + 4 + 1 + 4 + 100) (Frame.byte_size f)

(* --- mpls --- *)

let test_mpls_roundtrip () =
  let tags = Tag.of_ports [ 2; 3; 5 ] in
  let entries = Mpls.of_tags tags in
  check Alcotest.int "entry count" 4 (List.length entries);
  Alcotest.(check bool) "bottom flag on last only" true
    (List.mapi (fun i e -> e.Mpls.bottom = (i = 3)) entries |> List.for_all Fun.id);
  Alcotest.(check bool) "tags roundtrip" true (Mpls.to_tags entries = Some tags);
  Alcotest.(check bool) "bytes roundtrip" true
    (Mpls.decode (Mpls.encode entries) = Some entries)

let test_mpls_rejects () =
  Alcotest.(check bool) "empty" true
    (try
       ignore (Mpls.of_tags []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad bottom placement" true
    (Mpls.to_tags
       [ { Mpls.label = 1; traffic_class = 0; bottom = true; ttl = 64 };
         { Mpls.label = 255; traffic_class = 0; bottom = true; ttl = 64 } ]
    = None)

let test_mpls_headroom () =
  (* 1450 MTU under 1500: 50 bytes = 12 labels = 11 forwarding hops. *)
  check Alcotest.int "paper MTU" 11 (Mpls.max_path_length ~mtu:1450 ~standard_mtu:1500);
  check Alcotest.int "no headroom" 0 (Mpls.max_path_length ~mtu:1500 ~standard_mtu:1500)

(* --- properties --- *)

(* Every payload variant, each field drawn across its whole wire width:
   ints are 8 bytes (any OCaml int), ports, tags and hop budgets 1 byte,
   list lengths 2 bytes (kept short here). *)
let gen_payload =
  QCheck.Gen.(
    let byte = int_bound 255 in
    let link_end = map2 (fun sw port -> { sw; port }) int byte in
    let event =
      map3 (fun position up event_seq -> { Payload.position; up; event_seq }) link_end bool int
    in
    let change =
      oneof
        [
          map2 (fun a b -> Payload.Link_failed (a, b)) link_end link_end;
          map2 (fun a b -> Payload.Link_restored (a, b)) link_end link_end;
          map2 (fun a b -> Payload.Link_discovered (a, b)) link_end link_end;
          map (fun sw -> Payload.Switch_removed sw) int;
        ]
    in
    let path =
      map3
        (fun src hops dst -> { Path.src; hops; dst })
        int
        (list_size (1 -- 12) (pair int byte))
        int
    in
    let wire =
      map3
        (fun (w_src, w_dst) (w_src_loc, w_dst_loc) (w_primary, w_backup, w_edges) ->
          { Pathgraph.w_src; w_dst; w_src_loc; w_dst_loc; w_primary; w_backup; w_edges })
        (pair int int) (pair link_end link_end)
        (triple path (opt path) (list_size (0 -- 30) (pair link_end link_end)))
    in
    oneof
      [
        map4
          (fun flow seq size sent_ns -> Payload.Data { flow; seq; size; sent_ns })
          small_nat small_nat (int_bound 100_000) (int_bound 1_000_000_000);
        map2
          (fun origin tags -> Payload.Probe { origin; forward_tags = tags })
          int
          (list_size (0 -- 20) byte);
        map2
          (fun responder knows_controller -> Payload.Probe_reply { responder; knows_controller })
          int (opt int);
        map (fun sw -> Payload.Id_reply { switch = sw }) int;
        map2 (fun event hops_left -> Payload.Port_notice { event; hops_left }) event byte;
        map2 (fun event origin -> Payload.Host_flood { event; origin }) event int;
        map2
          (fun version changes -> Payload.Topo_patch { version; changes })
          int
          (list_size (0 -- 12) change);
        map2
          (fun requester target -> Payload.Path_query { requester; target })
          int int;
        map (fun w -> Payload.Path_response (Pathgraph.of_wire w)) wire;
        map (fun controller -> Payload.Controller_hello { controller }) int;
        map (fun peers -> Payload.Peer_list { peers }) (list_size (0 -- 12) int);
        map3
          (fun flow marks latest_sent_ns -> Payload.Ecn_echo { flow; marks; latest_sent_ns })
          int int int;
        map2 (fun flow bytes -> Payload.Rts { flow; bytes }) int int;
        map2 (fun flow packets -> Payload.Token { flow; packets }) int int;
        map3
          (fun origin seq sent_ns -> Payload.Int_probe { origin; seq; sent_ns })
          int int int;
      ])

let payload_roundtrip_prop =
  QCheck.Test.make ~name:"payload codec roundtrips" ~count:300
    (QCheck.make gen_payload) (fun p -> Payload.equal p (Payload.decode (Payload.encode p)))

(* The arithmetic size law: every control payload is charged exactly
   its encoded length. *)
let payload_byte_size_prop =
  QCheck.Test.make ~name:"payload byte size is the encoded length" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Payload.pp) gen_payload) (fun p ->
      match p with
      | Payload.Data _ -> true
      | _ -> Payload.byte_size p = Bytes.length (Payload.encode p))

let frame_roundtrip_prop =
  QCheck.Test.make ~name:"frame codec roundtrips" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 12) (int_range 1 254)) (QCheck.make gen_payload))
    (fun (ports, payload) ->
      let f = Frame.along_path ~src:1 ~dst:2 ~tags_of:ports ~payload in
      Frame.equal f (Frame.of_bytes (Frame.to_bytes f)))

let mpls_roundtrip_prop =
  QCheck.Test.make ~name:"MPLS stack roundtrips" ~count:300
    QCheck.(list_of_size Gen.(1 -- 15) (int_range 1 254))
    (fun ports ->
      let tags = Tag.of_ports ports in
      Mpls.to_tags (Mpls.of_tags tags) = Some tags)

(* A valid encoding of any payload variant, truncated or with one byte
   flipped, so the fuzz below reaches deep into every decoder branch. *)
let gen_damaged_payload =
  QCheck.Gen.(
    map3
      (fun p at flip ->
        let b = Payload.encode p in
        let i = at mod Bytes.length b in
        if flip = 0 then Bytes.sub_string b 0 i
        else begin
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip));
          Bytes.to_string b
        end)
      gen_payload small_nat (int_bound 255))

let decode_total_prop =
  (* Fuzz: arbitrary or damaged bytes either parse or raise Truncated —
     decoders never escape with any other exception. The probe-program
     and INT-stamp readers get the same bytes on their own, not only
     inside a frame. *)
  QCheck.Test.make ~name:"decoders are total on garbage" ~count:1000
    (QCheck.make QCheck.Gen.(oneof [ string_size (0 -- 200); gen_damaged_payload ]))
    (fun s ->
      let b = Bytes.of_string s in
      let ok f = match f b with _ -> true | exception Wire.Truncated -> true in
      let read f b = f (Wire.Reader.of_bytes b) in
      ok Payload.decode && ok Frame.of_bytes
      && ok (read Probe_prog.read)
      && ok (read Int_stamp.read)
      &&
      match Mpls.decode b with
      | Some _ | None -> true)

let wire_int_roundtrip_prop =
  QCheck.Test.make ~name:"wire int roundtrips" ~count:300 QCheck.int (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.int w v;
      Wire.Reader.int (Wire.Reader.of_bytes (Wire.Writer.contents w)) = v)

let () =
  Alcotest.run "packet"
    [
      ( "tag",
        [
          Alcotest.test_case "bytes" `Quick test_tag_bytes;
          Alcotest.test_case "forward bounds" `Quick test_tag_forward_bounds;
          Alcotest.test_case "ports roundtrip" `Quick test_tag_ports_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_vector;
          Alcotest.test_case "slice" `Quick test_crc32_sub;
        ] );
      ( "payload",
        [
          Alcotest.test_case "roundtrip" `Quick test_payload_roundtrip;
          Alcotest.test_case "pathgraph response" `Quick test_payload_pathgraph_roundtrip;
          Alcotest.test_case "data size" `Quick test_payload_data_size;
          Alcotest.test_case "garbage rejected" `Quick test_payload_rejects_garbage;
          QCheck_alcotest.to_alcotest payload_roundtrip_prop;
          QCheck_alcotest.to_alcotest payload_byte_size_prop;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "ecn roundtrip" `Quick test_frame_ecn_roundtrip;
          Alcotest.test_case "crc detects corruption" `Quick test_frame_crc_detects_corruption;
          Alcotest.test_case "terminator required" `Quick test_frame_requires_terminator;
          Alcotest.test_case "byte size" `Quick test_frame_byte_size;
          QCheck_alcotest.to_alcotest frame_roundtrip_prop;
        ] );
      ( "mpls",
        [
          Alcotest.test_case "roundtrip" `Quick test_mpls_roundtrip;
          Alcotest.test_case "rejects" `Quick test_mpls_rejects;
          Alcotest.test_case "headroom" `Quick test_mpls_headroom;
          QCheck_alcotest.to_alcotest mpls_roundtrip_prop;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest wire_int_roundtrip_prop;
          QCheck_alcotest.to_alcotest decode_total_prop;
        ] );
    ]
