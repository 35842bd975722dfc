open Dumbnet_topology
open Types

type addr =
  | Node of endpoint
  | Broadcast

let ethertype_dumbnet = Constants.ethertype_dumbnet

let ethertype_notice = Constants.ethertype_notice

let ethertype_ip = Constants.ethertype_ip

type priority =
  | High
  | Normal

type t = {
  dst : addr;
  src : addr;
  ethertype : int;
  tags : Tag.t list;
  ecn : bool;
  priority : priority;
  int_enabled : bool;
  int_rev_stamps : Int_stamp.t list; (* newest hop first — wire order reversed *)
  int_count : int; (* = List.length int_rev_stamps, kept for O(1) sizing *)
  prog : Probe_prog.t option;
  payload : Payload.t;
}

let int_stamps t = List.rev t.int_rev_stamps

let stamp_count t = t.int_count

let mark_ecn t = if t.ecn then t else { t with ecn = true }

let[@dumbnet.hot] with_int t = if t.int_enabled then t else { t with int_enabled = true }

let with_prog prog t = { t with prog = Some prog }

let strip_prog t =
  match t.prog with
  | None -> t
  | Some _ -> { t with prog = None }

(* Append-one is the whole switch-side INT instruction set; a full
   region forwards unstamped so the wire cost stays bounded. Stamps are
   consed newest-first so the per-hop cost is O(1) — the reversal to
   wire order happens once, at encode/read time. *)
let[@dumbnet.hot] add_stamp stamp t =
  if (not t.int_enabled) || t.int_count >= Int_stamp.max_per_frame then t
  else { t with int_rev_stamps = stamp :: t.int_rev_stamps; int_count = t.int_count + 1 }

let with_priority priority t = { t with priority }

let[@dumbnet.hot] with_tags tags t = if t.tags == tags then t else { t with tags }

let[@dumbnet.hot] priority_of_payload = function
  (* INT probes ride the normal lane on purpose: they must experience
     the queueing that data experiences, or the stamps lie. *)
  | Payload.Data _ | Payload.Int_probe _ -> Normal
  | Payload.Probe _ | Payload.Probe_reply _ | Payload.Id_reply _ | Payload.Port_notice _
  | Payload.Host_flood _ | Payload.Topo_patch _ | Payload.Path_query _
  | Payload.Path_response _ | Payload.Controller_hello _ | Payload.Peer_list _
  | Payload.Ecn_echo _ | Payload.Rts _ | Payload.Token _ ->
    High

let[@dumbnet.hot] rec ends_with_terminator = function
  | [] -> false
  | [ Tag.End_of_path ] -> true
  | Tag.End_of_path :: _ -> false (* ø must be last *)
  | (Tag.Forward _ | Tag.Id_query) :: rest -> ends_with_terminator rest

let[@dumbnet.hot] dumbnet ~src ~dst ~tags ~payload =
  if not (ends_with_terminator tags) then
    invalid_arg "Frame.dumbnet: tag sequence must end with a single ø";
  {
    dst;
    src = Node (Host src);
    ethertype = ethertype_dumbnet;
    tags;
    ecn = false;
    priority = priority_of_payload payload;
    int_enabled = false;
    int_rev_stamps = [];
    int_count = 0;
    prog = None;
    payload;
  }

let along_path ~src ~dst ~tags_of ~payload =
  dumbnet ~src ~dst:(Node (Host dst)) ~tags:(Tag.of_ports tags_of) ~payload

let notice ~origin ~event ~hops_left =
  {
    dst = Broadcast;
    src = Node (Switch origin);
    ethertype = ethertype_notice;
    tags = [];
    ecn = false;
    priority = High;
    int_enabled = false;
    int_rev_stamps = [];
    int_count = 0;
    prog = None;
    payload = Payload.Port_notice { event; hops_left };
  }

let plain ~src ~dst ~payload =
  {
    dst = Node (Host dst);
    src = Node (Host src);
    ethertype = ethertype_ip;
    tags = [];
    ecn = false;
    priority = priority_of_payload payload;
    int_enabled = false;
    int_rev_stamps = [];
    int_count = 0;
    prog = None;
    payload;
  }

let eth_header = Constants.eth_header_bytes

let fcs = Constants.fcs_bytes

let[@dumbnet.hot] int_region_bytes t =
  if t.int_enabled then 1 (* stamp count *) + (Int_stamp.wire_size * t.int_count) else 0

let[@dumbnet.hot] prog_region_bytes t =
  match t.prog with
  | Some p -> Probe_prog.wire_size p
  | None -> 0

let[@dumbnet.hot] header_bytes_with t ~tag_count =
  eth_header + tag_count + 1 (* ECN byte *) + int_region_bytes t + prog_region_bytes t + fcs

let header_bytes t = header_bytes_with t ~tag_count:(List.length t.tags)

let[@dumbnet.hot] byte_size_with t ~tag_count =
  header_bytes_with t ~tag_count + Payload.byte_size t.payload

let byte_size t = byte_size_with t ~tag_count:(List.length t.tags)

(* MAC layout: byte 0 encodes the address class (0x02 host, 0x04 switch,
   0xFF broadcast), bytes 1-4 the 32-bit id, byte 5 zero. *)
let addr_of_mac b pos =
  match Bytes.get b pos with
  | '\xff' -> Broadcast
  | cls ->
    let id =
      (Char.code (Bytes.get b (pos + 1)) lsl 24)
      lor (Char.code (Bytes.get b (pos + 2)) lsl 16)
      lor (Char.code (Bytes.get b (pos + 3)) lsl 8)
      lor Char.code (Bytes.get b (pos + 4))
    in
    (match cls with
    | '\x02' -> Node (Host id)
    | '\x04' -> Node (Switch id)
    | _ -> raise Wire.Truncated)

let[@dumbnet.hot] write_mac w = function
  | Broadcast ->
    for _ = 1 to 6 do
      Wire.Writer.u8 w 0xFF
    done
  | Node ep ->
    let cls, id =
      match ep with
      | Host h -> (0x02, h)
      | Switch s -> (0x04, s)
    in
    Wire.Writer.u8 w cls;
    Wire.Writer.u8 w (id lsr 24);
    Wire.Writer.u8 w (id lsr 16);
    Wire.Writer.u8 w (id lsr 8);
    Wire.Writer.u8 w id;
    Wire.Writer.u8 w 0

(* Single pass into one writer: every region (MACs, tags, telemetry,
   program, payload) lands directly in the destination, the payload
   length is back-patched around [Payload.write], and the CRC runs over
   the writer's own backing store — no intermediate [Bytes] anywhere. *)
let[@dumbnet.hot] write w t =
  let start = Wire.Writer.pos w in
  write_mac w t.dst;
  write_mac w t.src;
  Wire.Writer.u16 w t.ethertype;
  if t.ethertype = ethertype_dumbnet then
    List.iter (fun tag -> Wire.Writer.u8 w (Char.code (Tag.to_byte tag))) t.tags;
  (* One TOS-like byte: bits 0-1 the ECN codepoint, bit 2 the priority
     class (conceptually the IP header's TOS, kept adjacent for the
     simulator's framing). *)
  let tos =
    (if t.ecn then 0x03 else 0x00)
    lor (if t.priority = High then 0x04 else 0x00)
    lor (if t.int_enabled then 0x08 else 0x00)
    lor match t.prog with Some _ -> 0x10 | None -> 0x00
  in
  Wire.Writer.u8 w tos;
  (* Telemetry region: right after the TOS byte (itself after the tag
     stack), present iff TOS bit 3 is set — a count byte then that many
     fixed-width stamps, appended hop by hop. Stamps are stored newest
     first; recursing to the tail first emits wire (oldest-first) order
     without materializing the reversed list. *)
  if t.int_enabled then begin
    Wire.Writer.u8 w t.int_count;
    let rec emit = function
      | [] -> ()
      | s :: rest ->
        emit rest;
        Int_stamp.write w s
    in
    emit t.int_rev_stamps
  end;
  (* Probe-program region: after the telemetry region, present iff TOS
     bit 4 is set — a count byte then the variable-width instructions. *)
  (match t.prog with
  | Some prog -> Probe_prog.write w prog
  | None -> ());
  let plen_at = Wire.Writer.pos w in
  Wire.Writer.u16 w 0;
  Payload.write w t.payload;
  let body_end = Wire.Writer.pos w in
  Wire.Writer.patch_u16 w plen_at (body_end - plen_at - 2);
  let crc = Crc32.digest_sub (Wire.Writer.buffer w) ~pos:start ~len:(body_end - start) in
  Wire.Writer.u32 w crc

let to_bytes t =
  let w = Wire.Writer.create () in
  write w t;
  Wire.Writer.contents w

let of_bytes b =
  let len = Bytes.length b in
  if len < eth_header + 2 + fcs then raise Wire.Truncated;
  let body_len = len - 4 in
  let stored =
    Int32.logor
      (Int32.shift_left (Int32.of_int (Char.code (Bytes.get b body_len))) 24)
      (Int32.logor
         (Int32.shift_left (Int32.of_int (Char.code (Bytes.get b (body_len + 1)))) 16)
         (Int32.logor
            (Int32.shift_left (Int32.of_int (Char.code (Bytes.get b (body_len + 2)))) 8)
            (Int32.of_int (Char.code (Bytes.get b (body_len + 3))))))
  in
  if Crc32.digest_sub b ~pos:0 ~len:body_len <> stored then raise Wire.Truncated;
  let dst = addr_of_mac b 0 in
  let src = addr_of_mac b 6 in
  let ethertype = (Char.code (Bytes.get b 12) lsl 8) lor Char.code (Bytes.get b 13) in
  let pos = ref 14 in
  let tags = ref [] in
  if ethertype = ethertype_dumbnet then begin
    (* Tags run until (and including) the ø byte. *)
    let stop = ref false in
    while not !stop do
      if !pos >= body_len then raise Wire.Truncated;
      let tag = Tag.of_byte (Bytes.get b !pos) in
      incr pos;
      tags := tag :: !tags;
      if tag = Tag.End_of_path then stop := true
    done
  end;
  if !pos + 1 > body_len then raise Wire.Truncated;
  let tos = Char.code (Bytes.get b !pos) in
  if tos land (lnot 0x1F) <> 0 || tos land 0x03 = 0x01 || tos land 0x03 = 0x02 then
    raise Wire.Truncated;
  let ecn = tos land 0x03 = 0x03 in
  let priority = if tos land 0x04 <> 0 then High else Normal in
  let int_enabled = tos land 0x08 <> 0 in
  let prog_present = tos land 0x10 <> 0 in
  incr pos;
  let int_count, int_rev_stamps =
    if not int_enabled then (0, [])
    else begin
      if !pos >= body_len then raise Wire.Truncated;
      let count = Char.code (Bytes.get b !pos) in
      incr pos;
      if count > Int_stamp.max_per_frame then raise Wire.Truncated;
      let region = count * Int_stamp.wire_size in
      if !pos + region > body_len then raise Wire.Truncated;
      let r = Wire.Reader.of_sub b ~pos:!pos ~len:region in
      let stamps = List.init count (fun _ -> Int_stamp.read r) in
      pos := !pos + region;
      (count, List.rev stamps)
    end
  in
  let prog =
    if not prog_present then None
    else begin
      if !pos >= body_len then raise Wire.Truncated;
      (* Variable-width region: parse from the remaining body, then
         advance by the canonical encoded size of what was read. A
         program that swallows payload bytes fails the exact payload-
         length check below. *)
      let r = Wire.Reader.of_sub b ~pos:!pos ~len:(body_len - !pos) in
      let p = Probe_prog.read r in
      pos := !pos + Probe_prog.wire_size p;
      Some p
    end
  in
  if !pos + 2 > body_len then raise Wire.Truncated;
  let plen = (Char.code (Bytes.get b !pos) lsl 8) lor Char.code (Bytes.get b (!pos + 1)) in
  pos := !pos + 2;
  if !pos + plen <> body_len then raise Wire.Truncated;
  let payload = Payload.decode_from b ~pos:!pos ~len:plen in
  {
    dst;
    src;
    ethertype;
    tags = List.rev !tags;
    ecn;
    priority;
    int_enabled;
    int_rev_stamps;
    int_count;
    prog;
    payload;
  }

let equal_prog a b =
  match (a, b) with
  | None, None -> true
  | Some p, Some q -> Probe_prog.equal p q
  | None, Some _ | Some _, None -> false

let equal a b =
  a.dst = b.dst && a.src = b.src && a.ethertype = b.ethertype && a.tags = b.tags
  && a.ecn = b.ecn && a.priority = b.priority
  && a.int_enabled = b.int_enabled
  && a.int_count = b.int_count
  && List.for_all2 Int_stamp.equal a.int_rev_stamps b.int_rev_stamps
  && equal_prog a.prog b.prog
  && Payload.equal a.payload b.payload

let pp_addr ppf = function
  | Broadcast -> Format.fprintf ppf "bcast"
  | Node ep -> pp_endpoint ppf ep

let pp ppf t =
  Format.fprintf ppf "[%a->%a 0x%04x tags=%a %a]" pp_addr t.src pp_addr t.dst t.ethertype
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "-") Tag.pp)
    t.tags Payload.pp t.payload
