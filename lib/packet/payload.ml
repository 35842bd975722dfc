open Dumbnet_topology
open Dumbnet_topology.Types
module W = Wire.Writer
module R = Wire.Reader

type link_event = {
  position : link_end;
  up : bool;
  event_seq : int;
}

type change =
  | Link_failed of link_end * link_end
  | Link_restored of link_end * link_end
  | Link_discovered of link_end * link_end
  | Switch_removed of switch_id

type t =
  | Data of { flow : int; seq : int; size : int; sent_ns : int }
  | Probe of { origin : host_id; forward_tags : port list }
  | Probe_reply of { responder : host_id; knows_controller : host_id option }
  | Id_reply of { switch : switch_id }
  | Port_notice of { event : link_event; hops_left : int }
  | Host_flood of { event : link_event; origin : host_id }
  | Topo_patch of { version : int; changes : change list }
  | Path_query of { requester : host_id; target : host_id }
  | Path_response of Pathgraph.t
  | Controller_hello of { controller : host_id }
  | Peer_list of { peers : host_id list }
  | Ecn_echo of { flow : int; marks : int; latest_sent_ns : int }
  | Rts of { flow : int; bytes : int }
  | Token of { flow : int; packets : int }
  | Int_probe of { origin : host_id; seq : int; sent_ns : int }

let[@dumbnet.hot] write_link_end w (le : link_end) =
  W.int w le.sw;
  W.u8 w le.port

let read_link_end r =
  let sw = R.int r in
  let port = R.u8 r in
  { sw; port }

let[@dumbnet.hot] write_event w e =
  write_link_end w e.position;
  W.bool w e.up;
  W.int w e.event_seq

let read_event r =
  let position = read_link_end r in
  let up = R.bool r in
  let event_seq = R.int r in
  { position; up; event_seq }

let write_change w = function
  | Link_failed (a, b) ->
    W.u8 w 0;
    write_link_end w a;
    write_link_end w b
  | Link_restored (a, b) ->
    W.u8 w 1;
    write_link_end w a;
    write_link_end w b
  | Link_discovered (a, b) ->
    W.u8 w 2;
    write_link_end w a;
    write_link_end w b
  | Switch_removed sw ->
    W.u8 w 3;
    W.int w sw

let read_change r =
  match R.u8 r with
  | 0 ->
    let a = read_link_end r in
    Link_failed (a, read_link_end r)
  | 1 ->
    let a = read_link_end r in
    Link_restored (a, read_link_end r)
  | 2 ->
    let a = read_link_end r in
    Link_discovered (a, read_link_end r)
  | 3 -> Switch_removed (R.int r)
  | _ -> raise Wire.Truncated

let[@dumbnet.hot] write_path w (p : Path.t) =
  W.int w p.Path.src;
  W.int w p.Path.dst;
  W.list w
    (fun w (sw, port) ->
      W.int w sw;
      W.u8 w port)
    p.Path.hops

let read_path r =
  let src = R.int r in
  let dst = R.int r in
  let hops =
    R.list r (fun r ->
        let sw = R.int r in
        let port = R.u8 r in
        (sw, port))
  in
  { Path.src; hops; dst }

(* The edges go out as the graph holds them: each cable once, lower end
   first, sorted. *)
let[@dumbnet.hot] write_pathgraph w pg =
  W.int w (Pathgraph.src pg);
  W.int w (Pathgraph.dst pg);
  write_link_end w (Pathgraph.src_loc pg);
  write_link_end w (Pathgraph.dst_loc pg);
  write_path w (Pathgraph.primary pg);
  W.option w write_path (Pathgraph.backup pg);
  W.u16 w (Pathgraph.link_count pg);
  Pathgraph.iter_cables pg (fun a pa b pb ->
      W.int w a;
      W.u8 w pa;
      W.int w b;
      W.u8 w pb)

let read_pathgraph r =
  let w_src = R.int r in
  let w_dst = R.int r in
  let w_src_loc = read_link_end r in
  let w_dst_loc = read_link_end r in
  let w_primary = read_path r in
  let w_backup = R.option r read_path in
  let w_edges =
    R.list r (fun r ->
        let a = read_link_end r in
        (a, read_link_end r))
  in
  Pathgraph.of_wire { Pathgraph.w_src; w_dst; w_src_loc; w_dst_loc; w_primary; w_backup; w_edges }

let[@dumbnet.hot] write w t =
  match t with
  | Data { flow; seq; size; sent_ns } ->
    W.u8 w 0;
    W.int w flow;
    W.int w seq;
    W.int w size;
    W.int w sent_ns
  | Probe { origin; forward_tags } ->
    W.u8 w 1;
    W.int w origin;
    W.list w W.u8 forward_tags
  | Probe_reply { responder; knows_controller } ->
    W.u8 w 2;
    W.int w responder;
    W.option w W.int knows_controller
  | Id_reply { switch } ->
    W.u8 w 3;
    W.int w switch
  | Port_notice { event; hops_left } ->
    W.u8 w 4;
    write_event w event;
    W.u8 w hops_left
  | Host_flood { event; origin } ->
    W.u8 w 5;
    write_event w event;
    W.int w origin
  | Topo_patch { version; changes } ->
    W.u8 w 6;
    W.int w version;
    W.list w write_change changes
  | Path_query { requester; target } ->
    W.u8 w 7;
    W.int w requester;
    W.int w target
  | Path_response pg ->
    W.u8 w 8;
    write_pathgraph w pg
  | Controller_hello { controller } ->
    W.u8 w 9;
    W.int w controller
  | Peer_list { peers } ->
    W.u8 w 10;
    W.list w W.int peers
  | Ecn_echo { flow; marks; latest_sent_ns } ->
    W.u8 w 11;
    W.int w flow;
    W.int w marks;
    W.int w latest_sent_ns
  | Rts { flow; bytes } ->
    W.u8 w 12;
    W.int w flow;
    W.int w bytes
  | Token { flow; packets } ->
    W.u8 w 13;
    W.int w flow;
    W.int w packets
  | Int_probe { origin; seq; sent_ns } ->
    W.u8 w 14;
    W.int w origin;
    W.int w seq;
    W.int w sent_ns

let encode t =
  let w = W.create () in
  write w t;
  W.contents w

let encode_into t buf ~pos =
  let w = W.onto buf ~pos in
  write w t;
  W.pos w

let read r =
  let t =
    match R.u8 r with
    | 0 ->
      let flow = R.int r in
      let seq = R.int r in
      let size = R.int r in
      let sent_ns = R.int r in
      Data { flow; seq; size; sent_ns }
    | 1 ->
      let origin = R.int r in
      let forward_tags = R.list r R.u8 in
      Probe { origin; forward_tags }
    | 2 ->
      let responder = R.int r in
      let knows_controller = R.option r R.int in
      Probe_reply { responder; knows_controller }
    | 3 -> Id_reply { switch = R.int r }
    | 4 ->
      let event = read_event r in
      let hops_left = R.u8 r in
      Port_notice { event; hops_left }
    | 5 ->
      let event = read_event r in
      let origin = R.int r in
      Host_flood { event; origin }
    | 6 ->
      let version = R.int r in
      let changes = R.list r read_change in
      Topo_patch { version; changes }
    | 7 ->
      let requester = R.int r in
      let target = R.int r in
      Path_query { requester; target }
    | 8 -> Path_response (read_pathgraph r)
    | 9 -> Controller_hello { controller = R.int r }
    | 10 -> Peer_list { peers = R.list r R.int }
    | 11 ->
      let flow = R.int r in
      let marks = R.int r in
      let latest_sent_ns = R.int r in
      Ecn_echo { flow; marks; latest_sent_ns }
    | 12 ->
      let flow = R.int r in
      let bytes = R.int r in
      Rts { flow; bytes }
    | 13 ->
      let flow = R.int r in
      let packets = R.int r in
      Token { flow; packets }
    | 14 ->
      let origin = R.int r in
      let seq = R.int r in
      let sent_ns = R.int r in
      Int_probe { origin; seq; sent_ns }
    | _ -> raise Wire.Truncated
  in
  if not (R.at_end r) then raise Wire.Truncated;
  t

let decode buf = read (R.of_bytes buf)

let[@dumbnet.hot] decode_from buf ~pos ~len = read (R.of_sub buf ~pos ~len)

(* Wire widths of the codec above: [W.int] writes 8 bytes, [W.u8] and
   [W.bool] (ports, tags, hop budgets, flags, variant tags) 1, a list
   length 2 and an option tag 1. Sizing a payload is then a sum over its
   list lengths, so the per-hop charge serializes nothing. *)
let int_bytes = 8

let link_end_bytes = int_bytes + 1

let event_bytes = link_end_bytes + 1 + int_bytes

let[@dumbnet.hot] change_bytes = function
  | Link_failed _ | Link_restored _ | Link_discovered _ -> 1 + (2 * link_end_bytes)
  | Switch_removed _ -> 1 + int_bytes

let[@dumbnet.hot] path_bytes (p : Path.t) =
  (2 * int_bytes) + 2 + ((int_bytes + 1) * List.length p.Path.hops)

let[@dumbnet.hot] pathgraph_bytes pg =
  (2 * int_bytes) + (2 * link_end_bytes) + path_bytes (Pathgraph.primary pg)
  + (match Pathgraph.backup pg with
    | None -> 1
    | Some b -> 1 + path_bytes b)
  + 2
  + (2 * link_end_bytes * Pathgraph.link_count pg)

let[@dumbnet.hot] byte_size = function
  | Data { size; _ } -> size
  | Probe { forward_tags; _ } -> 1 + int_bytes + 2 + List.length forward_tags
  | Probe_reply { knows_controller = None; _ } -> 1 + int_bytes + 1
  | Probe_reply { knows_controller = Some _; _ } -> 1 + int_bytes + 1 + int_bytes
  | Id_reply _ | Controller_hello _ -> 1 + int_bytes
  | Port_notice _ -> 1 + event_bytes + 1
  | Host_flood _ -> 1 + event_bytes + int_bytes
  | Topo_patch { changes; _ } ->
    List.fold_left (fun acc c -> acc + change_bytes c) (1 + int_bytes + 2) changes
  | Path_query _ | Rts _ | Token _ -> 1 + (2 * int_bytes)
  | Path_response pg -> 1 + pathgraph_bytes pg
  | Peer_list { peers } -> 1 + 2 + (int_bytes * List.length peers)
  | Ecn_echo _ | Int_probe _ -> 1 + (3 * int_bytes)

let equal a b =
  match (a, b) with
  | Path_response x, Path_response y -> Pathgraph.equal x y
  | Path_response _, _ | _, Path_response _ -> false
  | _ -> a = b

let pp ppf = function
  | Data { flow; seq; size; sent_ns = _ } ->
    Format.fprintf ppf "data(flow=%d seq=%d %dB)" flow seq size
  | Probe { origin; forward_tags } ->
    Format.fprintf ppf "probe(from=H%d tags=[%s])" origin
      (String.concat "-" (List.map string_of_int forward_tags))
  | Probe_reply { responder; knows_controller } ->
    Format.fprintf ppf "probe-reply(H%d ctrl=%s)" responder
      (match knows_controller with
      | Some c -> Printf.sprintf "H%d" c
      | None -> "?")
  | Id_reply { switch } -> Format.fprintf ppf "id-reply(S%d)" switch
  | Port_notice { event; hops_left } ->
    Format.fprintf ppf "port-notice(%a %s seq=%d ttl=%d)" pp_link_end event.position
      (if event.up then "up" else "down")
      event.event_seq hops_left
  | Host_flood { event; origin } ->
    Format.fprintf ppf "host-flood(%a %s seq=%d from=H%d)" pp_link_end event.position
      (if event.up then "up" else "down")
      event.event_seq origin
  | Topo_patch { version; changes } ->
    Format.fprintf ppf "topo-patch(v%d %d changes)" version (List.length changes)
  | Path_query { requester; target } -> Format.fprintf ppf "path-query(H%d->H%d)" requester target
  | Path_response _ -> Format.fprintf ppf "path-response"
  | Controller_hello { controller } -> Format.fprintf ppf "controller-hello(H%d)" controller
  | Peer_list { peers } -> Format.fprintf ppf "peer-list(%d peers)" (List.length peers)
  | Ecn_echo { flow; marks; latest_sent_ns = _ } ->
    Format.fprintf ppf "ecn-echo(flow=%d marks=%d)" flow marks
  | Rts { flow; bytes } -> Format.fprintf ppf "rts(flow=%d %dB)" flow bytes
  | Token { flow; packets } -> Format.fprintf ppf "token(flow=%d %d pkts)" flow packets
  | Int_probe { origin; seq; sent_ns = _ } ->
    Format.fprintf ppf "int-probe(from=H%d seq=%d)" origin seq
