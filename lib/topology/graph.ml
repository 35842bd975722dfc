open Types

type plug =
  | To_switch of link_end
  | To_host of host_id

type slot = { plug : plug; mutable up : bool }

type switch = { ports : slot option array (* index 0 unused; ports are 1-based *) }

type t = {
  switches : (switch_id, switch) Hashtbl.t;
  hosts : (host_id, link_end option ref) Hashtbl.t;
  mutable next_switch : int;
  mutable next_host : int;
  mutable generation : int; (* bumped on any mutation, incl. link state *)
  mutable wiring_generation : int; (* bumped only when cabling changes *)
  mutable adj_cache : Adjacency.t option;
}

let create () =
  {
    switches = Hashtbl.create 64;
    hosts = Hashtbl.create 64;
    next_switch = 0;
    next_host = 0;
    generation = 0;
    wiring_generation = 0;
    adj_cache = None;
  }

let[@dumbnet.hot] generation t = t.generation

let[@dumbnet.hot] wiring_generation t = t.wiring_generation

let touch t =
  t.generation <- t.generation + 1;
  t.adj_cache <- None

let touch_wiring t =
  touch t;
  t.wiring_generation <- t.wiring_generation + 1

let check_id what ~max id =
  if id < 0 || id > max then invalid_arg (Printf.sprintf "Graph.%s: id %d outside 0..%d" what id max)

let add_switch t ~ports =
  if ports <= 0 || ports > max_port then invalid_arg "Graph.add_switch: bad port count";
  let id = t.next_switch in
  check_id "add_switch" ~max:max_switch_id id;
  t.next_switch <- id + 1;
  Hashtbl.replace t.switches id { ports = Array.make (ports + 1) None };
  touch_wiring t;
  id

let add_host t =
  let id = t.next_host in
  check_id "add_host" ~max:max_host_id id;
  t.next_host <- id + 1;
  Hashtbl.replace t.hosts id (ref None);
  id

let add_switch_with_id t ~id ~ports =
  if ports <= 0 || ports > max_port then invalid_arg "Graph.add_switch_with_id: bad port count";
  check_id "add_switch_with_id" ~max:max_switch_id id;
  if Hashtbl.mem t.switches id then invalid_arg "Graph.add_switch_with_id: id taken";
  Hashtbl.replace t.switches id { ports = Array.make (ports + 1) None };
  t.next_switch <- max t.next_switch (id + 1);
  touch_wiring t

let add_host_with_id t ~id =
  check_id "add_host_with_id" ~max:max_host_id id;
  if Hashtbl.mem t.hosts id then invalid_arg "Graph.add_host_with_id: id taken";
  Hashtbl.replace t.hosts id (ref None);
  t.next_host <- max t.next_host (id + 1)

let[@dumbnet.hot] switch_exn t sw =
  match Hashtbl.find_opt t.switches sw with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Graph: unknown switch %d" sw)

let[@dumbnet.hot] slot_in_range s port = port >= 1 && port < Array.length s.ports

let check_free t le =
  let s = switch_exn t le.sw in
  if not (slot_in_range s le.port) then
    invalid_arg (Printf.sprintf "Graph: port %d out of range on switch %d" le.port le.sw);
  if s.ports.(le.port) <> None then
    invalid_arg (Printf.sprintf "Graph: port S%d-%d occupied" le.sw le.port)

let connect t a b =
  if a.sw = b.sw && a.port = b.port then invalid_arg "Graph.connect: self-loop port";
  check_free t a;
  check_free t b;
  (switch_exn t a.sw).ports.(a.port) <- Some { plug = To_switch b; up = true };
  (switch_exn t b.sw).ports.(b.port) <- Some { plug = To_switch a; up = true };
  touch_wiring t

let host_ref t h =
  match Hashtbl.find_opt t.hosts h with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Graph: unknown host %d" h)

let attach_host t h le =
  let loc = host_ref t h in
  if !loc <> None then invalid_arg (Printf.sprintf "Graph: host %d already attached" h);
  check_free t le;
  (switch_exn t le.sw).ports.(le.port) <- Some { plug = To_host h; up = true };
  loc := Some le;
  touch_wiring t

let[@dumbnet.hot] slot_at t le =
  match Hashtbl.find_opt t.switches le.sw with
  | None -> None
  | Some s -> if slot_in_range s le.port then s.ports.(le.port) else None

let remove_link t le =
  match slot_at t le with
  | None -> ()
  | Some { plug = To_switch other; _ } ->
    (switch_exn t le.sw).ports.(le.port) <- None;
    (switch_exn t other.sw).ports.(other.port) <- None;
    touch_wiring t
  | Some { plug = To_host h; _ } ->
    (switch_exn t le.sw).ports.(le.port) <- None;
    host_ref t h := None;
    touch_wiring t

let num_switches t = Hashtbl.length t.switches

let num_hosts t = Hashtbl.length t.hosts

let[@dumbnet.hot] sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let[@dumbnet.hot] switch_ids t = sorted_keys t.switches

let host_ids t = sorted_keys t.hosts

let[@dumbnet.hot] ports_of t sw =
  match Hashtbl.find_opt t.switches sw with
  | Some s -> Array.length s.ports - 1
  | None -> invalid_arg (Printf.sprintf "Graph.ports_of: unknown switch %d" sw)

let[@dumbnet.hot] endpoint_of_plug = function
  | To_switch le -> Switch le.sw
  | To_host h -> Host h

let[@dumbnet.hot] endpoint_at t le = Option.map (fun slot -> endpoint_of_plug slot.plug) (slot_at t le)

let[@dumbnet.hot] peer_port t le =
  match slot_at t le with
  | Some { plug = To_switch other; _ } -> Some other
  | Some { plug = To_host _; _ } | None -> None

let[@dumbnet.hot] host_location t h =
  match Hashtbl.find_opt t.hosts h with
  | Some r -> !r
  | None -> None

let[@dumbnet.hot] fold_slots t sw f init =
  let s = switch_exn t sw in
  let acc = ref init in
  for port = 1 to Array.length s.ports - 1 do
    match s.ports.(port) with
    | Some slot -> acc := f !acc port slot
    | None -> ()
  done;
  !acc

let hosts_on_switch t sw =
  fold_slots t sw
    (fun acc port slot ->
      match slot.plug with
      | To_host h when slot.up -> (port, h) :: acc
      | To_host _ | To_switch _ -> acc)
    []
  |> List.rev

let neighbors t sw =
  fold_slots t sw
    (fun acc port slot -> if slot.up then (port, endpoint_of_plug slot.plug) :: acc else acc)
    []
  |> List.rev

let[@dumbnet.hot] switch_neighbors t sw =
  fold_slots t sw
    (fun acc port slot ->
      match slot.plug with
      | To_switch other when slot.up -> (port, other.sw, other.port) :: acc
      | To_switch _ | To_host _ -> acc)
    []
  |> List.rev

let[@dumbnet.hot] link_up t le =
  match slot_at t le with
  | Some slot -> slot.up
  | None -> false

let port_link_up t sw port =
  match Hashtbl.find_opt t.switches sw with
  | None -> false
  | Some s -> (
    if not (slot_in_range s port) then false
    else
      match s.ports.(port) with
      | Some slot -> slot.up
      | None -> false)

(* The returned closure shares the switch's own port table, so it stays
   current across link flaps and re-cabling of this switch — the graph
   never reallocates a switch's slot array. *)
let port_state_fn t sw =
  let s = switch_exn t sw in
  fun port ->
    slot_in_range s port
    &&
    match s.ports.(port) with
    | Some slot -> slot.up
    | None -> false

let set_link_state t le ~up =
  match slot_at t le with
  | None -> invalid_arg (Printf.sprintf "Graph.set_link_state: empty port S%d-%d" le.sw le.port)
  | Some slot -> (
    slot.up <- up;
    touch t;
    match slot.plug with
    | To_switch other -> (
      match slot_at t other with
      | Some peer_slot -> peer_slot.up <- up
      | None -> assert false)
    | To_host _ -> ())

let links t =
  List.fold_left
    (fun acc sw ->
      fold_slots t sw
        (fun acc port slot ->
          let this = { sw; port } in
          match slot.plug with
          | To_host h -> (this, Host h, slot.up) :: acc
          | To_switch other ->
            (* Report each cable once, from its canonical lower end. *)
            if (sw, port) < (other.sw, other.port) then (this, Switch other.sw, slot.up) :: acc
            else acc)
        acc)
    [] (switch_ids t)
  |> List.rev

let switch_links t =
  List.fold_left
    (fun acc sw ->
      fold_slots t sw
        (fun acc port slot ->
          let this = { sw; port } in
          match slot.plug with
          | To_host _ -> acc
          | To_switch other ->
            if (sw, port) < (other.sw, other.port) then (Link_key.make this other, slot.up) :: acc
            else acc)
        acc)
    [] (switch_ids t)
  |> List.rev

let copy t =
  let fresh = create () in
  fresh.next_switch <- t.next_switch;
  fresh.next_host <- t.next_host;
  Hashtbl.iter
    (fun id s ->
      let ports = Array.map (Option.map (fun slot -> { slot with up = slot.up })) s.ports in
      Hashtbl.replace fresh.switches id { ports })
    t.switches;
  Hashtbl.iter (fun id loc -> Hashtbl.replace fresh.hosts id (ref !loc)) t.hosts;
  fresh

let slot_descr t sw =
  let s = switch_exn t sw in
  Array.map (Option.map (fun slot -> (endpoint_of_plug slot.plug, slot.up))) s.ports

let equal a b =
  let ids_a = switch_ids a and ids_b = switch_ids b in
  ids_a = ids_b
  && host_ids a = host_ids b
  && List.for_all (fun sw -> slot_descr a sw = slot_descr b sw) ids_a
  && List.for_all (fun h -> host_location a h = host_location b h) (host_ids a)

(* The CSR snapshot is the one adjacency the routing layer iterates; it
   is rebuilt lazily, at most once per graph mutation. *)
let[@dumbnet.hot] adjacency t =
  match t.adj_cache with
  | Some a when Adjacency.generation a = t.generation -> a
  | Some _ | None ->
    let per_switch = List.map (fun sw -> (sw, switch_neighbors t sw)) (switch_ids t) in
    let a = Adjacency.build ~generation:t.generation per_switch in
    t.adj_cache <- Some a;
    a

let connected t =
  match switch_ids t with
  | [] -> true
  | start :: _ as all ->
    let visited = Hashtbl.create 64 in
    let rec visit sw =
      if not (Hashtbl.mem visited sw) then begin
        Hashtbl.replace visited sw ();
        List.iter (fun (_, peer, _) -> visit peer) (switch_neighbors t sw)
      end
    in
    visit start;
    List.for_all (Hashtbl.mem visited) all

let pp ppf t =
  Format.fprintf ppf "@[<v>graph: %d switches, %d hosts@," (num_switches t) (num_hosts t);
  List.iter
    (fun (le, ep, up) ->
      Format.fprintf ppf "  %a -> %a%s@," pp_link_end le pp_endpoint ep
        (if up then "" else " (down)"))
    (links t);
  Format.fprintf ppf "@]"
