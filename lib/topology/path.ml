open Types

type t = {
  src : host_id;
  hops : (switch_id * port) list;
  dst : host_id;
}

type adjacency = switch_id -> (port * switch_id * port) list

let length t = List.length t.hops

let[@dumbnet.hot] tags t = List.map snd t.hops

let switches t = List.map fst t.hops

let[@dumbnet.hot] of_route_toward ~toward ~src ~src_loc ~dst ~dst_loc route =
  let rec build acc = function
    | [] -> None
    | [ last ] -> if last = dst_loc.sw then Some (List.rev ((last, dst_loc.port) :: acc)) else None
    | a :: (b :: _ as rest) ->
      let out = toward a b in
      if out < 0 then None else build ((a, out) :: acc) rest
  in
  match route with
  | [] -> None
  | first :: _ ->
    if first <> src_loc.sw then None
    else Option.map (fun hops -> { src; hops; dst }) (build [] route)

let[@dumbnet.hot] lowest_port adj a b =
  List.fold_left
    (fun best (out, peer, _) -> if peer = b && (best < 0 || out < best) then out else best)
    (-1) (adj a)

let[@dumbnet.hot] of_route ~adj = of_route_toward ~toward:(lowest_port adj)

(* Walk the tags through the graph like the switch chain would. Returns
   the final endpoint if every link on the way is present and up. *)
let walk g t =
  match Graph.host_location g t.src with
  | None -> None
  | Some src_loc ->
    if not (Graph.link_up g src_loc) then None
    else begin
      let rec step current = function
        | [] -> None
        | [ (sw, out) ] ->
          if sw <> current then None
          else begin
            let le = { sw; port = out } in
            if Graph.link_up g le then Graph.endpoint_at g le else None
          end
        | (sw, out) :: rest ->
          if sw <> current then None
          else begin
            let le = { sw; port = out } in
            if not (Graph.link_up g le) then None
            else
              match Graph.endpoint_at g le with
              | Some (Switch next) -> step next rest
              | Some (Host _) | None -> None
          end
      in
      step src_loc.sw t.hops
    end

let validate g t =
  match walk g t with
  | Some (Host h) -> h = t.dst
  | Some (Switch _) | None -> false

let reverse g t =
  if not (validate g t) then None
  else begin
    (* Collect the input port at each switch while walking forward; the
       reverse tag at a switch is that input port. *)
    match (Graph.host_location g t.src, Graph.host_location g t.dst) with
    | Some src_loc, Some _ ->
      let in_ports =
        List.fold_left
          (fun (entry_port, acc) (sw, out) ->
            let next_entry =
              match Graph.peer_port g { sw; port = out } with
              | Some peer -> peer.port
              | None -> 0 (* last hop reaches a host; value unused *)
            in
            (next_entry, (sw, entry_port) :: acc))
          (src_loc.port, []) t.hops
        |> snd
      in
      Some { src = t.dst; hops = in_ports; dst = t.src }
    | None, _ | _, None -> None
  end

let uses_link t g key =
  let rec check = function
    | [] | [ _ ] -> false
    | (sw, out) :: rest -> (
      let le = { sw; port = out } in
      match Graph.peer_port g le with
      | Some other when Link_key.equal (Link_key.make le other) key -> true
      | Some _ | None -> check rest)
  in
  check t.hops

let crosses t key =
  let a, b = Link_key.ends key in
  List.exists (fun (sw, out) -> (sw = a.sw && out = a.port) || (sw = b.sw && out = b.port)) t.hops

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "H%d" t.src;
  List.iter (fun (sw, out) -> Format.fprintf ppf "-S%d:%d" sw out) t.hops;
  Format.fprintf ppf "-H%d" t.dst
