open Dumbnet_topology
open Types

type violation =
  | Broken_at of int
  | Forbidden_switch of switch_id
  | Too_long of int
  | Policy_rejected of string

type t = {
  allowed_switches : Switch_set.t option;
  max_hops : int option;
  policies : (string * (Path.t -> bool)) list;
  view : Adjacency.t;
  src_loc : link_end;
  dst_loc : link_end;
}

let create ?allowed_switches ?max_hops ?(policies = []) ~view ~src_loc ~dst_loc () =
  { allowed_switches; max_hops; policies; view; src_loc; dst_loc }

(* Walk the hop list through the adjacency view: each hop must sit on
   the switch the previous hop delivered to, and its out port must be a
   live edge of the view (or the destination's access port at the end). *)
let structural t (path : Path.t) =
  let rec walk idx current = function
    | [] -> Error (Broken_at idx)
    | [ (sw, out) ] ->
      if sw = current && sw = t.dst_loc.sw && out = t.dst_loc.port then Ok ()
      else Error (Broken_at idx)
    | (sw, out) :: rest ->
      if sw <> current then Error (Broken_at idx)
      else begin
        match Adjacency.peer_at t.view { sw; port = out } with
        | Some peer -> walk (idx + 1) peer.sw rest
        | None -> Error (Broken_at idx)
      end
  in
  walk 0 t.src_loc.sw path.Path.hops

let verify t path =
  let ( >>= ) r f =
    match r with
    | Ok () -> f ()
    | Error _ as e -> e
  in
  structural t path
  >>= fun () ->
  (match t.allowed_switches with
  | None -> Ok ()
  | Some allowed -> (
    match List.find_opt (fun sw -> not (Switch_set.mem sw allowed)) (Path.switches path) with
    | Some sw -> Error (Forbidden_switch sw)
    | None -> Ok ()))
  >>= fun () ->
  (match t.max_hops with
  | Some budget when Path.length path > budget -> Error (Too_long (Path.length path))
  | Some _ | None -> Ok ())
  >>= fun () ->
  match List.find_opt (fun (_, p) -> not (p path)) t.policies with
  | Some (name, _) -> Error (Policy_rejected name)
  | None -> Ok ()

let pp_violation ppf = function
  | Broken_at i -> Format.fprintf ppf "broken at hop %d" i
  | Forbidden_switch sw -> Format.fprintf ppf "forbidden switch S%d" sw
  | Too_long n -> Format.fprintf ppf "too long (%d hops)" n
  | Policy_rejected name -> Format.fprintf ppf "policy %s rejected" name
