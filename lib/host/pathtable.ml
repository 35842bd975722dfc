open Dumbnet_topology
open Types
open Dumbnet_packet

type entry = {
  paths : Path.t list;
  backup : Path.t option;
}

type binding = {
  path : Path.t;
  tags : Tag.t list;
}

type slot = {
  mutable entry : entry;
  mutable degraded : bool; (* lost at least one path to a failure *)
  bindings : (int, binding) Hashtbl.t; (* flow -> bound path and its tags *)
}

type t = { slots : (host_id, slot) Hashtbl.t }

let create () = { slots = Hashtbl.create 64 }

let size t = Hashtbl.length t.slots

let set t ~dst entry =
  if entry.paths = [] then invalid_arg "Pathtable.set: entry with no paths";
  match Hashtbl.find_opt t.slots dst with
  | Some slot ->
    slot.entry <- entry;
    slot.degraded <- false;
    Hashtbl.reset slot.bindings
  | None ->
    Hashtbl.replace t.slots dst { entry; degraded = false; bindings = Hashtbl.create 8 }

let lookup t ~dst = Option.map (fun slot -> slot.entry) (Hashtbl.find_opt t.slots dst)

let remove t ~dst = Hashtbl.remove t.slots dst

let paths_to t ~dst =
  match Hashtbl.find_opt t.slots dst with
  | None -> []
  | Some slot -> (
    slot.entry.paths
    @
    match slot.entry.backup with
    | Some b -> [ b ]
    | None -> [])

(* Deterministic flow-hash over the k choices: the same flow always
   lands on the same path without per-packet randomness. *)
let[@dumbnet.hot] flow_hash flow k = if k <= 0 then 0 else abs (Hashtbl.hash flow) mod k

(* A flow's tag list is built once, when the flow is bound: every later
   packet of the flow reuses it. *)
let[@dumbnet.hot] choose_binding t ~dst ~flow =
  match Hashtbl.find_opt t.slots dst with
  | None -> None
  | Some slot -> (
    match Hashtbl.find_opt slot.bindings flow with
    | Some _ as bound -> bound
    | None -> (
      let candidate =
        match slot.entry.paths with
        | [] -> slot.entry.backup
        | paths -> List.nth_opt paths (flow_hash flow (List.length paths))
      in
      match candidate with
      | None -> None
      | Some path ->
        let b = { path; tags = Tag.of_ports (Path.tags path) } in
        Hashtbl.replace slot.bindings flow b;
        Some b))

let choose t ~dst ~flow =
  match choose_binding t ~dst ~flow with
  | Some b -> Some b.path
  | None -> None

let choose_nth t ~dst ~n =
  match Hashtbl.find_opt t.slots dst with
  | None -> None
  | Some slot -> (
    match slot.entry.paths with
    | [] -> slot.entry.backup
    | paths -> List.nth_opt paths (abs n mod List.length paths))

let invalidate_by t ~dies =
  let affected = ref 0 in
  let doomed = ref [] in
  Hashtbl.iter
    (fun dst slot ->
      let keep = List.filter (fun p -> not (dies p)) slot.entry.paths in
      let backup =
        match slot.entry.backup with
        | Some b when dies b -> None
        | other -> other
      in
      let lost_paths = List.length keep < List.length slot.entry.paths in
      let lost_backup = backup = None && slot.entry.backup <> None in
      if lost_paths || lost_backup then begin
        incr affected;
        slot.degraded <- true;
        (* Forget bindings to dropped paths so flows re-pick. *)
        Hashtbl.fold
          (fun flow b acc -> if dies b.path then flow :: acc else acc)
          slot.bindings []
        |> List.iter (Hashtbl.remove slot.bindings);
        match (keep, backup) with
        | [], None -> doomed := dst :: !doomed
        | [], Some b -> slot.entry <- { paths = [ b ]; backup = None }
        | _ :: _, _ -> slot.entry <- { paths = keep; backup }
      end)
    t.slots;
  List.iter (Hashtbl.remove t.slots) !doomed;
  !affected

let invalidate_link t key = invalidate_by t ~dies:(fun p -> Path.crosses p key)

let invalidate_end t le =
  invalidate_by t ~dies:(fun p ->
      List.exists (fun (sw, out) -> sw = le.sw && out = le.port) p.Path.hops)

let restore_requires_requery t ~dst =
  match Hashtbl.find_opt t.slots dst with
  | None -> true
  | Some slot -> slot.degraded
