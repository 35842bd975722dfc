open Dumbnet_topology
open Types
open Dumbnet_packet

type t = {
  arena : Tag_arena.t;
  pushed : (host_id * host_id, Pathgraph.compact) Hashtbl.t;
  (* cable -> the pairs whose recorded subgraph contains it *)
  subs : (Link_key.t, (host_id * host_id, unit) Hashtbl.t) Hashtbl.t;
}

let create () =
  { arena = Tag_arena.create (); pushed = Hashtbl.create 256; subs = Hashtbl.create 256 }

let unsubscribe t pair =
  match Hashtbl.find_opt t.pushed pair with
  | None -> ()
  | Some compact ->
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.subs key with
        | None -> ()
        | Some pairs ->
          Hashtbl.remove pairs pair;
          if Hashtbl.length pairs = 0 then Hashtbl.remove t.subs key)
      (Pathgraph.compact_links compact);
    Hashtbl.remove t.pushed pair

let record_push t (wire : Pathgraph.wire) =
  let pair = (wire.w_src, wire.w_dst) in
  unsubscribe t pair;
  let compact = Pathgraph.to_compact t.arena wire in
  Hashtbl.replace t.pushed pair compact;
  List.iter
    (fun key ->
      let pairs =
        match Hashtbl.find_opt t.subs key with
        | Some p -> p
        | None ->
          let p = Hashtbl.create 8 in
          Hashtbl.replace t.subs key p;
          p
      in
      Hashtbl.replace pairs pair ())
    (Pathgraph.compact_links compact)

let affected_pairs t changes =
  let hit = Hashtbl.create 32 in
  let add_key key =
    match Hashtbl.find_opt t.subs key with
    | None -> ()
    | Some pairs -> Hashtbl.iter (fun pair () -> Hashtbl.replace hit pair ()) pairs
  in
  List.iter
    (fun change ->
      match change with
      | Payload.Link_failed (a, b) -> add_key (Link_key.make a b)
      | Payload.Switch_removed sw ->
        let doomed =
          Hashtbl.fold
            (fun key _ acc ->
              let a, b = Link_key.ends key in
              if a.sw = sw || b.sw = sw then key :: acc else acc)
            t.subs []
        in
        List.iter add_key doomed
      | Payload.Link_restored _ | Payload.Link_discovered _ -> ())
    changes;
  List.sort compare (Hashtbl.fold (fun pair () acc -> pair :: acc) hit [])

let cached_graph t ~src ~dst =
  Option.map (Pathgraph.of_compact t.arena) (Hashtbl.find_opt t.pushed (src, dst))

let pairs t = Hashtbl.length t.pushed

let pair_list t = List.sort compare (Hashtbl.fold (fun pair _ acc -> pair :: acc) t.pushed [])

let arena t = t.arena

let words t = Obj.reachable_words (Obj.repr (t.pushed, t.arena))
