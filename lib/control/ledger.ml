open Dumbnet_topology
open Types
open Dumbnet_packet

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = {
  arena : Tag_arena.t;
  pushed : Pathgraph.compact Int_tbl.t;  (* pair key -> its graph *)
  (* cable key -> the pair keys whose recorded subgraph contains it *)
  subs : unit Int_tbl.t Int_tbl.t;
}

(* Keys: a pair is [src dst] in 30 bits each, a cable
   [a.sw a.port b.sw b.port] in 22 + 8 + 22 + 8 bits. Both orders are
   the lexicographic order of their fields. [Graph] refuses ids past
   [Types.max_host_id] and [Types.max_switch_id], which are these
   ranges, so the checks here fire only on graphs built elsewhere. *)
let host_bits = 30

let switch_bits = 22

let port_bits = 8

let check_range what bits id =
  if id < 0 || id lsr bits <> 0 then
    invalid_arg (Printf.sprintf "Ledger: %s %d outside 0..%d" what id ((1 lsl bits) - 1))

let pair_key (src, dst) =
  check_range "host id" host_bits src;
  check_range "host id" host_bits dst;
  (src lsl host_bits) lor dst

let pair_of_key key = (key lsr host_bits, key land ((1 lsl host_bits) - 1))

let[@dumbnet.hot] pack_cable a pa b pb =
  (((((a lsl port_bits) lor pa) lsl switch_bits) lor b) lsl port_bits) lor pb

let cable_key a pa b pb =
  check_range "switch id" switch_bits a;
  check_range "switch id" switch_bits b;
  check_range "port" port_bits pa;
  check_range "port" port_bits pb;
  pack_cable a pa b pb

let end_switches key =
  (key lsr (port_bits + switch_bits + port_bits), (key lsr port_bits) land ((1 lsl switch_bits) - 1))

let create () =
  { arena = Tag_arena.create (); pushed = Int_tbl.create 256; subs = Int_tbl.create 256 }

(* A recorded graph's keys were checked when it was recorded. *)
let iter_keys compact f =
  let c = Pathgraph.compact_cables compact in
  for i = 0 to (Array.length c / 4) - 1 do
    f (pack_cable c.(4 * i) c.((4 * i) + 1) c.((4 * i) + 2) c.((4 * i) + 3))
  done

let forget t pair =
  match Int_tbl.find_opt t.pushed pair with
  | None -> ()
  | Some compact ->
    iter_keys compact (fun key ->
        match Int_tbl.find_opt t.subs key with
        | None -> ()
        | Some pairs ->
          Int_tbl.remove pairs pair;
          if Int_tbl.length pairs = 0 then Int_tbl.remove t.subs key);
    Int_tbl.remove t.pushed pair

let unsubscribe t pair = forget t (pair_key pair)

let record_push t pg =
  let pair = pair_key (Pathgraph.src pg, Pathgraph.dst pg) in
  (* Every key is built, and so checked, before the ledger changes. *)
  let keys = Array.make (Pathgraph.link_count pg) 0 in
  let i = ref 0 in
  Pathgraph.iter_cables pg (fun a pa b pb ->
      keys.(!i) <- cable_key a pa b pb;
      incr i);
  forget t pair;
  Int_tbl.replace t.pushed pair (Pathgraph.to_compact t.arena pg);
  Array.iter
    (fun key ->
      let pairs =
        match Int_tbl.find_opt t.subs key with
        | Some p -> p
        | None ->
          let p = Int_tbl.create 8 in
          Int_tbl.replace t.subs key p;
          p
      in
      Int_tbl.replace pairs pair ())
    keys

let affected_pairs t changes =
  let hit = Int_tbl.create 32 in
  let add_key key =
    match Int_tbl.find_opt t.subs key with
    | None -> ()
    | Some pairs -> Int_tbl.iter (fun pair () -> Int_tbl.replace hit pair ()) pairs
  in
  List.iter
    (fun change ->
      match change with
      | Payload.Link_failed (a, b) ->
        let a, b = Link_key.ends (Link_key.make a b) in
        add_key (cable_key a.sw a.port b.sw b.port)
      | Payload.Switch_removed sw ->
        let doomed =
          Int_tbl.fold
            (fun key _ acc ->
              let a, b = end_switches key in
              if a = sw || b = sw then key :: acc else acc)
            t.subs []
        in
        List.iter add_key doomed
      | Payload.Link_restored _ | Payload.Link_discovered _ -> ())
    changes;
  Int_tbl.fold (fun pair () acc -> pair :: acc) hit []
  |> List.sort Int.compare |> List.map pair_of_key

let cached_graph t ~src ~dst =
  Option.map (Pathgraph.of_compact t.arena) (Int_tbl.find_opt t.pushed (pair_key (src, dst)))

let pairs t = Int_tbl.length t.pushed

let pair_list t =
  Int_tbl.fold (fun pair _ acc -> pair :: acc) t.pushed [] |> List.sort Int.compare |> List.map pair_of_key

let arena t = t.arena

let words t = Obj.reachable_words (Obj.repr (t.pushed, t.arena))
