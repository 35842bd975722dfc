open Types

type t = {
  generation : int;
  ids : switch_id array; (* compact index -> switch id, ascending *)
  index : (switch_id, int) Hashtbl.t; (* switch id -> compact index *)
  row : int array; (* length n+1: row.(i)..row.(i+1)-1 are i's edges *)
  out_port : int array;
  peer_idx : int array; (* compact index of the peer, -1 if unknown *)
  peer_port : int array;
  nbr : (port * switch_id * port) list array; (* prebuilt, port order *)
}

let[@dumbnet.hot] generation t = t.generation

let[@dumbnet.hot] num_switches t = Array.length t.ids

let num_edges t = t.row.(Array.length t.ids)

let index_of t sw = Hashtbl.find_opt t.index sw

let[@dumbnet.hot] id_of t i = t.ids.(i)

let[@dumbnet.hot] build ~generation per_switch =
  let n = List.length per_switch in
  let ids = Array.make n 0 in
  let index = Hashtbl.create ((2 * n) + 1) in
  List.iteri
    (fun i (sw, _) ->
      ids.(i) <- sw;
      Hashtbl.replace index sw i)
    per_switch;
  let row = Array.make (n + 1) 0 in
  List.iteri (fun i (_, l) -> row.(i + 1) <- List.length l) per_switch;
  for i = 1 to n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let m = row.(n) in
  let out_port = Array.make m 0 in
  let peer_idx = Array.make m (-1) in
  let peer_port = Array.make m 0 in
  let nbr = Array.make n [] in
  List.iteri
    (fun i (_, l) ->
      nbr.(i) <- l;
      List.iteri
        (fun j (out, peer, pin) ->
          let e = row.(i) + j in
          out_port.(e) <- out;
          (match Hashtbl.find_opt index peer with
          | Some k -> peer_idx.(e) <- k
          | None -> ());
          peer_port.(e) <- pin)
        l)
    per_switch;
  { generation; ids; index; row; out_port; peer_idx; peer_port; nbr }

let[@dumbnet.hot] neighbors t sw =
  match Hashtbl.find_opt t.index sw with
  | Some i -> t.nbr.(i)
  | None -> []

let fn t sw = neighbors t sw

let degree t sw =
  match Hashtbl.find_opt t.index sw with
  | Some i -> t.row.(i + 1) - t.row.(i)
  | None -> 0

let[@dumbnet.hot] iter_neighbors t sw f =
  match Hashtbl.find_opt t.index sw with
  | None -> ()
  | Some i ->
    for e = t.row.(i) to t.row.(i + 1) - 1 do
      let k = t.peer_idx.(e) in
      if k >= 0 then f ~out:t.out_port.(e) ~peer:t.ids.(k) ~peer_in:t.peer_port.(e)
    done

type distances = int array

let[@dumbnet.hot] distance d sw = if sw >= 0 && sw < Array.length d then d.(sw) else -1

(* BFS over the int arrays by compact index. Switch ids are normally
   dense (0..n-1 ascending, so compact index = id) and the BFS array
   is returned as is; sparse ids are scattered into an id-indexed
   copy. *)
let[@dumbnet.hot] bfs_distances t ~from =
  match Hashtbl.find_opt t.index from with
  | None -> [||]
  | Some start ->
    let n = Array.length t.ids in
    let dist = Array.make n (-1) in
    let queue = Array.make n 0 in
    dist.(start) <- 0;
    queue.(0) <- start;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let i = queue.(!head) in
      incr head;
      let d = dist.(i) + 1 in
      for e = t.row.(i) to t.row.(i + 1) - 1 do
        let k = t.peer_idx.(e) in
        if k >= 0 && dist.(k) < 0 then begin
          dist.(k) <- d;
          queue.(!tail) <- k;
          incr tail
        end
      done
    done;
    if t.ids.(n - 1) = n - 1 then dist
    else begin
      let by_id = Array.make (t.ids.(n - 1) + 1) (-1) in
      Array.iteri (fun i d -> by_id.(t.ids.(i)) <- d) dist;
      by_id
    end

type avoiding =
  | Route of switch_id list
  | Too_long
  | Unreachable

(* FIFO BFS from [src] over the snapshot minus every cable joining two
   switches adjacent on [avoid] (a loop-free route): [pos] holds each
   switch's position on [avoid], so such a cable is one whose ends sit
   at positions one apart. Neighbours are visited in CSR order, the
   order [fn] lists them; [pred] records each switch's discoverer and
   doubles as the visited mark. The search stops as soon as [dst] is
   discovered. *)
let[@dumbnet.hot] route_avoiding t ~avoid ~max_hops ~src ~dst =
  match (Hashtbl.find_opt t.index src, Hashtbl.find_opt t.index dst) with
  | None, _ | _, None -> Unreachable
  | Some s, Some goal ->
    let n = Array.length t.ids in
    let pos = Array.make n (-1) in
    List.iteri
      (fun p sw ->
        match Hashtbl.find_opt t.index sw with
        | Some i -> pos.(i) <- p
        | None -> ())
      avoid;
    let pred = Array.make n (-1) in
    let queue = Array.make n 0 in
    pred.(s) <- s;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail && pred.(goal) < 0 do
      let i = queue.(!head) in
      incr head;
      let pi = pos.(i) in
      for e = t.row.(i) to t.row.(i + 1) - 1 do
        let k = t.peer_idx.(e) in
        if k >= 0 && pred.(k) < 0 && not (pi >= 0 && pos.(k) >= 0 && abs (pi - pos.(k)) = 1)
        then begin
          pred.(k) <- i;
          queue.(!tail) <- k;
          incr tail
        end
      done
    done;
    if pred.(goal) < 0 then Unreachable
    else begin
      let rec back i hops acc =
        if i = s then (hops, t.ids.(i) :: acc) else back pred.(i) (hops + 1) (t.ids.(i) :: acc)
      in
      let hops, route = back goal 0 [] in
      if hops < max_hops then Route route else Too_long
    end
