open Types
module Rng = Dumbnet_util.Rng

type t = {
  generation : int;
  ids : switch_id array; (* compact index -> switch id, strictly ascending *)
  row : int array; (* length n+1: row.(i)..row.(i+1)-1 are i's edges *)
  out_port : int array;
  peer_idx : int array; (* compact index of the peer, -1 if unknown *)
  peer_port : int array;
  (* Prebuilt per-switch lists, port order, for a graph snapshot;
     [||] for a packed subgraph ({!of_cables}), whose lists are built
     on each {!neighbors} call: hosts cache thousands of subgraphs and
     read few of their rows, and prebuilding every subgraph's lists
     cost fabbench querystorm_ft16 10.5 MiB of peak RSS (90.3 -> 100.8)
     and 2-11% of its queries/s, 3 of 3 15 s runs on 2 cores. *)
  nbr : (port * switch_id * port) list array;
}

let[@dumbnet.hot] generation t = t.generation

let[@dumbnet.hot] num_switches t = Array.length t.ids

let[@dumbnet.hot] num_edges t = t.row.(Array.length t.ids)

(* Compact index of [sw], or -1: direct when ids are dense (a fabric's
   switches 0..n-1), else a binary search over the ascending ids. *)
let[@dumbnet.hot] find t sw =
  let ids = t.ids in
  let n = Array.length ids in
  if sw >= 0 && sw < n && ids.(sw) = sw then sw
  else begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = ids.(mid) in
      if v = sw then found := mid else if v < sw then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

let[@dumbnet.hot] id_bound t =
  let n = Array.length t.ids in
  if n = 0 then 0 else t.ids.(n - 1) + 1

let[@dumbnet.hot] build ~generation per_switch =
  let n = List.length per_switch in
  let ids = Array.make n 0 in
  List.iteri (fun i (sw, _) -> ids.(i) <- sw) per_switch;
  let row = Array.make (n + 1) 0 in
  List.iteri (fun i (_, l) -> row.(i + 1) <- List.length l) per_switch;
  for i = 1 to n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let m = row.(n) in
  let t =
    {
      generation;
      ids;
      row;
      out_port = Array.make m 0;
      peer_idx = Array.make m (-1);
      peer_port = Array.make m 0;
      nbr = Array.make n [];
    }
  in
  List.iteri
    (fun i (_, l) ->
      t.nbr.(i) <- l;
      List.iteri
        (fun j (out, peer, pin) ->
          let e = row.(i) + j in
          t.out_port.(e) <- out;
          t.peer_idx.(e) <- find t peer;
          t.peer_port.(e) <- pin)
        l)
    per_switch;
  t

(* Insertion sort of row [i]'s edge slots by out port; rows are a
   switch's degree long. *)
let[@dumbnet.hot] sort_row t i =
  for e = t.row.(i) + 1 to t.row.(i + 1) - 1 do
    let out = t.out_port.(e) and k = t.peer_idx.(e) and pin = t.peer_port.(e) in
    let j = ref e in
    while !j > t.row.(i) && t.out_port.(!j - 1) > out do
      t.out_port.(!j) <- t.out_port.(!j - 1);
      t.peer_idx.(!j) <- t.peer_idx.(!j - 1);
      t.peer_port.(!j) <- t.peer_port.(!j - 1);
      decr j
    done;
    t.out_port.(!j) <- out;
    t.peer_idx.(!j) <- k;
    t.peer_port.(!j) <- pin
  done

let[@dumbnet.hot] of_cables ~switches cables =
  let n = Array.length switches in
  let m = Array.length cables / 4 in
  let t =
    {
      generation = 0;
      ids = switches;
      row = Array.make (n + 1) 0;
      out_port = Array.make (2 * m) 0;
      peer_idx = Array.make (2 * m) 0;
      peer_port = Array.make (2 * m) 0;
      nbr = [||];
    }
  in
  let ends = Array.make (2 * m) 0 in
  for c = 0 to m - 1 do
    let a = find t cables.(4 * c) and b = find t cables.((4 * c) + 2) in
    if a < 0 || b < 0 then invalid_arg "Adjacency.of_cables: cable end outside the switches";
    ends.(2 * c) <- a;
    ends.((2 * c) + 1) <- b;
    t.row.(a + 1) <- t.row.(a + 1) + 1;
    t.row.(b + 1) <- t.row.(b + 1) + 1
  done;
  for i = 1 to n do
    t.row.(i) <- t.row.(i) + t.row.(i - 1)
  done;
  let next = Array.sub t.row 0 (max n 1) in
  let put i ~out ~peer ~pin =
    let e = next.(i) in
    next.(i) <- e + 1;
    t.out_port.(e) <- out;
    t.peer_idx.(e) <- peer;
    t.peer_port.(e) <- pin
  in
  for c = 0 to m - 1 do
    let a = ends.(2 * c) and b = ends.((2 * c) + 1) in
    let pa = cables.((4 * c) + 1) and pb = cables.((4 * c) + 3) in
    put a ~out:pa ~peer:b ~pin:pb;
    put b ~out:pb ~peer:a ~pin:pa
  done;
  for i = 0 to n - 1 do
    sort_row t i
  done;
  t

let[@dumbnet.hot] induced t mark =
  let marked sw = sw >= 0 && sw < Bytes.length mark && Bytes.get mark sw <> '\000' in
  let n = Array.length t.ids in
  (* One pass to count, one to fill: each cable once, from its lower
     end. Rows are in port order and ids ascend, so the cables come out
     sorted. *)
  let emit f =
    for i = 0 to n - 1 do
      let sw = t.ids.(i) in
      if marked sw then
        for e = t.row.(i) to t.row.(i + 1) - 1 do
          let k = t.peer_idx.(e) in
          if k >= 0 then begin
            let peer = t.ids.(k) in
            if marked peer && (sw < peer || (sw = peer && t.out_port.(e) < t.peer_port.(e))) then
              f sw t.out_port.(e) peer t.peer_port.(e)
          end
        done
    done
  in
  let count = ref 0 in
  emit (fun _ _ _ _ -> incr count);
  let cables = Array.make (4 * !count) 0 in
  let c = ref 0 in
  emit (fun a pa b pb ->
      cables.(!c) <- a;
      cables.(!c + 1) <- pa;
      cables.(!c + 2) <- b;
      cables.(!c + 3) <- pb;
      c := !c + 4);
  cables

let[@dumbnet.hot] row_list t i =
  let rec go e acc =
    if e < t.row.(i) then acc
    else
      let k = t.peer_idx.(e) in
      go (e - 1) (if k >= 0 then (t.out_port.(e), t.ids.(k), t.peer_port.(e)) :: acc else acc)
  in
  go (t.row.(i + 1) - 1) []

let[@dumbnet.hot] neighbors t sw =
  let i = find t sw in
  if i < 0 then [] else if i < Array.length t.nbr then t.nbr.(i) else row_list t i

let[@dumbnet.hot] fn t sw = neighbors t sw

let[@dumbnet.hot] lowest_port_toward t a b =
  let i = find t a in
  let port = ref (-1) in
  if i >= 0 then begin
    let e = ref t.row.(i) in
    while !port < 0 && !e < t.row.(i + 1) do
      let k = t.peer_idx.(!e) in
      if k >= 0 && t.ids.(k) = b then port := t.out_port.(!e);
      incr e
    done
  end;
  !port

type distances = int array

let[@dumbnet.hot] distance d sw = if sw >= 0 && sw < Array.length d then d.(sw) else -1

(* BFS over the int arrays by compact index. Switch ids are normally
   dense (0..n-1 ascending, so compact index = id) and the BFS array
   is returned as is; sparse ids are scattered into an id-indexed
   copy. *)
let[@dumbnet.hot] bfs_distances t ~from =
  match find t from with
  | -1 -> [||]
  | start ->
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
  let s = find t src and goal = find t dst in
  if s < 0 || goal < 0 then Unreachable
  else begin
    let n = Array.length t.ids in
    let pos = Array.make n (-1) in
    List.iteri
      (fun p sw ->
        let i = find t sw in
        if i >= 0 then pos.(i) <- p)
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
  end

(* Yen's k shortest loop-free routes, on the CSR rows by compact index.
   One [yen] scratch serves every spur search of a call. A ban is the
   stamp of the spur search that set it, so a new spur clears nothing:
   [ban_node] marks the root prefix, [ban_edge] the directed edge slots
   of every cable between a banned switch pair. *)
type yen = {
  snap : t;
  dist : int array; (* hops to the goal, -1 if not discovered *)
  queue : int array;
  ban_node : int array;
  ban_edge : int array;
  cand : int array; (* next-step candidates, distinct and ascending *)
  walk : int array; (* the switches a walk visits after its start *)
  mutable stamp : int;
}

let[@dumbnet.hot] ban_cables y a b =
  let t = y.snap in
  for e = t.row.(a) to t.row.(a + 1) - 1 do
    if t.peer_idx.(e) = b then y.ban_edge.(e) <- y.stamp
  done;
  for e = t.row.(b) to t.row.(b + 1) - 1 do
    if t.peer_idx.(e) = a then y.ban_edge.(e) <- y.stamp
  done

(* Yen's deviation rule at spur position [i] of [last]: ban the root
   prefix before the spur, and the next cable of every chosen route
   that shares the root [last.(0..i)]. *)
let[@dumbnet.hot] ban_root y last i chosen =
  for j = 0 to i - 1 do
    y.ban_node.(last.(j)) <- y.stamp
  done;
  let rec shares r j = j > i || (r.(j) = last.(j) && shares r (j + 1)) in
  let rec deviations = function
    | [] -> ()
    | r :: rest ->
      if Array.length r > i + 1 && shares r 0 then ban_cables y r.(i) r.(i + 1);
      deviations rest
  in
  deviations chosen

(* BFS from [goal] over the unbanned switches and cables, stopped once
   [from] is discovered: every switch nearer the goal than [from] then
   holds its exact distance, and those are the only ones a walk from
   [from] reads. *)
let[@dumbnet.hot] spur_distances y ~goal ~from =
  let t = y.snap in
  Array.fill y.dist 0 (Array.length y.dist) (-1);
  y.dist.(goal) <- 0;
  y.queue.(0) <- goal;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && y.dist.(from) < 0 do
    let i = y.queue.(!head) in
    incr head;
    let d = y.dist.(i) + 1 in
    for e = t.row.(i) to t.row.(i + 1) - 1 do
      let k = t.peer_idx.(e) in
      if k >= 0 && y.dist.(k) < 0 && y.ban_edge.(e) <> y.stamp && y.ban_node.(k) <> y.stamp
      then begin
        y.dist.(k) <- d;
        y.queue.(!tail) <- k;
        incr tail
      end
    done
  done

(* Insert compact index [k] into the [c] sorted candidates unless it is
   already there; returns the new count. Compact indices ascend with
   switch id. *)
let[@dumbnet.hot] add_candidate y c k =
  let j = ref c in
  while !j > 0 && y.cand.(!j - 1) > k do
    decr j
  done;
  if !j > 0 && y.cand.(!j - 1) = k then c
  else begin
    Array.blit y.cand !j y.cand (!j + 1) (c - !j);
    y.cand.(!j) <- k;
    c + 1
  end

(* Walk from [from] down the distance table, one hop closer per step,
   over unbanned cables; with [rng], one uniform draw among the distinct
   candidate peers at every step (even a lone one), else the lowest
   switch id. Fills [walk] and returns its length, or -1 if [from] is
   cut off from the goal. *)
let[@dumbnet.hot] walk_down y rng ~from =
  let t = y.snap in
  let d0 = y.dist.(from) in
  let rec step i left n =
    if left = 0 then n
    else begin
      let c = ref 0 in
      for e = t.row.(i) to t.row.(i + 1) - 1 do
        let k = t.peer_idx.(e) in
        if k >= 0 && y.ban_edge.(e) <> y.stamp && y.dist.(k) = left - 1 then
          c := add_candidate y !c k
      done;
      if !c = 0 then -1
      else begin
        let next =
          match rng with
          | Some rng -> y.cand.(Rng.int rng !c)
          | None -> y.cand.(0)
        in
        y.walk.(n) <- next;
        step next (left - 1) (n + 1)
      end
    end
  in
  if d0 < 0 then -1 else step from d0 0

(* Candidates stay sorted by length, ties in insertion order. *)
let[@dumbnet.hot] rec insert_candidate route = function
  | r :: rest when Array.length r <= Array.length route -> r :: insert_candidate route rest
  | later -> route :: later

let[@dumbnet.hot] route_ids t r =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.ids.(r.(i)) :: acc) in
  go (Array.length r - 1) []

let[@dumbnet.hot] k_shortest_routes ?rng t ~src ~dst ~k =
  if k <= 0 then []
  else if src = dst then [ [ src ] ]
  else
    let s = find t src and goal = find t dst in
    if s < 0 || goal < 0 then []
    else begin
      let n = Array.length t.ids in
      let y =
        {
          snap = t;
          dist = Array.make n (-1);
          queue = Array.make n 0;
          ban_node = Array.make n (-1);
          ban_edge = Array.make (num_edges t) (-1);
          cand = Array.make n 0;
          walk = Array.make n 0;
          stamp = 0;
        }
      in
      spur_distances y ~goal ~from:s;
      (* [root.(0..i)] followed by the [len] switches of the last walk. *)
      let splice root i len =
        let route = Array.make (i + 1 + len) 0 in
        Array.blit root 0 route 0 (i + 1);
        Array.blit y.walk 0 route (i + 1) len;
        route
      in
      let len = walk_down y rng ~from:s in
      if len < 0 then []
      else begin
        let first = splice [| s |] 0 len in
        (* [seen]: every route ever found, chosen or still a candidate. *)
        let seen = ref [ first ] and candidates = ref [] in
        let rec fill chosen count last =
          if count >= k then chosen
          else begin
            for i = 0 to Array.length last - 2 do
              y.stamp <- y.stamp + 1;
              ban_root y last i chosen;
              spur_distances y ~goal ~from:last.(i);
              let len = walk_down y rng ~from:last.(i) in
              if len >= 0 then begin
                let route = splice last i len in
                if not (List.mem route !seen) then begin
                  seen := route :: !seen;
                  candidates := insert_candidate route !candidates
                end
              end
            done;
            match !candidates with
            | [] -> chosen
            | next :: rest ->
              candidates := rest;
              fill (next :: chosen) (count + 1) next
          end
        in
        List.rev_map (route_ids t) (fill [ first ] 1 first)
      end
    end
