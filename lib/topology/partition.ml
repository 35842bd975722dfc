open Types

type t = {
  shards : int;
  of_switch : int array;
  sizes : int array;
  cut : Link_key.t list;
}

(* Switch-to-switch adjacency over *cables* (link up/down ignored): the
   partition must be a function of the wiring alone so failure churn
   during a run never moves a switch between shards. CSR layout. *)
let cable_adjacency g =
  let n = Graph.num_switches g in
  let deg = Array.make n 0 in
  let cables = Graph.switch_links g in
  List.iter
    (fun (key, _up) ->
      let a, b = Link_key.ends key in
      deg.(a.sw) <- deg.(a.sw) + 1;
      deg.(b.sw) <- deg.(b.sw) + 1)
    cables;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let nbr = Array.make (max 1 off.(n)) 0 in
  let cursor = Array.copy off in
  List.iter
    (fun (key, _up) ->
      let a, b = Link_key.ends key in
      nbr.(cursor.(a.sw)) <- b.sw;
      cursor.(a.sw) <- cursor.(a.sw) + 1;
      nbr.(cursor.(b.sw)) <- a.sw;
      cursor.(b.sw) <- cursor.(b.sw) + 1)
    cables;
  (off, nbr)

(* Region sizes follow Pool's chunking convention: shard [w] targets
   [(w+1)*n/shards - w*n/shards] switches, so sizes differ by at most
   one and every shard is non-empty. *)
let target_size n shards w = (((w + 1) * n) / shards) - ((w * n) / shards)

(* One BFS from [src] over the cable adjacency, folded into [dist] as a
   pointwise minimum — the farthest-point seeding below keeps [dist] as
   "hops to the nearest already-chosen seed". *)
let bfs_min_into (off, nbr) n src dist =
  let d = Array.make n (-1) in
  let q = Queue.create () in
  d.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    for i = off.(s) to off.(s + 1) - 1 do
      let m = nbr.(i) in
      if d.(m) < 0 then begin
        d.(m) <- d.(s) + 1;
        Queue.add m q
      end
    done
  done;
  for s = 0 to n - 1 do
    if d.(s) >= 0 && (dist.(s) < 0 || d.(s) < dist.(s)) then dist.(s) <- d.(s)
  done

(* Bubble growth (Diekmann-style): plant [shards] seeds spread as far
   apart as possible, then grow every region {e simultaneously} in
   round-robin turns, each turn taking the unassigned switch with the
   most cables into the region (ties: fewest cables leaving it, then
   the smallest id). Simultaneous growth is what recovers fat-tree pods
   — with one region grown at a time, the finished region's cores leak
   gain into the next pod's aggregation layer and steal it; with all
   regions claiming their densest neighborhoods in parallel, each pod
   is consumed by the seed planted inside it. A candidate of gain 0 is
   a fresh seed — that is also how disconnected components get
   covered. *)
let grow_regions n shards ((off, nbr) as adj) =
  let deg s = off.(s + 1) - off.(s) in
  (* Seed 0: the lowest-degree switch (periphery — an edge switch on a
     fat tree, ties to the smallest id); seed [w]: the switch farthest
     from every earlier seed (same tie-breaks). *)
  let dist = Array.make n (-1) in
  let seed = Array.make shards 0 in
  let s0 = ref 0 and best = ref max_int in
  for s = n - 1 downto 0 do
    if deg s <= !best then begin
      s0 := s;
      best := deg s
    end
  done;
  seed.(0) <- !s0;
  bfs_min_into adj n !s0 dist;
  let assign = Array.make n (-1) in
  assign.(!s0) <- 0;
  for w = 1 to shards - 1 do
    let sw = ref (-1) and bd = ref min_int and bext = ref max_int in
    for s = n - 1 downto 0 do
      if assign.(s) < 0 && (dist.(s) > !bd || (dist.(s) = !bd && deg s <= !bext)) then begin
        sw := s;
        bd := dist.(s);
        bext := deg s
      end
    done;
    seed.(w) <- !sw;
    assign.(!sw) <- w;
    bfs_min_into adj n !sw dist
  done;
  (* gain.(s * shards + w) = cables from [s] into region [w] so far. *)
  let gain = Array.make (n * shards) 0 in
  let grown = Array.make shards 0 in
  let bump s w =
    for i = off.(s) to off.(s + 1) - 1 do
      let m = nbr.(i) in
      if assign.(m) < 0 then
        gain.((m * shards) + w) <- gain.((m * shards) + w) + 1
    done
  in
  Array.iteri
    (fun w s ->
      grown.(w) <- 1;
      bump s w)
    seed;
  let placed = ref shards in
  while !placed < n do
    for w = 0 to shards - 1 do
      if grown.(w) < target_size n shards w && !placed < n then begin
        let best = ref (-1) and best_gain = ref (-1) and best_ext = ref max_int in
        for s = n - 1 downto 0 do
          if assign.(s) < 0 then begin
            let gs = gain.((s * shards) + w) in
            let ext = deg s - gs in
            if gs > !best_gain || (gs = !best_gain && ext <= !best_ext) then begin
              best := s;
              best_gain := gs;
              best_ext := ext
            end
          end
        done;
        let s = !best in
        assign.(s) <- w;
        grown.(w) <- grown.(w) + 1;
        incr placed;
        bump s w
      end
    done
  done;
  assign

(* Greedy refinement: move a boundary switch to the neighboring shard
   holding most of its cables when that strictly reduces the cut and
   both shards stay within one switch of their target size. Fixed pass
   count and id-order scanning keep it deterministic. *)
let refine n shards (off, nbr) assign sizes =
  let lo = Array.init shards (fun w -> max 1 (target_size n shards w - 1)) in
  let hi = Array.init shards (fun w -> target_size n shards w + 1) in
  let links_to = Array.make shards 0 in
  let passes = 4 in
  for _pass = 1 to passes do
    for s = 0 to n - 1 do
      let cur = assign.(s) in
      if sizes.(cur) > lo.(cur) then begin
        Array.fill links_to 0 shards 0;
        for i = off.(s) to off.(s + 1) - 1 do
          let w = assign.(nbr.(i)) in
          links_to.(w) <- links_to.(w) + 1
        done;
        let best = ref cur in
        for w = 0 to shards - 1 do
          if
            w <> cur
            && sizes.(w) < hi.(w)
            && (links_to.(w) > links_to.(!best)
               || (links_to.(w) = links_to.(!best) && w < !best && !best <> cur)
               )
          then best := w
        done;
        if !best <> cur && links_to.(!best) > links_to.(cur) then begin
          assign.(s) <- !best;
          sizes.(cur) <- sizes.(cur) - 1;
          sizes.(!best) <- sizes.(!best) + 1
        end
      end
    done
  done

let cut_of g assign =
  Graph.switch_links g
  |> List.filter_map (fun (key, _up) ->
         let a, b = Link_key.ends key in
         if assign.(a.sw) <> assign.(b.sw) then Some key else None)
  |> List.sort Link_key.compare

let compute g ~shards =
  let n = Graph.num_switches g in
  let shards = max 1 (min shards (max 1 n)) in
  if shards = 1 || n = 0 then
    {
      shards = 1;
      of_switch = Array.make n 0;
      sizes = [| n |];
      cut = [];
    }
  else begin
    let adj = cable_adjacency g in
    let assign = grow_regions n shards adj in
    let sizes = Array.make shards 0 in
    Array.iter (fun w -> sizes.(w) <- sizes.(w) + 1) assign;
    refine n shards adj assign sizes;
    { shards; of_switch = assign; sizes; cut = cut_of g assign }
  end

let cut_fraction t g =
  let total = List.length (Graph.switch_links g) in
  if total = 0 then 0.0
  else float_of_int (List.length t.cut) /. float_of_int total
