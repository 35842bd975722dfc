open Dumbnet_topology
open Types

type t = {
  root : switch_id;
  (* Child -> (child's uplink port, parent, parent's port); absent for
     the root. *)
  parent : (switch_id, port * switch_id * port) Hashtbl.t;
  depth : (switch_id, int) Hashtbl.t;
  (* The tree's cables, packed at build time: forwarding keeps using
     them until the modelled re-convergence replaces the tree. *)
  adj : Adjacency.t;
  tree : Link_set.t;
  host_loc : (host_id, link_end) Hashtbl.t;
}

let build g =
  match Graph.switch_ids g with
  | [] -> invalid_arg "Stp.build: no switches"
  | root :: _ ->
    let parent = Hashtbl.create 64 in
    let depth = Hashtbl.create 64 in
    let tree = ref Link_set.empty in
    Hashtbl.replace depth root 0;
    let q = Queue.create () in
    Queue.add root q;
    while not (Queue.is_empty q) do
      let sw = Queue.pop q in
      (* Every queued switch was assigned a depth when first reached. *)
      match Hashtbl.find_opt depth sw with
      | None -> ()
      | Some d ->
        (* Deterministic: neighbours in increasing port order, like the
           lowest-port tie-break of the standard. *)
        List.iter
        (fun (out, peer, peer_in) ->
          if not (Hashtbl.mem depth peer) then begin
            Hashtbl.replace depth peer (d + 1);
            Hashtbl.replace parent peer (peer_in, sw, out);
            tree :=
              Link_set.add
                (Link_key.make { sw; port = out } { sw = peer; port = peer_in })
                !tree;
            Queue.add peer q
          end)
        (Graph.switch_neighbors g sw)
    done;
    let host_loc = Hashtbl.create 64 in
    List.iter
      (fun h ->
        match Graph.host_location g h with
        | Some loc when Graph.link_up g loc -> Hashtbl.replace host_loc h loc
        | Some _ | None -> ())
      (Graph.host_ids g);
    let cables =
      Array.concat
        (List.map
           (fun key ->
             let a, b = Link_key.ends key in
             [| a.sw; a.port; b.sw; b.port |])
           (Link_set.elements !tree))
    in
    let switches = Array.of_list (List.filter (Hashtbl.mem depth) (Graph.switch_ids g)) in
    { root; parent; depth; adj = Adjacency.of_cables ~switches cables; tree = !tree; host_loc }

let root t = t.root

let tree_links t = Link_set.elements t.tree

let blocks t key = not (Link_set.mem key t.tree)

(* Climb both endpoints to their lowest common ancestor. *)
let switch_route t a b =
  let rec ancestors sw acc =
    match Hashtbl.find_opt t.parent sw with
    | None -> sw :: acc
    | Some (_, p, _) -> ancestors p (sw :: acc)
  in
  if not (Hashtbl.mem t.depth a && Hashtbl.mem t.depth b) then None
  else begin
    let pa = ancestors a [] and pb = ancestors b [] in
    (* pa, pb run root..endpoint; strip the common prefix. *)
    let rec strip lca = function
      | x :: xs, y :: ys when x = y -> strip (Some x) (xs, ys)
      | rest -> (lca, rest)
    in
    match strip None (pa, pb) with
    | Some lca, (da, db) -> Some (List.rev da @ [ lca ] @ db)
    | None, _ -> None
  end

let path t ~src ~dst =
  if src = dst then None
  else
    match (Hashtbl.find_opt t.host_loc src, Hashtbl.find_opt t.host_loc dst) with
    | Some src_loc, Some dst_loc ->
      Option.bind (switch_route t src_loc.sw dst_loc.sw)
        (Path.of_route t.adj ~src ~src_loc ~dst ~dst_loc)
    | None, _ | _, None -> None

let routing_fn tref agent ~now_ns:_ ~dst ~flow:_ = path !tref ~src:(Dumbnet_host.Agent.self agent) ~dst

let bpdu_round_ns = 8_000_000

let convergence_delay_ns g =
  let t = build g in
  let max_depth = Hashtbl.fold (fun _ d acc -> max d acc) t.depth 0 in
  (max_depth + 2) * bpdu_round_ns
