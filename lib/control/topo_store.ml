open Dumbnet_topology
open Types
open Dumbnet_packet
module Pool = Dumbnet_util.Pool

(* Defined before [t] on purpose: the field names mirror [t]'s mutable
   counters, and the later definition must win unannotated inference. *)
type repair_stats = {
  repair_events : int;
  evicted_roots : int;
  retained_roots : int;
  full_resets : int;
}

type t = {
  g : Graph.t;
  dedup : Event_dedup.t;
  mutable version : int;
  mutable pending : Payload.change list; (* newest first *)
  (* Per-source-switch BFS distance tables (id-indexed int arrays, -1
     unreachable), shared across path-graph queries: the O(hosts²)
     query pattern keeps asking about the same few switches. Applied
     events repair it in place (scoped eviction below); any other graph
     mutation drops it through the generation check. *)
  dist_cache : (switch_id, Adjacency.distances) Hashtbl.t;
  (* Generation bookkeeping is split: [dist_gen] is the topology
     generation the cache as a whole is synced to — advanced in place
     by the scoped-repair paths — while per-entry validity is implied
     by membership (an entry present at [dist_gen] is exact). A
     generation move NOT routed through apply_event /
     record_discovered_link is out-of-band and drops everything. *)
  mutable dist_gen : int;
  mutable dist_hits : int;
  mutable dist_misses : int;
  mutable repair_events : int;
  mutable evicted_roots : int;
  mutable retained_roots : int;
  mutable full_resets : int;
  (* Single-writer rule: while a batch is in flight the graph and the
     shared distance cache are frozen — worker domains read them
     lock-free. Every mutator asserts this flag is clear. *)
  mutable in_batch : bool;
}

type outcome =
  | Applied
  | Ignored
  | Needs_probe of link_end

let create g =
  {
    g = Graph.copy g;
    dedup = Event_dedup.create ();
    version = 0;
    pending = [];
    dist_cache = Hashtbl.create 64;
    dist_gen = -1;
    dist_hits = 0;
    dist_misses = 0;
    repair_events = 0;
    evicted_roots = 0;
    retained_roots = 0;
    full_resets = 0;
    in_batch = false;
  }

let graph t = t.g

let version t = t.version

let in_batch t = t.in_batch

(* The guard every mutator runs: mutating the graph or the shared
   distance cache while worker domains are reading them would corrupt
   answers silently, so it is a programming error, loudly. *)
let[@dumbnet.hot] assert_not_in_batch t what =
  if t.in_batch then
    invalid_arg (Printf.sprintf "Topo_store.%s: a path-graph batch is in flight" what)

(* --- scoped distance-cache repair ------------------------------------ *)

(* Evict one stale table; the next lookup from [from] recomputes it. *)
let evict_root t from =
  Hashtbl.remove t.dist_cache from;
  t.evicted_roots <- t.evicted_roots + 1

let[@dumbnet.hot] reset_cache t =
  Hashtbl.reset t.dist_cache;
  t.dist_gen <- Graph.generation t.g

(* The one generation check — the singular lookup path and the batch
   path both come through here, so the two can never drift. A
   generation move that did not pass through the scoped-repair paths
   (which advance [dist_gen] themselves) is an out-of-band graph
   mutation: scoped repair has no event to scope to, drop everything. *)
let[@dumbnet.hot] sync_generation t =
  if Graph.generation t.g <> t.dist_gen then begin
    if Hashtbl.length t.dist_cache > 0 then t.full_resets <- t.full_resets + 1;
    reset_cache t
  end

(* Scoped repair after one switch-to-switch link event — the
   replacement for the wholesale reset. Failure: a table can change only
   if the cable is tight for it (both ends reachable, one hop apart), so
   exactly those are evicted; every other shortest path from the root
   avoids the cable. Restore (or new cable): distances can only shrink,
   and a table survives iff it already holds both ends at most one hop
   apart (no shortcut possible) or neither end at all (the cable joins
   components the root cannot see). Both rules read the cached tables
   themselves, at most one per switch, so no per-cable index is kept.
   Every retained entry is byte-identical to a from-scratch recompute —
   the qcheck incremental-vs-cold suite holds us to that. *)
let repair_after_link_change t a b ~up =
  t.repair_events <- t.repair_events + 1;
  let before = Hashtbl.length t.dist_cache in
  let stale d =
    let da = Adjacency.distance d a.sw and db = Adjacency.distance d b.sw in
    if up then not ((da >= 0 && db >= 0 && abs (da - db) <= 1) || (da < 0 && db < 0))
    else da >= 0 && db >= 0 && abs (da - db) = 1
  in
  let victims = Hashtbl.fold (fun root d acc -> if stale d then root :: acc else acc) t.dist_cache [] in
  List.iter (fun root -> evict_root t root) victims;
  t.retained_roots <- t.retained_roots + before - List.length victims;
  t.dist_gen <- Graph.generation t.g

let invalidate_dist_cache t =
  assert_not_in_batch t "invalidate_dist_cache";
  if Hashtbl.length t.dist_cache > 0 then t.full_resets <- t.full_resets + 1;
  reset_cache t

let[@dumbnet.hot] distances t ~from =
  assert_not_in_batch t "distances";
  sync_generation t;
  match Hashtbl.find_opt t.dist_cache from with
  | Some d ->
    t.dist_hits <- t.dist_hits + 1;
    d
  | None ->
    t.dist_misses <- t.dist_misses + 1;
    let d = Adjacency.bfs_distances (Graph.adjacency t.g) ~from in
    Hashtbl.replace t.dist_cache from d;
    d

(* Reading plain ints is safe at any time, batch or not. *)
let dist_cache_stats t = (t.dist_hits, t.dist_misses)

let repair_stats t : repair_stats =
  {
    repair_events = t.repair_events;
    evicted_roots = t.evicted_roots;
    retained_roots = t.retained_roots;
    full_resets = t.full_resets;
  }

let cached_roots t = Hashtbl.length t.dist_cache

let other_end t le =
  match Graph.endpoint_at t.g le with
  | Some (Switch _) -> Graph.peer_port t.g le
  | Some (Host _) -> Some le (* host links are identified by their switch end alone *)
  | None -> None

let apply_event t (e : Payload.link_event) =
  assert_not_in_batch t "apply_event";
  if not (Event_dedup.fresh t.dedup e) then Ignored
  else begin
    match other_end t e.position with
    | Some peer ->
      if Graph.link_up t.g e.position = e.up then Ignored
      else begin
        (* Settle any out-of-band staleness against the pre-event graph
           first, so the scoped repair below reasons about tables that
           were exact a moment ago. *)
        sync_generation t;
        Graph.set_link_state t.g e.position ~up:e.up;
        (if peer = e.position then
           (* Host-facing link: the switch-to-switch BFS tables cannot
              have changed — just re-sync the generation stamp. *)
           t.dist_gen <- Graph.generation t.g
         else repair_after_link_change t e.position peer ~up:e.up);
        let change =
          if e.up then Payload.Link_restored (e.position, peer)
          else Payload.Link_failed (e.position, peer)
        in
        t.pending <- change :: t.pending;
        Applied
      end
    | None -> if e.up then Needs_probe e.position else Ignored
  end

let record_discovered_link t a b =
  assert_not_in_batch t "record_discovered_link";
  sync_generation t;
  Graph.connect t.g a b;
  (* A new cable repairs like a restore: only tables that could route
     through it profitably are evicted. *)
  repair_after_link_change t a b ~up:true;
  t.pending <- Payload.Link_discovered (a, b) :: t.pending

let take_patch t =
  match t.pending with
  | [] -> None
  | changes ->
    t.pending <- [];
    t.version <- t.version + 1;
    Some (Payload.Topo_patch { version = t.version; changes = List.rev changes })

let apply_patch g changes =
  let set le ~up =
    match Graph.endpoint_at g le with
    | Some _ -> Graph.set_link_state g le ~up
    | None -> ()
  in
  List.iter
    (fun change ->
      match change with
      | Payload.Link_failed (a, _) -> set a ~up:false
      | Payload.Link_restored (a, _) -> set a ~up:true
      | Payload.Link_discovered (a, b) -> (
        match (Graph.endpoint_at g a, Graph.endpoint_at g b) with
        | None, None ->
          if List.mem a.sw (Graph.switch_ids g) && List.mem b.sw (Graph.switch_ids g) then
            Graph.connect g a b
        | Some _, _ | _, Some _ -> ())
      | Payload.Switch_removed sw ->
        if List.mem sw (Graph.switch_ids g) then
          List.iter
            (fun (p, _) -> Graph.set_link_state g { sw; port = p } ~up:false)
            (Graph.neighbors g sw))
    changes

(* --- batched path-graph service ------------------------------------- *)

(* One worker's private cache shard. Only its owning domain touches it
   during the batch; the coordinator folds it back into the shared
   cache after every chunk has joined. *)
type shard = {
  sh_tbl : (switch_id, Adjacency.distances) Hashtbl.t;
  mutable sh_hits : int;
  mutable sh_misses : int;
}

(* Group a batch by switch pair: the distinct (source switch,
   destination switch) pairs in first-appearance order, and for each
   item the index of its pair, or -1 when a host is detached. *)
let[@dumbnet.hot] group_by_switch_pair g pairs =
  let slot_of = Hashtbl.create (min 64 (Array.length pairs)) in
  let keys = ref [] and count = ref 0 in
  let slots =
    Array.map
      (fun (src, dst) ->
        match (Graph.host_location g src, Graph.host_location g dst) with
        | None, _ | _, None -> -1
        | Some a, Some b -> (
          let key = (a.sw, b.sw) in
          match Hashtbl.find_opt slot_of key with
          | Some i -> i
          | None ->
            let i = !count in
            Hashtbl.replace slot_of key i;
            keys := key :: !keys;
            incr count;
            i))
      pairs
  in
  (Array.of_list (List.rev !keys), slots)

(* Build each distinct body once — over the pool when there is one —
   then stamp every item on its body. Bodies live for this batch only:
   it sees one frozen graph, so nothing needs invalidating, and no body
   outlives the graph it was built on. *)
let serve_path_graphs ?s ?eps ?pool t pairs =
  assert_not_in_batch t "serve_path_graphs";
  (* Refresh generation-derived state while still single-threaded: the
     shared cache and the CSR adjacency snapshot are read-only below.
     Same helper as the singular path — the two checks cannot drift. *)
  sync_generation t;
  let snap = Graph.adjacency t.g in
  let jobs = match pool with Some p -> Pool.jobs p | None -> 1 in
  let shards =
    Array.init jobs (fun _ ->
        { sh_tbl = Hashtbl.create 32; sh_hits = 0; sh_misses = 0 })
  in
  let build_one ~worker (src_sw, dst_sw) =
    let shard = shards.(worker) in
    let dist ~from =
      match Hashtbl.find_opt t.dist_cache from with
      | Some d ->
        shard.sh_hits <- shard.sh_hits + 1;
        d
      | None -> (
        match Hashtbl.find_opt shard.sh_tbl from with
        | Some d ->
          shard.sh_hits <- shard.sh_hits + 1;
          d
        | None ->
          shard.sh_misses <- shard.sh_misses + 1;
          let d = Adjacency.bfs_distances snap ~from in
          Hashtbl.replace shard.sh_tbl from d;
          d)
    in
    Pathgraph.body ?s ?eps ~dist t.g ~src_sw ~dst_sw
  in
  let keys, slots = group_by_switch_pair t.g pairs in
  t.in_batch <- true;
  let bodies =
    Fun.protect
      ~finally:(fun () -> t.in_batch <- false)
      (fun () ->
        match pool with
        | Some p when Pool.worthwhile ~jobs:(Pool.jobs p) ~items:(Array.length keys) ->
          Pool.parallel_map p ~f:build_one keys
        | Some _ | None ->
          (* jobs = 1, or too few bodies to amortize handing chunks to
             parked domains: run inline, byte-identical either way. *)
          Array.map (build_one ~worker:0) keys)
  in
  (* Fold the shards back: BFS is deterministic on the frozen snapshot,
     so duplicate keys across shards hold identical tables — first one
     wins. Hit/miss totals count work actually done, duplicates
     included. *)
  Array.iter
    (fun shard ->
      Hashtbl.iter
        (fun from d -> if not (Hashtbl.mem t.dist_cache from) then Hashtbl.replace t.dist_cache from d)
        shard.sh_tbl;
      t.dist_hits <- t.dist_hits + shard.sh_hits;
      t.dist_misses <- t.dist_misses + shard.sh_misses)
    shards;
  Array.mapi
    (fun i (src, dst) ->
      let slot = slots.(i) in
      if slot < 0 then None
      else Option.bind bodies.(slot) (fun b -> Pathgraph.stamp t.g b ~src ~dst))
    pairs

(* The singular query is the batch code path with one item and no pool:
   one implementation to trust, one set of cache semantics. *)
let serve_path_graph ?s ?eps t ~src ~dst = (serve_path_graphs ?s ?eps t [| (src, dst) |]).(0)
