open Dumbnet_topology
open Types
open Dumbnet_packet
module Pool = Dumbnet_util.Pool
module Rng = Dumbnet_util.Rng

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
     query pattern keeps asking about the same few switches.
     Generation-checked against the graph so any applied event (failure
     notice, patch, discovered link) invalidates it. *)
  dist_cache : (switch_id, Adjacency.distances) Hashtbl.t;
  (* Reverse index for scoped invalidation: cable -> the BFS roots whose
     cached table the cable is tight for (|d a - d b| = 1), plus the
     forward map so evicting a root can unregister it. Failing any
     non-tight cable provably changes no distance from that root, so a
     single link event evicts only the reverse-index hit set instead of
     resetting the table (the pre-PR recompute storm). *)
  link_users : (Link_key.t, (switch_id, unit) Hashtbl.t) Hashtbl.t;
  root_links : (switch_id, Link_key.t list) Hashtbl.t;
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
    link_users = Hashtbl.create 64;
    root_links = Hashtbl.create 64;
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

(* Record [from]'s freshly computed table in the cache and in the
   reverse index: every cable that is tight for it (|d a - d b| = 1,
   both ends reachable) can invalidate it later; no other cable can. *)
let[@dumbnet.hot] register_root t from d =
  let snap = Graph.adjacency t.g in
  let keys = ref [] in
  for i = 0 to Adjacency.num_switches snap - 1 do
    let sw = Adjacency.id_of snap i in
    let dsw = Adjacency.distance d sw in
    if dsw >= 0 then
      Adjacency.iter_neighbors snap sw (fun ~out ~peer ~peer_in ->
          if sw < peer then begin
            let dpeer = Adjacency.distance d peer in
            if dpeer >= 0 && abs (dsw - dpeer) = 1 then begin
              let key = Link_key.make { sw; port = out } { sw = peer; port = peer_in } in
              keys := key :: !keys;
              let users =
                match Hashtbl.find_opt t.link_users key with
                | Some u -> u
                | None ->
                  let u = Hashtbl.create 8 in
                  Hashtbl.replace t.link_users key u;
                  u
              in
              Hashtbl.replace users from ()
            end
          end)
  done;
  Hashtbl.replace t.root_links from !keys

let[@dumbnet.hot] insert_table t from d =
  Hashtbl.replace t.dist_cache from d;
  register_root t from d

let unregister_root t from =
  (match Hashtbl.find_opt t.root_links from with
  | None -> ()
  | Some keys ->
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.link_users key with
        | None -> ()
        | Some users ->
          Hashtbl.remove users from;
          if Hashtbl.length users = 0 then Hashtbl.remove t.link_users key)
      keys);
  Hashtbl.remove t.root_links from

(* Evict one stale table; the next lookup from [from] recomputes it. *)
let evict_root t from =
  Hashtbl.remove t.dist_cache from;
  unregister_root t from;
  t.evicted_roots <- t.evicted_roots + 1

let[@dumbnet.hot] reset_cache t =
  Hashtbl.reset t.dist_cache;
  Hashtbl.reset t.link_users;
  Hashtbl.reset t.root_links;
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
   replacement for the wholesale reset. Failure: exactly the
   reverse-index hit set can change. Restore (or new cable): distances
   can only shrink, and a table survives iff it already holds both
   ends at most one hop apart (no shortcut possible) or neither end at
   all (the cable joins components the root cannot see). Both rules
   are exact for BFS distance tables, so every retained entry is
   byte-identical to a from-scratch recompute — the qcheck
   incremental-vs-cold suite holds us to that. *)
let repair_after_link_change t a b ~up =
  t.repair_events <- t.repair_events + 1;
  let before = Hashtbl.length t.dist_cache in
  let victims = ref [] in
  if not up then begin
    match Hashtbl.find_opt t.link_users (Link_key.make a b) with
    | None -> ()
    | Some users -> Hashtbl.iter (fun root () -> victims := root :: !victims) users
  end
  else
    Hashtbl.iter
      (fun root d ->
        let da = Adjacency.distance d a.sw and db = Adjacency.distance d b.sw in
        let unchanged = (da >= 0 && db >= 0 && abs (da - db) <= 1) || (da < 0 && db < 0) in
        if not unchanged then victims := root :: !victims)
      t.dist_cache;
  List.iter (fun root -> evict_root t root) !victims;
  t.retained_roots <- t.retained_roots + before - List.length !victims;
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
    insert_table t from d;
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

(* The determinism contract: when a batch wants randomized tie-breaks,
   each item draws from its own generator seeded purely from
   (src, dst, epoch) — never from a stream shared across items — so the
   answer for a pair depends only on the topology, not on batch
   composition, chunking, or domain scheduling. [epoch] is the graph
   generation: any applied event reseeds every pair. *)
let item_seed ~epoch ~src ~dst =
  let mix h v = (h lxor (v + 0x9e3779b9 + (h lsl 6) + (h lsr 2))) land max_int in
  mix (mix (mix 0x27d4eb2d epoch) src) dst

(* One worker's private cache shard. Only its owning domain touches it
   during the batch; the coordinator folds it back into the shared
   cache after every chunk has joined. *)
type shard = {
  sh_tbl : (switch_id, Adjacency.distances) Hashtbl.t;
  mutable sh_hits : int;
  mutable sh_misses : int;
}

let serve_batch ?s ?eps ~rng_for ~pool t pairs =
  assert_not_in_batch t "serve_path_graphs";
  (* Refresh generation-derived state while still single-threaded: the
     shared cache and the CSR adjacency snapshot are read-only below.
     Same helper as the singular path — the two checks cannot drift. *)
  sync_generation t;
  let snap = Graph.adjacency t.g in
  let epoch = Graph.generation t.g in
  let jobs = match pool with Some p -> Pool.jobs p | None -> 1 in
  let shards =
    Array.init jobs (fun _ ->
        { sh_tbl = Hashtbl.create 32; sh_hits = 0; sh_misses = 0 })
  in
  let serve_one ~worker (src, dst) =
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
    let rng = rng_for ~epoch ~src ~dst in
    Pathgraph.generate ?s ?eps ?rng ~dist t.g ~src ~dst
  in
  t.in_batch <- true;
  let results =
    Fun.protect
      ~finally:(fun () -> t.in_batch <- false)
      (fun () ->
        match pool with
        | Some p when Pool.worthwhile ~jobs:(Pool.jobs p) ~items:(Array.length pairs) ->
          Pool.parallel_map p ~f:serve_one pairs
        | Some _ | None ->
          (* jobs = 1, or a batch too small to amortize handing chunks
             to parked domains: run inline, byte-identical either way. *)
          Array.map (serve_one ~worker:0) pairs)
  in
  (* Fold the shards back: BFS is deterministic on the frozen snapshot,
     so duplicate keys across shards hold identical tables — first one
     wins. Hit/miss totals count work actually done, duplicates
     included. *)
  Array.iter
    (fun shard ->
      Hashtbl.iter
        (fun from d ->
          if not (Hashtbl.mem t.dist_cache from) then insert_table t from d)
        shard.sh_tbl;
      t.dist_hits <- t.dist_hits + shard.sh_hits;
      t.dist_misses <- t.dist_misses + shard.sh_misses)
    shards;
  results

let serve_path_graphs ?s ?eps ?(randomize = false) ?pool t pairs =
  let rng_for ~epoch ~src ~dst =
    if randomize then Some (Rng.create (item_seed ~epoch ~src ~dst)) else None
  in
  serve_batch ?s ?eps ~rng_for ~pool t pairs

(* The singular query is the batch code path with one item and no pool:
   one implementation to trust, one set of cache semantics. *)
let serve_path_graph ?s ?eps ?rng t ~src ~dst =
  let rng_for ~epoch:_ ~src:_ ~dst:_ = rng in
  (serve_batch ?s ?eps ~rng_for ~pool:None t [| (src, dst) |]).(0)
