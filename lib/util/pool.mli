(** A reusable fixed-size pool of worker domains (OCaml 5 multicore).

    The fabric's control plane has embarrassingly parallel batch work —
    hundreds of independent path-graph computations at bootstrap and
    after a failure — but ad-hoc [Domain.spawn] calls scattered through
    the tree would make lifetimes and determinism impossible to audit.
    This module is the single place the repository is allowed to touch
    [Domain]/[Mutex]/[Condition] (dumbnet-lint rule R7 enforces it).

    Work is split into {e deterministic contiguous chunks}: with [j]
    workers over [n] items, worker [w] owns exactly the index slice
    [\[w*n/j, (w+1)*n/j)], independent of scheduling. Callers exploit
    this to give each worker a private shard (e.g. the controller's
    per-domain distance-cache shards) with no locks on the hot path.

    A pool of size 1 never spawns a domain: every call runs inline on
    the caller, byte-for-byte the single-core code path. A pool of size
    [j > 1] keeps [j - 1] worker domains parked on a condition
    variable; the caller itself acts as worker 0, so [j] chunks run on
    [j] domains in total. *)

type t

val max_default_jobs : int
(** Cap on the implicit parallelism: {!default_jobs} never answers more
    than this (currently 8) on its own — the batch workloads the pool
    serves are memory-bound beyond that. An explicit [DUMBNET_JOBS]
    may exceed it. *)

val default_jobs : unit -> int
(** The [DUMBNET_JOBS] environment variable if set to a positive
    integer, else [Domain.recommended_domain_count ()] capped at
    {!max_default_jobs}. *)

val min_items_per_worker : int
(** Smallest batch share per worker for which fan-out beats running
    sequentially (see {!worthwhile}). *)

val worthwhile : jobs:int -> items:int -> bool
(** [worthwhile ~jobs ~items] is [true] when a batch of [items] is
    large enough to amortize handing chunks to [jobs] workers
    ([items >= jobs * min_items_per_worker] and [jobs > 1]). Batch
    callers use it to fall through to the sequential path — results
    are byte-identical either way, only the wall-clock differs. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; values below 1 raise [Invalid_argument]).
    Shut the pool down with {!shutdown} (or use {!with_pool}) — a pool
    holds OS-level domains, and the runtime caps how many can exist at
    once. *)

val jobs : t -> int
(** The pool's fixed parallelism (including the caller). *)

val shutdown : t -> unit
(** Stops and joins every worker domain. Idempotent. Using the pool
    after shutdown raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val run_chunks : t -> n:int -> (worker:int -> lo:int -> hi:int -> unit) -> unit
(** [run_chunks t ~n body] executes [body ~worker ~lo ~hi] once per
    worker over the deterministic slices of [0..n-1] described above
    (empty slices are skipped). Blocks until every chunk finishes. If
    one or more chunks raise, every other chunk still runs to
    completion and the lowest-numbered worker's exception is re-raised
    on the caller — the pool stays usable. *)

val parallel_map : t -> f:(worker:int -> 'a -> 'b) -> 'a array -> 'b array
(** Chunked map preserving order: [f] is applied to every element, each
    chunk on its owning worker, and the results are stitched back in
    index order — the output is independent of [jobs] whenever [f] is.
    [worker] identifies the executing slot for shard indexing. *)
