(** Multi-domain serving pool: one shared synopsis, N worker shards.

    The pool is the multi-domain front end of the {!Shard} pipeline, the same
    code {!Engine_core} runs inline. It owns one synopsis (kernel + HET +
    value synopsis) and one eagerly materialized EPT, shared read-only by
    [workers] domains. Each worker runs a private shard — its own
    {!Lru_cache}, {!Flight_recorder} ring, {!Obs} registry and {!Drift}
    volume rings — so the estimate hot path takes no lock beyond the
    sharded {!Work_queue}'s own mutex. A coordinator shard (base
    estimator, no cache, its own ring) runs the drained verbs.

    {b Chunk dispatch} (DESIGN.md §16). A batch of [n] queries is cut by
    {!plan_chunks} into contiguous per-shard slices, one queue operation
    per chunk rather than per query. Workers write replies lock-free into
    the batch's preallocated submission-order result array; the only
    synchronization per chunk is one idempotent completion latch. Idle
    shards steal chunks from the tail of busy shards' deques — a victim's
    last divisible chunk is split in half, and a lone length-1 chunk is
    never stolen — so a straggler no longer serializes the batch.
    Per-shard mutable hot state is padded past a cache line to kill false
    sharing between worker domains.

    {b Single-writer feedback.} [feedback] (and [explain]) take the
    submission lock, wait for in-flight chunks to drain, and only then
    touch the shared HET/EPT. A refining feedback bumps the pool {!epoch};
    workers compare it at their next dequeue and drop their now-stale
    caches. No estimate ever observes a half-applied refinement.

    {b Determinism.} Over the same synopsis, pool estimates are
    bit-identical to a single {!Engine_core.t}'s — with chunking, stealing
    and affinity in any combination: both run the same shard pipeline, the
    matcher keeps all per-query scratch off the shared EPT, and every
    shard estimator is built from the same kernel/HET/values. Merged metrics ({!metrics_text}) are
    rendered from a per-scrape registry with series sorted by key, so the
    exposition does not depend on scheduling. *)

type t

val create :
  ?workers:int ->
  ?qerror_threshold:float ->
  ?cache_capacity:int ->
  ?telemetry:bool ->
  ?recorder_capacity:int ->
  ?drift_slots:int ->
  ?drift_per_slot:int ->
  ?drift_p90_threshold:float ->
  ?queue_capacity:int ->
  ?chunk_target:int ->
  ?steal:bool ->
  ?trace:Obs.Trace.t ->
  ?deadline_s:float ->
  ?shed_policy:[ `Block | `Shed_newest ] ->
  ?chaos:(string -> bool) ->
  ?auditor:Auditor.t ->
  Core.Estimator.t ->
  t
(** Spawns [workers] (default 2) domains immediately; call {!shutdown}
    when done. [cache_capacity] (default 1024) and [recorder_capacity]
    (default 256) are {e per shard}; [queue_capacity] (default 256) is
    chunk slots {e per shard deque}. [chunk_target] (default 8) is the
    preferred slots-per-chunk fed to {!plan_chunks}; [~chunk_target:1]
    restores per-query dispatch (deterministic shed tests use it).
    [steal] (default [true]) gates work stealing. The EPT is materialized
    eagerly (a failure surfaces as [Limit_exceeded] on the first
    estimate, as with the single engine). Other knobs as
    {!Engine_core.create}.

    {b Failure model} (DESIGN.md §13). [deadline_s] gives every request a
    wall-clock budget, measured from its {e chunk}'s enqueue on the
    monotonic clock ({!Obs.now_mono}) and checked per slot: before the
    slot executes (so a deadline can expire mid-chunk — earlier slots
    answered, later ones refused [ERR timeout]) and again between
    canonicalize and the pipeline on a cache miss. Cache hits always
    answer. [shed_policy] (default [`Block]) governs a full shard deque:
    [`Block] applies backpressure (the submitter waits), [`Shed_newest]
    refuses the chunk being submitted — every slot it carries — with
    [ERR overloaded] without blocking. Workers are supervised: an
    exception escaping a worker's loop body answers the chunk's unserved
    slots with [ERR internal], bumps {!worker_restarts} and restarts the
    loop in place — a batch never hangs on a dead worker. A query whose
    execution has killed workers twice is quarantined (refused
    [ERR internal] before executing). [chaos] is a test-only fault hook
    called on the worker domain right before each query executes;
    returning [true] kills the worker body there, exercising the
    supervisor.

    [trace] attaches the pool to an {!Obs.Trace} session: the coordinator
    registers tid 0 and each shard tid [id+1]. Per chunk the trace carries
    a [chunk_dispatch] instant at submit, a [queue_wait] async span (begun
    at submit on the coordinator, ended at dequeue on the serving shard),
    an [execute] slice with per-query [canonicalize] / [pipeline]
    sub-slices on the shard track, and a [query] flow arrow linking
    submit -> execute -> gather; a [steal] instant lands on the thief's
    track at every stolen dequeue, and [batch_submit] / [batch_gather]
    slices frame the coordinator's work. Shard buffers are written only by
    their own domain; the coordinator buffer is guarded by an internal
    innermost lock. Without [trace] the hot path never touches a ring.

    [auditor] attaches a shadow auditor: every estimate a worker serves is
    offered to {!Auditor.sample} (thread-safe, lock-then-drop — never
    blocks the reply), and completed audits are folded back into the
    coordinator's drift window and flight ring only under the drained
    single-writer state (on the feedback path and the [AUDIT] verb), so
    audit feedback follows the same epoch protocol as client feedback.
    The pool does not own the auditor's lifecycle: the caller shuts it
    down after {!shutdown}.
    @raise Invalid_argument when [workers] < 1, [chunk_target] < 1 or the
    threshold is invalid. *)

val shutdown : t -> unit
(** Close the queue, let queued chunks drain, and join all worker domains.
    Idempotent; subsequent requests answer with an [internal] error. *)

val workers : t -> int

val chunk_target : t -> int
(** The preferred slots-per-chunk this pool plans with. *)

val plan_chunks :
  n:int ->
  workers:int ->
  chunk_target:int ->
  ?preferred:int ->
  unit ->
  (int * int * int) array
(** The pure chunk plan: [n] slots cut into
    [min n (max workers (ceil n/chunk_target))] contiguous [(lo, hi,
    shard)] slices — [lo] inclusive, [hi] exclusive. Laws (QCheck-pinned):
    the slices partition [0, n) exactly (cover every index once, in
    order); sizes differ by at most one with longer chunks first; [n = 0]
    plans no chunks. Chunk [i] goes to shard [i mod workers], or every
    chunk to [preferred] under affinity routing (stealing rebalances). *)

val preferred_shard : t -> affinity:int -> int
(** The affinity hash: the shard every chunk of an [affinity]-routed
    submission is planned onto. Stable for the life of the pool. *)

val epoch : t -> int
(** Cache-invalidation epoch: starts at 0, incremented by every refining
    feedback and by {!invalidate}. Monotone non-decreasing. *)

val qerror_threshold : t -> float
val feedback_seen : t -> int
val feedback_rounds : t -> int
val drift : t -> Drift.t option

val shed_total : t -> int
(** Query slots refused [ERR overloaded] by the [`Shed_newest] policy. *)

val timeout_total : t -> int
(** Query slots refused [ERR timeout] at either deadline checkpoint. *)

val worker_restarts : t -> int
(** Times the supervisor restarted a worker loop after an escaping
    exception. 0 in a healthy pool. *)

val steals_total : t -> int
(** Chunks served by a shard other than the one they were planned onto
    (the work queue's own count — exported as
    [engine.pool.steals_total]). *)

val affinity_hits : t -> int
(** Affinity-routed chunks served by their preferred shard (exported as
    [engine.pool.affinity_hits]). *)

val quarantined_count : t -> int
(** Distinct queries currently quarantined (two worker kills each). *)

val set_on_record : t -> (Flight_recorder.record -> unit) -> unit
(** Sink invoked for every flight record, from whichever domain produced
    it (serialized by an internal lock — the sink itself need not be
    domain-safe). *)

val estimate :
  ?affinity:int -> t -> string -> (Serve.estimate_reply, Core.Error.t) result
(** Submit one query and wait for its reply. Domain-safe. [affinity]
    routes the chunk to {!preferred_shard} so a session's shard cache
    stays hot across requests; stealing still rebalances under load. *)

val estimate_batch :
  ?affinity:int ->
  t ->
  string list ->
  (Serve.estimate_reply, Core.Error.t) result list
(** Submit a batch as per-shard chunks; replies return in submission
    order regardless of which shard served each slot. While a shard deque
    is full, [`Block] pools wait (backpressure) and [`Shed_newest] pools
    answer the overflowing chunk's slots [ERR overloaded] immediately. *)

val feedback : t -> string -> actual:int -> (Feedback.outcome, Core.Error.t) result
(** Drain the pool, then run {!Shard.feedback} on the coordinator shard:
    the judged estimate is recomputed without a cache (a [Bypass] flight
    record, refused like any miss once [deadline_s] has run out since the
    drained coordinator took it up), and the HET is refined when the q-error reaches the
    threshold. Refinements bump {!epoch} before submissions resume, and
    rebuild the shared EPT unless they changed only branching entries. *)

val explain : t -> string -> (Core.Explain.report, Core.Error.t) result
(** Full-pipeline explain, run drained on the base estimator. The cache
    status reports whether {e any} shard holds the query. *)

val profile :
  ?affinity:int -> t -> string list -> (Serve.profile_reply, Core.Error.t) result
(** The [PROFILE] verb: run the queries as one batch and report exact
    per-stage percentiles from per-slot monotonic stamps. The stages
    partition each query's life: queue-wait (submit to execution start —
    for a slot deep in a chunk that includes its predecessors' execute
    time), execute (start to result), reassemble (result to batch
    completion). Refused slots (shed, pool shut down mid-submit) are
    excluded from [profiled]. [steals] reports the pool-wide steal delta
    across the batch. *)

val invalidate : t -> unit
(** Bump {!epoch} without touching the synopsis, dropping every shard's
    cache at its next dequeue — cold-cache benchmark passes. *)

val shared_ept : t -> Core.Matcher.ept option
(** The EPT every worker reads ([None] only when materializing it failed).
    A refining FEEDBACK rebuilds it while the workers are drained, unless
    only branching HET entries changed
    ({!Core.Het.simple_generation}). *)

val stats_json : t -> Obs.Json.t
(** Engine stats with cache counters summed across shards, plus a
    ["pool"] object ([workers], [epoch], [chunk_target], [queue_depth],
    and the work queue's contention counters [queue_pushes] /
    [queue_pops] / [queue_steals] / [queue_push_waits] /
    [queue_pop_waits] / [queue_push_wait_s] / [queue_pop_wait_s] /
    [queue_max_occupancy], plus [affinity_hits] and the failure counters
    [shed_total] / [timeout_total] / [worker_restarts] / [quarantined]). *)

val metrics_text : t -> string
(** Prometheus exposition of a fresh registry per call: pool-level totals
    merged with every shard's pipeline registry via {!Obs.merged} (series
    sorted by key; repeated calls without traffic are identical). Includes,
    when telemetry is on: the pool-wide [engine.pool.queue_wait_us]
    histogram (per-chunk dequeue waits; shard observations merge by key),
    [engine.pool.batch_chunk], [engine.pool.queue.*] contention counters
    from {!Work_queue.stats}, [engine.pool.steals_total] and
    [engine.pool.affinity_hits], per-shard [engine.gc.*] counters
    (labelled [shard="N"]) and [engine.pool.busy_fraction] gauges
    (serving time over the shard's create-to-last-served window, so quiet
    re-scrapes stay byte-identical; best-effort reads of per-domain
    accumulators). *)

val recent : ?n:int -> t -> Flight_recorder.record list
(** Flight records merged across all shard rings plus the coordinator's
    (feedback/explain) ring, newest submission first ([seq] descending). *)

val cache_counters : t -> Lru_cache.counters
(** Per-shard counters summed. *)

val shard_cache_counters : t -> Lru_cache.counters array
(** One entry per shard, in shard order (test hook for the sum law). *)

val server : ?affinity:int -> t -> Serve.server
(** The serve-protocol vtable ([xseed serve --workers N]). [affinity]
    bakes a client identity into the vtable, routing every submission
    through it to {!preferred_shard} — the net layer passes a
    per-connection token here so a session's shard cache stays hot. *)
