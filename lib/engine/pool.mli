(** Multi-shard serving pool: one shared synopsis, N shards answered on the
    caller's thread (DESIGN.md §11, §16).

    The pool runs the same {!Shard} pipeline {!Engine_core} runs inline. It
    owns one synopsis and one eagerly materialized EPT, shared read-only by
    [workers] shards; each shard's cache, flight ring, {!Obs} registry and
    {!Drift} volume rings are private, guarded by its own mutex. The pool
    spawns no domain. A TCP front-end domain serves every frame on the
    shard bound to it ([?shard]), so an estimate never changes domain; an
    in-process caller checks out any free shard, or waits for one. A batch
    runs start to finish on one shard, replies in submission order.
    [feedback], [explain], the AUDIT fold and [invalidate] form the
    single-writer section: they take every shard mutex in index order
    before touching the shared HET/EPT, and a refinement bumps {!epoch},
    on which each shard drops its stale cache. Estimates are bit-identical
    to a single {!Engine_core.t}'s whichever shard serves. *)

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
  ?trace:Obs.Trace.t ->
  ?deadline_s:float ->
  ?shed_policy:[ `Block | `Shed_newest ] ->
  ?chaos:(string -> bool) ->
  ?auditor:Auditor.t ->
  Core.Estimator.t ->
  t
(** [workers] (default 2) shards. [cache_capacity] (default 1024) and
    [recorder_capacity] (default 256) are {e per shard}. The EPT is
    materialized eagerly (a failure surfaces as [Limit_exceeded] on the
    first estimate, as with the single engine). Other knobs as
    {!Engine_core.create}.

    {b Failure model} (DESIGN.md §13). [deadline_s] budgets every request
    on the monotonic clock from its arrival (a TCP frame's decode instant,
    {!server}'s [arrived]; otherwise the call), checked per slot before it
    executes and again before the pipeline on a cache miss; hits always
    answer. Under [`Shed_newest] (default [`Block]) a caller finding no
    shard free may queue at most [queue_capacity] (default 256) waiting
    slots; the newest beyond answer [ERR overloaded] unexecuted, as do the
    slots of a frame the transport marks over capacity ({!server}'s
    [shed]). An exception escaping the per-query guard (or the [chaos]
    test hook returning [true], called right before a query executes)
    counts a restart ({!worker_restarts}) and answers the rest of its
    request [ERR internal]; a query that crashed twice is quarantined.

    [trace] attaches the pool to an {!Obs.Trace} session: the coordinator
    registers tid 0 (the single-writer [feedback] / [explain] slices) and
    shard [i] tid [i+1], where each served frame is a [frame] slice with
    the shard's [canonicalize] / [pipeline] stage slices nested inside and
    GC counter samples after it. A shard's track is written only under its
    mutex.

    [auditor] attaches a shadow auditor: every served estimate is offered
    to {!Auditor.sample} (never blocks the reply); completed audits fold
    back only in the single-writer section, so audit feedback follows the
    client-feedback epoch protocol. The caller shuts the auditor down after
    {!shutdown}.
    @raise Invalid_argument when [workers] < 1, [queue_capacity] < 1 or
    the threshold is invalid. *)

val shutdown : t -> unit
(** Refuse every later request with an [internal] error, callers still
    waiting for a free shard included (they are woken at once), then wait
    for the requests in flight to finish. Idempotent. *)

val workers : t -> int

val epoch : t -> int
(** Cache-invalidation epoch: starts at 0, incremented by every refining
    feedback and by {!invalidate}. Monotone non-decreasing. *)

val qerror_threshold : t -> float
val feedback_seen : t -> int
val feedback_rounds : t -> int
val drift : t -> Drift.t option

val shed_total : t -> int
(** Query slots refused [ERR overloaded] under [`Shed_newest]. *)

val timeout_total : t -> int
(** Query slots refused [ERR timeout] at either deadline checkpoint. *)

val worker_restarts : t -> int
(** Crashes the per-query guard caught (each answered the rest of its
    batch [ERR internal]). 0 in a healthy pool. *)

val waiters : t -> int
(** In-process callers currently blocked waiting for a free shard (a TCP
    domain's pinned shard never makes its caller wait here). *)

val quarantined_count : t -> int
(** Distinct queries currently quarantined (two crashes each). *)

val set_on_record : t -> (Flight_recorder.record -> unit) -> unit
(** Sink invoked for every flight record, from whichever domain produced
    it (serialized by an internal lock — the sink itself need not be
    domain-safe). *)

val set_on_feedback :
  t -> (string -> actual:int -> (unit, Core.Error.t) result) -> unit
(** Commit hook run after every successful {!feedback}, inside the
    single-writer section: with several front ends, commits happen in the
    order the refinements were applied. An [Error] from the hook becomes
    the feedback's reply (the in-memory refinement stands). The CLI's
    journal appends here. *)

val estimate :
  ?shard:int -> t -> string -> (Serve.estimate_reply, Core.Error.t) result
(** Answer one query on the caller's thread. Domain-safe. [shard] pins the
    request to that shard (a front-end domain's own); without it any free
    shard serves. *)

val estimate_batch :
  ?shard:int ->
  t ->
  string list ->
  (Serve.estimate_reply, Core.Error.t) result list
(** Answer a batch on one shard, in submission order. *)

val feedback : t -> string -> actual:int -> (Feedback.outcome, Core.Error.t) result
(** In the single-writer section, run {!Shard.feedback} on the
    coordinator shard: the judged estimate is recomputed without a cache
    (a [Bypass] flight record, refused like any miss once [deadline_s]
    has run out since the section took it up), and the HET is refined
    when the q-error reaches the threshold. Refinements bump {!epoch} and rebuild the
    shared EPT unless they changed only branching entries. *)

val explain : t -> string -> (Core.Explain.report, Core.Error.t) result
(** Full-pipeline explain, run in the single-writer section on the base
    estimator. The cache status reports whether {e any} shard holds the
    query. *)

val profile :
  ?shard:int -> t -> string list -> (Serve.profile_reply, Core.Error.t) result
(** The [PROFILE] verb: run the queries as one batch and report exact
    per-stage percentiles from per-slot monotonic stamps. The stages
    partition each query's life: queue-wait (arrival to execution start —
    the wait for a shard plus the slot's predecessors in the batch),
    execute (start to result), reassemble (result to batch completion).
    Refused slots (shed, pool shut down) are excluded from [profiled].
    [steals] is always 0: nothing moves between shards. *)

val invalidate : t -> unit
(** Bump {!epoch} without touching the synopsis, dropping every shard's
    cache the next time it serves — cold-cache benchmark passes. *)

val shared_ept : t -> Core.Matcher.ept option
(** The EPT every shard reads ([None] only when materializing it failed).
    A refining FEEDBACK rebuilds it in the single-writer section, unless
    only branching HET entries changed ({!Core.Het.simple_generation}). *)

val stats_json : t -> Obs.Json.t
(** Engine stats with cache counters summed across shards, plus a
    ["pool"] object: [workers], [epoch], the failure counters
    [shed_total] / [timeout_total] / [worker_restarts] / [quarantined],
    [queue_steals] and [affinity_hits] (always 0, kept for readers of the
    earlier schema), and [domains], one object per shard with
    [connections] (TCP sessions bound to it), [frames] (requests it
    served) and [busy_fraction]. *)

val metrics_text : t -> string
(** Prometheus exposition of a fresh registry per call: pool-level totals
    merged with every shard's pipeline registry via {!Obs.merged} (series
    sorted by key; repeated calls without traffic are identical).
    Includes, when telemetry is on: the [engine.pool.queue_wait_us]
    histogram (arrival to start, per request), per-shard [engine.gc.*]
    counters sampled around each served request and
    [engine.pool.frames] / [engine.pool.busy_fraction] (labelled
    [shard="N"]; serving time over the shard's create-to-last-served
    window, so quiet re-scrapes stay byte-identical). *)

val recent : ?n:int -> t -> Flight_recorder.record list
(** Flight records merged across all shard rings plus the coordinator's
    (feedback/explain/shed) ring, newest first ([seq] descending). *)

val cache_counters : t -> Lru_cache.counters
(** Per-shard counters summed. *)

val shard_cache_counters : t -> Lru_cache.counters array
(** One entry per shard, in shard order (test hook for the sum law). *)

val server :
  ?shard:int ->
  ?arrived:(unit -> float) ->
  ?shed:(unit -> bool) ->
  t ->
  Serve.server
(** The serve-protocol vtable ([xseed serve --workers N]). [shard] binds
    the session to one shard (counted in its [connections]); [arrived]
    gives the current request's arrival instant on the monotonic clock
    (default: the call); [shed] says whether the transport marked the
    current frame over its admission capacity, in which case every
    estimate slot in it answers [ERR overloaded] without executing. *)
