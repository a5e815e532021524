(** The single-threaded serving engine: one loaded synopsis answering a
    stream of estimate requests, learning from execution feedback as it
    goes. It is the inline front end of the {!Shard} pipeline: one shard,
    served on the caller's thread, with its own estimate cache and an EPT
    built lazily on the first miss (so dropping it, as registry eviction
    does, never builds one). {!Pool} drives N of the same shards behind a
    work queue. Re-exported (with the rest of the serving layer) as
    {!Engine}. *)

type t

val create :
  ?qerror_threshold:float ->
  ?cache_capacity:int ->
  ?telemetry:bool ->
  ?recorder_capacity:int ->
  ?drift_slots:int ->
  ?drift_per_slot:int ->
  ?drift_p90_threshold:float ->
  ?obs:Obs.t ->
  ?trace:Obs.Trace.t ->
  ?deadline_s:float ->
  Core.Estimator.t ->
  t
(** [qerror_threshold] (default 2.0) is the minimum q-error at which
    feedback refines the HET; [cache_capacity] (default 1024) bounds the
    estimate cache. [obs] receives pipeline metrics from every cache-miss
    estimation and becomes the engine's scrape registry ({!metrics});
    without it the engine still keeps a private registry so [METRICS]
    works. [telemetry] (default [true]) enables the flight recorder
    ([recorder_capacity], default 256 records) and the drift monitor
    ([drift_slots] x [drift_per_slot] feedback observations, default
    6 x 64, alerting at window-p90 q-error [drift_p90_threshold],
    default 8.0). [trace] attaches the engine to a {!Obs.Trace} session:
    the engine registers one buffer (tid 1, ["engine"]) and records
    [estimate] / [canonicalize] / [pipeline] / [feedback] / [explain]
    slices for every request, stamped with the same monotonic stage clock
    the flight recorder uses. Without [trace] the request path never
    touches a trace ring. [deadline_s] gives every request a wall-clock
    budget on the monotonic clock ({!Obs.now_mono}): a cache miss whose
    canonicalize stage already overran it is refused with
    [Error Timeout] before the pipeline runs (cache hits always answer —
    serving them is cheaper than refusing). Without it requests never
    time out. *)

val estimator : t -> Core.Estimator.t
val qerror_threshold : t -> float

val feedback_rounds : t -> int
(** Number of feedback observations that actually refined the HET (and so
    invalidated the cache) over this engine's lifetime. *)

val feedback_seen : t -> int
(** Total feedback observations, refined or not. *)

val timed_out : t -> int
(** Requests refused with [Error Timeout] because they overran the
    engine's [deadline_s]; always 0 without one. *)

type served = Shard.served = {
  key : Canonical.key;
  outcome : Core.Estimator.outcome;
  status : Core.Explain.cache_status;
      (** [Hit] or [Miss]; the engine never serves [Bypass] *)
}

val estimate_ast : t -> Xpath.Ast.t -> (served, Core.Error.t) result
(** Canonicalize, consult the cache, run the pipeline on a miss (caching the
    outcome). Errors are never cached. Same error contract as
    {!Core.Estimator.estimate_result}. *)

val estimate : t -> string -> (served, Core.Error.t) result
(** Parse then {!estimate_ast}; a syntax error is [Malformed_query]. *)

val estimate_batch : t -> string list -> (served, Core.Error.t) result list
(** Per-query results in order; one bad query does not fail the batch. *)

val feedback : t -> string -> actual:int -> (served * Feedback.outcome, Core.Error.t) result
(** Observe the true cardinality of an executed query: serve (or reuse) the
    engine's estimate, judge it ({!Feedback.apply}), and on refinement clear
    the cache and the shared EPT. The returned [served] is the estimate the
    q-error was computed against. *)

val feedback_ast : t -> Xpath.Ast.t -> actual:int -> (served * Feedback.outcome, Core.Error.t) result

val invalidate : t -> unit
(** Drop the cached EPT and every cached estimate (counted as
    invalidations), e.g. for a cold-cache benchmark pass. *)

val shared_ept : t -> Core.Matcher.ept option
(** The EPT every cache miss reads; [None] until the next miss builds it.
    When feedback refines the HET, every cached estimate is dropped (a
    refreshed entry can affect any estimate that touched its path, so the
    engine conservatively assumes all of them did), but this EPT is kept
    when only branching entries changed: the traveler reads simple
    entries alone ({!Core.Het.simple_generation}). *)

val explain : t -> string -> (Core.Explain.report, Core.Error.t) result
(** {!Core.Explain.run} through the engine: the report's [cache] field says
    whether this query is currently cached ([Hit]/[Miss] — the explain run
    itself always re-executes the pipeline) and [feedback_rounds] is
    {!feedback_rounds}. Does not disturb cache contents or counters. *)

val cache_counters : t -> Lru_cache.counters
val cache_length : t -> int

(** {1 Serving telemetry} *)

val metrics : t -> Obs.t
(** The scrape registry: the [?obs] passed to {!create}, or the engine's
    private context. *)

val recorder : t -> Flight_recorder.t option
(** [None] when the engine was created with [~telemetry:false]. *)

val drift : t -> Drift.t option

val set_on_record : t -> (Flight_recorder.record -> unit) -> unit
(** Install a callback invoked with every flight record as it is written —
    the CLI's [--telemetry-out] JSON-lines sink. At most one callback;
    installing replaces. *)

val set_auditor : t -> Auditor.t -> unit
(** Attach a shadow auditor: every served estimate (hit or miss) is offered
    to {!Auditor.sample}, and completed audits are folded back in on the
    serving thread ({!drain_audits}) — into the drift window, the flight
    ring (as [Audited] records carrying the attribution payload), and, when
    the auditor was created with [~feedback:true], the q-error-gated HET
    refinement path. The engine does not own the auditor's lifecycle: the
    caller shuts it down. *)

val auditor : t -> Auditor.t option

val drain_audits : t -> unit
(** Fold any completed shadow audits into the engine's telemetry (a cheap
    atomic check when there are none). Runs automatically at the start of
    every estimate and inside the [AUDIT] verb; exposed for drain-epilogue
    flushing. Must be called from the serving thread — it touches the same
    drift window and flight ring the request path writes. *)

val audit_reply : t -> (Obs.Json.t, Core.Error.t) result
(** The [AUDIT] verb: settle in-flight audits (bounded 5 s wait), drain,
    and report {!Auditor.status_json}; [Error Internal] when no auditor is
    attached. *)

val publish_telemetry : t -> unit
(** Republish engine totals into {!metrics}: [engine.cache.*] counters
    (via max, so calling before every scrape is idempotent) and occupancy
    gauges, [engine.feedback.*], [engine.het.*] and [het.*] totals,
    [engine.flight.records], and the drift window's
    [engine.drift.*] gauges/counter. *)

val metrics_text : t -> string
(** {!publish_telemetry}, then the full registry in Prometheus text
    exposition format 0.0.4 with the [xseed_] name prefix
    ({!Obs.prometheus}). *)

val stats_json : t -> Obs.Json.t
(** One object: cache counters and occupancy, feedback totals, HET
    active/total/usage (or [null] without a HET), synopsis footprint. *)

val publish_counters : t -> unit
(** Push cache totals ([engine.cache.*]), [engine.feedback.*] and HET
    totals into the engine's Obs context (no-op without one). *)

val profile : t -> string list -> (Serve.profile_reply, Core.Error.t) result
(** The [PROFILE] verb: run the queries, timing each with the monotonic
    clock, and report exact per-stage percentiles. On a single engine
    queue-wait and reassemble are structurally zero; execute is each
    estimate's wall time. Per-query errors do not fail the run. *)

val server : t -> Serve.server
(** This engine behind the generic {!Serve} protocol — what
    [xseed serve] (without [--workers]) runs. *)

(** The [xseed serve] line protocol over a single engine; see {!Serve} for
    the verb surface (including [BATCH]). [handle_line] answers one
    self-contained line (a [BATCH] here reads no payload lines, so its
    slots report end-of-input errors). *)
module Protocol : sig
  val handle_line : t -> string -> string option
  (** [None] for a blank line, otherwise the complete response (no trailing
      newline; multi-line for successful [METRICS]/[RECENT]/[BATCH]). *)
end
