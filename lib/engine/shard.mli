(** One serving shard: the single implementation of the per-query
    pipeline, EXPLAIN, feedback, the shadow-audit fold, flight records and
    the shared STATS / METRICS publication.

    Two front ends run it. {!Engine_core} serves one shard inline on the
    caller's thread; {!Pool} holds N shards, each run on the thread that
    holds its mutex, plus a coordinator shard for the single-writer verbs
    (FEEDBACK, EXPLAIN, AUDIT) and for shed records. Because both call the
    same code, pool estimates are bit-identical to the engine's by
    construction.

    The estimate pipeline is: canonicalize → cache probe → deadline
    checkpoint → estimator on the shared EPT → cache fill → flight record
    → drift volume → audit tap → trace stage. The probe hashes and
    verifies the canonical key straight from the AST
    ({!Canonical.hash}, {!Canonical.matches}); a hit reports the stored
    key text, and only a miss renders its query. *)

type shared = {
  base : Core.Estimator.t;
      (** the loaded synopsis; feedback refines its HET, and its HET
          counters attribute per-query hits *)
  threshold : float;  (** feedback q-error threshold *)
  deadline_s : float option;  (** per-request budget, monotonic clock *)
  drift : Drift.t option;  (** [None] when telemetry is off *)
  drift_obs : Obs.t option;  (** where drift alerts are counted *)
  mutable ept : (Core.Matcher.ept, Core.Error.t) result option;
      (** the shared EPT; [None] until first needed (the engine builds it
          lazily, the pool eagerly) *)
  mutable ept_generation : int;
      (** the HET's {!Core.Het.simple_generation} when [ept] was built *)
  mutable feedback_seen : int;
  mutable feedback_rounds : int;
  timeouts : int Atomic.t;  (** requests refused at a deadline *)
  mutable sink : (Flight_recorder.record -> unit) option;
      (** called with every flight record as it is written *)
  mutable auditor : Auditor.t option;
}
(** State every shard of one serving core shares. Mutable fields are
    written only by the single writer: the engine's thread, or the pool's
    single-writer section with every shard held. *)

val shared :
  ?drift_obs:Obs.t ->
  ?auditor:Auditor.t ->
  threshold:float ->
  deadline_s:float option ->
  drift:Drift.t option ->
  Core.Estimator.t ->
  shared
(** Fresh totals, no EPT, no sink. *)

type tracing = {
  tr : Obs.Trace.t;
  buf : Obs.Trace.buf;  (** written only by the shard's own thread *)
  n_canonicalize : int;
  n_pipeline : int;
}

val tracing : Obs.Trace.t -> tid:int -> name:string -> tracing
(** Register the shard's trace track and intern its stage names. *)

type t = {
  shared : shared;
  estimator : Core.Estimator.t;
      (** shares [shared.base]'s kernel/HET/values; may own its registry *)
  cache : Core.Estimator.outcome Lru_cache.t option;
      (** [None] on the pool's coordinator, which bypasses caching *)
  recorder : Flight_recorder.t option;
  volume : Drift.shard option;  (** this shard's drift volume rings *)
  trace : tracing option;
  scratch : Core.Matcher.scratch;
      (** the matcher scratch every miss reuses; like [trace.buf], used
          only by the shard's single runner *)
}

val create :
  ?cache:Core.Estimator.outcome Lru_cache.t ->
  ?trace:tracing ->
  shared ->
  estimator:Core.Estimator.t ->
  recorder:Flight_recorder.t option ->
  t
(** Registers the shard's volume rings with [shared.drift]. *)

val parse : string -> (Xpath.Ast.t, Core.Error.t) result
(** A syntax error is [Malformed_query]. *)

val build_ept : shared -> (Core.Matcher.ept, Core.Error.t) result
(** Materialize [shared.ept] now (an oversized EPT is
    [Limit_exceeded]) and record the HET generation it reflects. *)

val built_ept : shared -> Core.Matcher.ept option
(** [shared.ept] when it holds a built EPT. *)

val refresh_ept : eager:bool -> shared -> unit
(** The EPT half of a post-refinement refresh. A built EPT is kept when
    the HET's active simple set has not changed since it was built (the
    traveler reads nothing else, so a rebuild would produce the same
    tree); otherwise it is dropped, or rebuilt at once when [eager]. *)

val timeout_error : unit -> Core.Error.t

val audit_disabled : unit -> Core.Error.t
(** The AUDIT verb's refusal when no auditor is attached. *)

type served = {
  key : Canonical.key;
  outcome : Core.Estimator.outcome;
  status : Core.Explain.cache_status;
}

val reply :
  (served, Core.Error.t) result -> (Serve.estimate_reply, Core.Error.t) result

val estimate :
  ?seq:int ->
  enqueued_at:float ->
  t ->
  Xpath.Ast.t ->
  (served, Core.Error.t) result
(** The pipeline. With a cache the status is [Hit] or [Miss]; without
    one it is [Bypass]. A miss past the deadline
    (measured from [enqueued_at], when the request arrived) is
    refused with [Error Timeout] and a [Timed_out] record; hits always
    answer. [seq] stamps the flight record (default: the ring's own
    numbering). Errors are never cached. *)

val refuse :
  ?seq:int ->
  ?audit:Flight_recorder.audit ->
  ?estimate:float ->
  t ->
  query:string ->
  hash:int ->
  cache:Flight_recorder.cache_status ->
  unit
(** A flight record with zero stage figures (and a zero estimate by
    default): a refused request ([Timed_out], [Shed]) or a completed
    shadow audit ([Audited]). Like every record, it goes to the shard's
    ring (a no-op without one) and then to [shared.sink]. *)

val feedback :
  ?seq:int ->
  enqueued_at:float ->
  refresh:(unit -> unit) ->
  t ->
  Xpath.Ast.t ->
  actual:int ->
  (served * Feedback.outcome, Core.Error.t) result
(** Serve the query through {!estimate}, count the observation, feed the
    drift window and judge the served estimate. [refresh] runs after a
    refinement; it must drop every cached outcome, and the EPT unless
    {!refresh_ept} finds it current. *)

val drain_audits :
  ?next_seq:(unit -> int) -> refresh:(unit -> unit) -> t -> unit
(** Fold completed shadow audits into the drift window and the shard's
    ring (as [Audited] records), and judge them like feedback when the
    auditor was created with [~feedback:true]. Single-writer only. *)

val explain :
  ?obs:Obs.t ->
  ?seq:int ->
  cached:(string -> bool) ->
  t ->
  Xpath.Ast.t ->
  (Core.Explain.report, Core.Error.t) result
(** {!Core.Explain.run} on [shared.base], recorded like a request.
    [cached] says whether a canonical query text is cached anywhere. *)

val stats_fields :
  shared ->
  capacity:int ->
  size:int ->
  Lru_cache.counters ->
  (string * Obs.Json.t) list
(** The [cache], [feedback] and [het] members of STATS. *)

val publish :
  shared ->
  Obs.t ->
  capacity:int ->
  size:int ->
  flight_records:int option ->
  Lru_cache.counters ->
  unit
(** Publish [engine.cache.*], [engine.feedback.*],
    [engine.synopsis_bytes], [engine.het.*], [het.*],
    [engine.flight.records], the auditor's series and the drift window.
    Counters go through max, so republishing is idempotent. *)
