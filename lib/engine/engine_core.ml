(* The single-threaded front end: one {!Shard} served inline on the caller's
   thread, with the shard's cache, a lazily built EPT and the engine's own
   scrape registry. *)

(* Interned names for the engine-level slices, resolved once at create so
   the request path records integer ids only. The stage slices live on
   the shard's tracing, on the same track. *)
type tracing = {
  stage : Shard.tracing;
  n_estimate : int;
  n_feedback : int;
  n_explain : int;
}

type t = {
  shard : Shard.t;
  cache : Core.Estimator.outcome Lru_cache.t;
  obs : Obs.t option;
  metrics : Obs.t;  (* scrape registry; = obs when one was supplied *)
  tracing : tracing option;
  scrape : Scrape_meter.t;
}

let create ?(qerror_threshold = 2.0) ?(cache_capacity = 1024)
    ?(telemetry = true) ?(recorder_capacity = 256) ?(drift_slots = 6)
    ?(drift_per_slot = 64) ?(drift_p90_threshold = 8.0) ?obs ?trace ?deadline_s
    estimator =
  if not (Float.is_finite qerror_threshold) || qerror_threshold < 1.0 then
    invalid_arg "Engine.create: qerror_threshold must be finite and >= 1";
  (match deadline_s with
   | Some d when Float.is_nan d ->
     invalid_arg "Engine.create: deadline_s must not be NaN"
   | _ -> ());
  let metrics = match obs with Some o -> o | None -> Obs.create () in
  let drift =
    if telemetry then
      Some
        (Drift.create ~slots:drift_slots ~per_slot:drift_per_slot
           ~p90_threshold:drift_p90_threshold ())
    else None
  in
  let shared =
    Shard.shared ~drift_obs:metrics ~threshold:qerror_threshold ~deadline_s
      ~drift estimator
  in
  let tracing =
    Option.map
      (fun tr ->
        { stage = Shard.tracing tr ~tid:1 ~name:"engine";
          n_estimate = Obs.Trace.intern tr "estimate";
          n_feedback = Obs.Trace.intern tr "feedback";
          n_explain = Obs.Trace.intern tr "explain" })
      trace
  in
  let cache = Lru_cache.create ~capacity:cache_capacity in
  { shard =
      Shard.create ~cache
        ?trace:(Option.map (fun tg -> tg.stage) tracing)
        shared ~estimator
        ~recorder:
          (if telemetry then
             Some (Flight_recorder.create ~capacity:recorder_capacity ())
           else None);
    cache;
    obs;
    metrics;
    tracing;
    scrape = Scrape_meter.create () }

let shared t = t.shard.Shard.shared
let estimator t = (shared t).Shard.base
let qerror_threshold t = (shared t).Shard.threshold
let feedback_rounds t = (shared t).Shard.feedback_rounds
let feedback_seen t = (shared t).Shard.feedback_seen
let cache_counters t = Lru_cache.counters t.cache
let cache_length t = Lru_cache.length t.cache
let metrics t = t.metrics
let timed_out t = Atomic.get (shared t).Shard.timeouts
let recorder t = t.shard.Shard.recorder
let drift t = (shared t).Shard.drift
let set_on_record t f = (shared t).Shard.sink <- Some f
let set_auditor t a = (shared t).Shard.auditor <- Some a
let auditor t = (shared t).Shard.auditor

(* The EPT is dropped, not rebuilt: the next miss builds it lazily, so an
   evicted registry tenant never pays for one. *)
let invalidate t =
  Lru_cache.clear t.cache;
  (shared t).Shard.ept <- None

(* After a refinement: every cached outcome goes, the EPT only if the
   refinement changed what the traveler reads. *)
let refresh t () =
  Lru_cache.clear t.cache;
  Shard.refresh_ept ~eager:false (shared t)

let shared_ept t = Shard.built_ept (shared t)

(* Completed shadow audits fold back in on the serving thread, so the
   drift window and the flight ring keep a single writer. Runs before
   every estimate, hence the cheap check first. *)
let drain_audits t =
  if Option.is_some (auditor t) then
    Shard.drain_audits ~refresh:(refresh t) t.shard

let trace_slice t name t0 =
  match t.tracing with
  | None -> ()
  | Some tg ->
    Obs.Trace.complete tg.stage.Shard.buf ~name:(name tg)
      ~ts:(Obs.Trace.rel tg.stage.Shard.tr t0)
      ~dur:(Obs.now_mono () -. t0)

type served = Shard.served = {
  key : Canonical.key;
  outcome : Core.Estimator.outcome;
  status : Core.Explain.cache_status;
}

let estimate_ast t ast =
  drain_audits t;
  let t0 = Obs.now_mono () in
  let r = Shard.estimate ~enqueued_at:t0 t.shard ast in
  if Result.is_ok r then trace_slice t (fun tg -> tg.n_estimate) t0;
  r

let estimate t query =
  match Shard.parse query with Error e -> Error e | Ok ast -> estimate_ast t ast

let estimate_batch t queries = List.map (estimate t) queries

let feedback_ast t ast ~actual =
  let t0 = Obs.now_mono () in
  Fun.protect ~finally:(fun () -> trace_slice t (fun tg -> tg.n_feedback) t0)
  @@ fun () ->
  drain_audits t;
  Shard.feedback ~enqueued_at:t0 ~refresh:(refresh t) t.shard ast
    ~actual

let feedback t query ~actual =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast -> feedback_ast t ast ~actual

let explain t query =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast ->
    let t0 = Obs.now_mono () in
    Fun.protect ~finally:(fun () -> trace_slice t (fun tg -> tg.n_explain) t0)
    @@ fun () ->
    Shard.explain ?obs:t.obs ~cached:(Lru_cache.mem t.cache) t.shard ast

let stats_json t =
  let s = shared t in
  Obs.Json.Obj
    (Shard.stats_fields s ~capacity:(Lru_cache.capacity t.cache)
       ~size:(Lru_cache.length t.cache) (Lru_cache.counters t.cache)
    @ [ ("timeouts", Obs.Json.Int (timed_out t));
        ( "synopsis_bytes",
          Obs.Json.Int (Core.Estimator.size_in_bytes s.Shard.base) ) ])

let publish_counters t =
  Lru_cache.publish_counters ?obs:t.obs t.cache;
  Obs.add_to ?obs:t.obs "engine.feedback.seen" (feedback_seen t);
  Obs.add_to ?obs:t.obs "engine.feedback.rounds" (feedback_rounds t);
  Option.iter
    (Core.Het.publish_counters ?obs:t.obs)
    (Core.Estimator.het (estimator t))

(* Republish every engine-level total into the scrape registry. Counters go
   through set_max so republishing before each scrape is idempotent;
   point-in-time values are gauges. *)
let publish_telemetry t =
  let obs = t.metrics in
  let c = Lru_cache.counters t.cache in
  Shard.publish (shared t) obs ~capacity:(Lru_cache.capacity t.cache)
    ~size:(Lru_cache.length t.cache)
    ~flight_records:(Option.map Flight_recorder.total (recorder t))
    c;
  Obs.max_to ~obs "engine.timeouts" (timed_out t);
  Scrape_meter.publish t.scrape ~obs
    ~served:
      (c.Lru_cache.hits + c.Lru_cache.misses + timed_out t + feedback_seen t)

let metrics_text t =
  let t0 = Obs.now_mono () in
  publish_telemetry t;
  let text = Obs.prometheus ~prefix:"xseed_" t.metrics in
  Scrape_meter.note t.scrape (Obs.now_mono () -. t0);
  text

let telemetry_disabled () =
  Core.Error.make Core.Error.Internal "telemetry is disabled on this engine"

(* The AUDIT verb waits (bounded) for the audit domain to catch up, folds
   the results in, and reports — so a serve session at --audit-rate 1.0 can
   be diffed float-for-float against the offline `xseed audit` report. *)
let audit_reply t =
  match auditor t with
  | None -> Error (Shard.audit_disabled ())
  | Some a ->
    ignore (Auditor.settle ~timeout_s:5.0 a : bool);
    drain_audits t;
    Ok (Auditor.status_json a)

(* PROFILE on a single engine: there is no queue, so queue-wait and
   reassemble are structurally zero; execute is each estimate's measured
   wall time (errors included — the reply is a timing summary). *)
let profile t queries =
  let timed_out = ref 0 in
  let ex =
    List.map
      (fun q ->
        let t0 = Obs.now_mono () in
        (match estimate t q with
         | Error e when Core.Error.kind e = Core.Error.Timeout -> incr timed_out
         | Ok _ | Error _ -> ());
        1e6 *. (Obs.now_mono () -. t0))
      queries
  in
  let zeros = Serve.percentiles [||] in
  Ok
    { Serve.profiled = List.length ex;
      queue_wait_us = zeros;
      execute_us = Serve.percentiles (Array.of_list ex);
      reassemble_us = zeros;
      timed_out = !timed_out;
      shed = 0;
      steals = 0;
      tenant = None }

let server t =
  { Serve.estimate = (fun q -> Shard.reply (estimate t q));
    estimate_batch = (fun qs -> List.map (fun q -> Shard.reply (estimate t q)) qs);
    feedback = (fun q ~actual -> Result.map snd (feedback t q ~actual));
    explain = (fun q -> explain t q);
    stats_json = (fun () -> stats_json t);
    metrics_text = (fun () -> metrics_text t);
    recent =
      (fun n ->
        match recorder t with
        | None -> Error (telemetry_disabled ())
        | Some r -> Ok (Flight_recorder.recent ?n r));
    drift_json =
      (fun () ->
        match drift t with
        | None -> Error (telemetry_disabled ())
        | Some d -> Ok (Drift.to_json d));
    profile = (fun qs -> profile t qs);
    audit = (fun () -> audit_reply t) }

module Protocol = struct
  let handle_line t raw =
    Serve.handle_request (server t) ~read_line:(fun () -> None) raw
end
