type shared = {
  base : Core.Estimator.t;
  threshold : float;
  deadline_s : float option;
  drift : Drift.t option;
  drift_obs : Obs.t option;
  mutable ept : (Core.Matcher.ept, Core.Error.t) result option;
  mutable ept_generation : int;
  mutable feedback_seen : int;
  mutable feedback_rounds : int;
  timeouts : int Atomic.t;
  mutable sink : (Flight_recorder.record -> unit) option;
  mutable auditor : Auditor.t option;
}

let shared ?drift_obs ?auditor ~threshold ~deadline_s ~drift base =
  { base;
    threshold;
    deadline_s;
    drift;
    drift_obs;
    ept = None;
    ept_generation = 0;
    feedback_seen = 0;
    feedback_rounds = 0;
    timeouts = Atomic.make 0;
    sink = None;
    auditor }

type tracing = {
  tr : Obs.Trace.t;
  buf : Obs.Trace.buf;
  n_canonicalize : int;
  n_pipeline : int;
}

let tracing tr ~tid ~name =
  { tr;
    buf = Obs.Trace.register tr ~tid ~name;
    n_canonicalize = Obs.Trace.intern tr "canonicalize";
    n_pipeline = Obs.Trace.intern tr "pipeline" }

type t = {
  shared : shared;
  estimator : Core.Estimator.t;
  cache : Core.Estimator.outcome Lru_cache.t option;
  recorder : Flight_recorder.t option;
  volume : Drift.shard option;
  trace : tracing option;
  scratch : Core.Matcher.scratch;
}

let create ?cache ?trace shared ~estimator ~recorder =
  { shared;
    estimator;
    cache;
    recorder;
    volume = Option.map Drift.register_shard shared.drift;
    trace;
    scratch = Core.Matcher.scratch () }

let parse query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Core.Error.make ~position Core.Error.Malformed_query message)
  | Ok path -> Ok path

(* Run [f] under the error guard, with an oversized EPT as Limit_exceeded. *)
let guard_ept f =
  Core.Error.guard (fun () ->
      try f ()
      with Core.Matcher.Ept_too_large n ->
        Core.Error.raisef Core.Error.Limit_exceeded
          "EPT exceeded max_ept_nodes while materializing (%d nodes)" n)

let materialize_ept estimator = guard_ept (fun () -> Core.Estimator.ept estimator)

let het_generation s =
  match Core.Estimator.het s.base with
  | Some het -> Core.Het.simple_generation het
  | None -> 0

let build_ept s =
  let r = materialize_ept s.base in
  s.ept <- Some r;
  s.ept_generation <- het_generation s;
  r

(* The traveler reads only the active simple HET entries, so an EPT built
   at the current simple generation is the EPT a rebuild would produce:
   a branching-only refinement keeps it. *)
let refresh_ept ~eager s =
  if Option.is_some s.ept && het_generation s <> s.ept_generation then
    if eager then ignore (build_ept s) else s.ept <- None

let built_ept s = match s.ept with Some (Ok e) -> Some e | _ -> None

(* Forced inside the estimator's error guard, so a failed build surfaces
   as the same typed error on every miss until the EPT is refreshed. *)
let shared_ept s =
  let r = match s.ept with Some r -> r | None -> build_ept s in
  match r with Ok e -> e | Error err -> raise (Core.Error.Xseed err)

let timeout_error () =
  Core.Error.make Core.Error.Timeout "request deadline exceeded"

let audit_disabled () =
  Core.Error.make Core.Error.Internal
    "auditing is disabled (serve with --audit-rate and a source document)"

type served = {
  key : Canonical.key;
  outcome : Core.Estimator.outcome;
  status : Core.Explain.cache_status;
}

let reply = function
  | Ok s ->
    Ok { Serve.value = s.outcome.Core.Estimator.value; status = s.status }
  | Error e -> Error e

let flight_status = function
  | Core.Explain.Hit -> Flight_recorder.Hit
  | Core.Explain.Miss -> Flight_recorder.Miss
  | Core.Explain.Bypass -> Flight_recorder.Bypass

(* The one flight-record emitter: the shard's ring, then the sink. *)
let emit ?seq ?audit t ~query ~hash ~cache ~estimate ~canonicalize_s ~ept_s
    ~match_s ~ept_nodes ~frontier_peak ~degenerate_clamps ~het_hits =
  match t.recorder with
  | None -> ()
  | Some ring ->
    let r =
      Flight_recorder.record ?seq ?audit ring ~query ~hash ~cache ~estimate
        ~canonicalize_s ~ept_s ~match_s ~ept_nodes ~frontier_peak
        ~degenerate_clamps ~het_hits
        ~feedback_round:t.shared.feedback_rounds
    in
    (match t.shared.sink with Some f -> f r | None -> ())

(* A refusal still leaves a flight record — zero estimate, zero stage
   times — so drops are visible in RECENT and the telemetry stream. *)
let refuse ?seq ?audit ?(estimate = 0.0) t ~query ~hash ~cache =
  emit ?seq ?audit t ~query ~hash ~cache ~estimate ~canonicalize_s:0.0
    ~ept_s:0.0 ~match_s:0.0 ~ept_nodes:0 ~frontier_peak:0
    ~degenerate_clamps:0 ~het_hits:0

(* HET counters are shared across domains and bumped racily, so under the
   pool the per-query delta is best-effort (exact whenever requests are
   sequential); clamp so a racing reader never records a negative. *)
let het_snapshot s = Option.map Core.Het.counters (Core.Estimator.het s.base)

let het_hits_since s before =
  match (before, Core.Estimator.het s.base) with
  | Some before, Some h ->
    let d = Core.Het.diff_counters ~before ~after:(Core.Het.counters h) in
    max 0 (d.Core.Het.simple_hits + d.Core.Het.branching_hits)
  | _ -> 0

let trace_stage t stage ~t0 ~dur =
  match t.trace with
  | None -> ()
  | Some tg ->
    let name =
      match stage with
      | `Canonicalize -> tg.n_canonicalize
      | `Pipeline -> tg.n_pipeline
    in
    Obs.Trace.complete tg.buf ~name ~ts:(Obs.Trace.rel tg.tr t0) ~dur

let answered t ~(key : Canonical.key) ~cast ~cache_hit value =
  (match t.volume with Some s -> Drift.note_shard s ~cache_hit | None -> ());
  match t.shared.auditor with
  | Some a ->
    Auditor.sample a ~query:key.Canonical.text ~hash:key.Canonical.hash
      ~ast:cast ~estimate:value
  | None -> ()

let estimate ?seq ~enqueued_at t ast =
  let s = t.shared in
  let t0 = Obs.now_mono () in
  let cast = Canonical.canonicalize ast in
  let hash = Canonical.hash cast in
  let canonicalize_s = Obs.now_mono () -. t0 in
  trace_stage t `Canonicalize ~t0 ~dur:canonicalize_s;
  (* A hit is verified against, and reports, the stored key text: a
     repeat never renders its query. *)
  let cached =
    match t.cache with
    | Some c -> Lru_cache.find_hashed c ~hash (Canonical.matches cast)
    | None -> None
  in
  match cached with
  | Some (query, outcome) ->
    let key = { Canonical.hash; text = query } in
    let value = outcome.Core.Estimator.value in
    emit ?seq t ~query ~hash ~cache:Flight_recorder.Hit ~estimate:value
      ~canonicalize_s ~ept_s:0.0 ~match_s:0.0 ~ept_nodes:0 ~frontier_peak:0
      ~degenerate_clamps:outcome.Core.Estimator.clamped ~het_hits:0;
    answered t ~key ~cast ~cache_hit:true value;
    Ok { key; outcome; status = Core.Explain.Hit }
  | None
    when match s.deadline_s with
      | Some d -> Obs.now_mono () -. enqueued_at > d
      | None -> false ->
    (* The deadline checkpoint sits between canonicalize (cheap, already
       spent) and the pipeline (the expensive part we refuse to start). A
       cache hit above never times out: answering it is cheaper than
       refusing. *)
    Atomic.incr s.timeouts;
    refuse ?seq t ~query:(Xpath.Ast.to_string cast) ~hash
      ~cache:Flight_recorder.Timed_out;
    Error (timeout_error ())
  | None ->
    let query = Xpath.Ast.to_string cast in
    let key = { Canonical.hash; text = query } in
    (* HET hits are counted from after the EPT is in hand, so they are the
       matcher's own lookups whether or not this miss built the EPT. *)
    let ept_s = ref 0.0 and het_before = ref None in
    let ept =
      lazy
        (let t1 = Obs.now_mono () in
         let e = shared_ept s in
         ept_s := Obs.now_mono () -. t1;
         het_before := het_snapshot s;
         e)
    in
    let t1 = Obs.now_mono () in
    (match
       Core.Estimator.estimate_result_stats_on ~scratch:t.scratch t.estimator
         ept cast
     with
     | Error e -> Error e
     | Ok (outcome, ms) ->
       let miss_s = Obs.now_mono () -. t1 in
       let status =
         match t.cache with
         | Some c ->
           Lru_cache.put_hashed c ~hash query outcome;
           Core.Explain.Miss
         | None -> Core.Explain.Bypass
       in
       let value = outcome.Core.Estimator.value in
       emit ?seq t ~query ~hash ~cache:(flight_status status) ~estimate:value
         ~canonicalize_s ~ept_s:!ept_s
         ~match_s:(Float.max 0.0 (miss_s -. !ept_s))
         ~ept_nodes:ms.Core.Matcher.ept_nodes
         ~frontier_peak:ms.Core.Matcher.frontier_peak
         ~degenerate_clamps:outcome.Core.Estimator.clamped
         ~het_hits:(het_hits_since s !het_before);
       answered t ~key ~cast ~cache_hit:false value;
       trace_stage t `Pipeline ~t0:t1 ~dur:miss_s;
       Ok { key; outcome; status })

let observe s ~estimate ~actual =
  Option.iter
    (fun d -> ignore (Drift.observe ?obs:s.drift_obs d ~estimate ~actual : float))
    s.drift

(* The one feedback judge, shared by FEEDBACK and the audit fold. *)
let judge s ~refresh ast ~estimate ~actual =
  let ept = built_ept s in
  let fb =
    Feedback.apply ?ept ~threshold:s.threshold s.base ast ~estimate ~actual
  in
  if fb.Feedback.refined then begin
    s.feedback_rounds <- s.feedback_rounds + 1;
    refresh ()
  end;
  fb

let feedback ?seq ~enqueued_at ~refresh t ast ~actual =
  match estimate ?seq ~enqueued_at t ast with
  | Error e -> Error e
  | Ok served ->
    let s = t.shared in
    let estimate = served.outcome.Core.Estimator.value in
    s.feedback_seen <- s.feedback_seen + 1;
    observe s ~estimate ~actual;
    Ok
      ( served,
        judge s ~refresh (Canonical.canonicalize ast) ~estimate ~actual )

let drain_audits ?next_seq ~refresh t =
  let s = t.shared in
  match s.auditor with
  | None -> ()
  | Some a ->
    Auditor.drain a (fun r ->
        let estimate = r.Auditor.estimate and actual = r.Auditor.actual in
        observe s ~estimate ~actual;
        let worst_step, worst_axis, contribution =
          match r.Auditor.worst with
          | None -> ("", "", 1.0)
          | Some w -> (w.Auditor.step, w.Auditor.axis, w.Auditor.contribution)
        in
        refuse
          ?seq:(Option.map (fun f -> f ()) next_seq)
          ~audit:
            { Flight_recorder.audit_actual = actual;
              audit_qerror = r.Auditor.qerror;
              audit_worst_step = worst_step;
              audit_worst_axis = worst_axis;
              audit_contribution = contribution }
          ~estimate t ~query:r.Auditor.query ~hash:r.Auditor.hash
          ~cache:Flight_recorder.Audited;
        if Auditor.feedback_enabled a then begin
          let fb = judge s ~refresh r.Auditor.ast ~estimate ~actual in
          if fb.Feedback.refined then Auditor.note_refined a
        end)

let explain ?obs ?seq ~cached t ast =
  let s = t.shared in
  let t0 = Obs.now_mono () in
  let cast = Canonical.canonicalize ast in
  let key = Canonical.of_ast cast in
  let canonicalize_s = Obs.now_mono () -. t0 in
  let status =
    if cached key.Canonical.text then Core.Explain.Hit else Core.Explain.Miss
  in
  let het_before = het_snapshot s in
  match guard_ept (fun () -> Core.Explain.run ?obs s.base cast) with
  | Error e -> Error e
  | Ok r ->
    emit ?seq t ~query:key.Canonical.text ~hash:key.Canonical.hash
      ~cache:(flight_status status) ~estimate:r.Core.Explain.estimate
      ~canonicalize_s ~ept_s:r.Core.Explain.ept_seconds
      ~match_s:r.Core.Explain.match_seconds ~ept_nodes:r.Core.Explain.ept_nodes
      ~frontier_peak:r.Core.Explain.matcher.Core.Matcher.frontier_peak
      ~degenerate_clamps:r.Core.Explain.degenerate_clamps
      ~het_hits:(het_hits_since s het_before);
    Ok
      { r with
        Core.Explain.cache = status;
        feedback_rounds = s.feedback_rounds }

let stats_fields s ~capacity ~size (c : Lru_cache.counters) =
  let open Obs.Json in
  let het =
    match Core.Estimator.het s.base with
    | None -> Null
    | Some h ->
      let u = Core.Het.counters h in
      Obj
        [ ("active", Int (Core.Het.active_count h));
          ("total", Int (Core.Het.total_count h));
          ("bytes", Int (Core.Het.size_in_bytes h));
          ("simple_lookups", Int u.Core.Het.simple_lookups);
          ("simple_hits", Int u.Core.Het.simple_hits);
          ("branching_lookups", Int u.Core.Het.branching_lookups);
          ("branching_hits", Int u.Core.Het.branching_hits);
          ("feedback_inserts", Int u.Core.Het.feedback_inserts);
          ("collisions", Int u.Core.Het.collisions) ]
  in
  [ ( "cache",
      Obj
        [ ("capacity", Int capacity);
          ("size", Int size);
          ("hits", Int c.hits);
          ("misses", Int c.misses);
          ("insertions", Int c.insertions);
          ("evictions", Int c.evictions);
          ("invalidations", Int c.invalidations) ] );
    ( "feedback",
      Obj
        [ ("seen", Int s.feedback_seen);
          ("rounds", Int s.feedback_rounds);
          ("qerror_threshold", Float s.threshold) ] );
    ("het", het) ]

let publish s obs ~capacity ~size ~flight_records (c : Lru_cache.counters) =
  Obs.max_to ~obs "engine.cache.hits" c.hits;
  Obs.max_to ~obs "engine.cache.misses" c.misses;
  Obs.max_to ~obs "engine.cache.insertions" c.insertions;
  Obs.max_to ~obs "engine.cache.evictions" c.evictions;
  Obs.max_to ~obs "engine.cache.invalidations" c.invalidations;
  Obs.set_to ~obs "engine.cache.size" (float_of_int size);
  Obs.set_to ~obs "engine.cache.capacity" (float_of_int capacity);
  Obs.max_to ~obs "engine.feedback.seen" s.feedback_seen;
  Obs.max_to ~obs "engine.feedback.rounds" s.feedback_rounds;
  Obs.set_to ~obs "engine.synopsis_bytes"
    (float_of_int (Core.Estimator.size_in_bytes s.base));
  (match Core.Estimator.het s.base with
   | None -> ()
   | Some h ->
     let u = Core.Het.counters h in
     Obs.set_to ~obs "engine.het.active" (float_of_int (Core.Het.active_count h));
     Obs.set_to ~obs "engine.het.total" (float_of_int (Core.Het.total_count h));
     Obs.set_to ~obs "engine.het.bytes" (float_of_int (Core.Het.size_in_bytes h));
     Obs.max_to ~obs "het.simple_lookups" u.Core.Het.simple_lookups;
     Obs.max_to ~obs "het.simple_hits" u.Core.Het.simple_hits;
     Obs.max_to ~obs "het.branching_lookups" u.Core.Het.branching_lookups;
     Obs.max_to ~obs "het.branching_hits" u.Core.Het.branching_hits;
     Obs.max_to ~obs "het.feedback_inserts" u.Core.Het.feedback_inserts;
     Obs.max_to ~obs "het.collisions" u.Core.Het.collisions);
  Option.iter (Obs.max_to ~obs "engine.flight.records") flight_records;
  Option.iter (fun a -> Auditor.publish a obs) s.auditor;
  Option.iter (fun d -> Drift.publish d obs) s.drift
