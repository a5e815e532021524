(* Multi-shard serving pool: N {!Shard}s answered on the caller's thread.

   One synopsis (kernel + HET + values) and one materialized EPT are shared
   read-only by N shards, each running the same pipeline the single engine
   runs inline; everything written on the estimate hot path is per-shard
   (LRU cache, flight-recorder ring, Obs registry, drift volume ring) and
   guarded by the shard's own mutex. The pool spawns no domain: a TCP
   front-end domain serves every frame on the shard bound to it, so the
   mutex is uncontended and an estimate never changes domain; an
   in-process caller checks out any free shard, or waits for one.

   Writes to the shared state — HET refinement and the EPT rebuild —
   happen only in the single-writer section: it takes every shard mutex
   in index order, then the coordinator lock, mutates, bumps the epoch
   and releases. A shard notices the epoch change the next time it serves
   and drops its own stale cache; the mutex acquire/release pairs give
   the happens-before edge that makes the new EPT pointer and HET
   contents visible to it. *)

(* Interned trace-event names, resolved once at create so the request path
   records integer ids only. *)
type trace_names = {
  n_frame : int;
  n_feedback : int;
  n_explain : int;
  n_gc_minor_words : int;
  n_gc_major_words : int;
}

type tracing = {
  tr : Obs.Trace.t;
  coord : Obs.Trace.buf;  (* written under [coord_lock] *)
  names : trace_names;
}

type shard = {
  id : int;
  lock : Mutex.t;  (* guards every mutable field below and [core] *)
  core : Shard.t;
      (* its estimator shares the base's kernel/HET/values, owns [obs] *)
  obs : Obs.t;
  cache : Core.Estimator.outcome Lru_cache.t;
  tbuf : Obs.Trace.buf option;
  sessions : int Atomic.t;  (* TCP sessions bound to this shard *)
  mutable epoch_seen : int;
  mutable frames : int;  (* requests served *)
  mutable busy_s : float;  (* serving time, accumulated *)
  mutable last_served_at : float;  (* monotonic finish instant; 0 = never *)
  queue_wait_us : Obs.histogram;  (* in [obs]; merges pool-wide by key *)
  gc_minor_words : Obs.counter;
  gc_major_words : Obs.counter;
  gc_minor_collections : Obs.counter;
  gc_major_collections : Obs.counter;
}

type t = {
  shared : Shard.shared;
  coord : Shard.t;
      (* the coordinator shard: base estimator, no cache, its own ring;
         runs the single-writer verbs and records sheds *)
  coord_lock : Mutex.t;
      (* guards [coord] and the coordinator trace track; always taken
         innermost, after any shard locks *)
  shards : shard array;
  epoch : int Atomic.t;
  next_seq : int Atomic.t;  (* flight-record sequence numbers *)
  stopped : bool Atomic.t;
  queue_capacity : int;
  shed_policy : [ `Block | `Shed_newest ];
  waiting : int Atomic.t;  (* admitted slots of callers waiting for a shard *)
  waiters : int Atomic.t;  (* callers blocked in [wait_any] *)
  free_lock : Mutex.t;
  free_cond : Condition.t;  (* a shard was released *)
  shed_total : int Atomic.t;
  worker_restarts : int Atomic.t;
  chaos : (string -> bool) option;
      (* test-only fault hook, called right before a query executes;
         returning true raises outside the per-query guard *)
  quarantine_lock : Mutex.t;
  crashes : (string, int) Hashtbl.t;  (* under quarantine_lock *)
  quarantine_active : bool Atomic.t;
      (* fast-path flag so the serve loop skips the crash table (and its
         lock) entirely until a first crash repeats *)
  record_lock : Mutex.t;  (* serializes the flight-record sink *)
  mutable on_feedback :
    (string -> actual:int -> (unit, Core.Error.t) result) option;
  telemetry : bool;
  created_at : float;  (* monotonic; busy fractions divide by uptime *)
  tracing : tracing option;
  scrape : Scrape_meter.t;
}

(* Limit refusals name the live limit in the uniform limit=<n> form (the
   same convention as the BATCH cap and the TCP frame/connection caps) so
   clients can parse their budget out of any ERR. *)
let overloaded_error ~capacity () =
  Core.Error.make Core.Error.Overloaded
    (Printf.sprintf
       "admission queue full limit=%d (server --queue-capacity); request \
        shed (policy shed-newest)"
       capacity)

let closed_error () =
  Core.Error.make Core.Error.Internal "the pool has been shut down"

let past_deadline t ~arrived ~now =
  match t.shared.Shard.deadline_s with
  | None -> false
  | Some d -> now -. arrived > d

(* Crash bookkeeping: a query whose execution has crashed twice is
   quarantined — later submissions are answered [ERR internal] before
   executing, so one poisonous input cannot grind the pool through endless
   restarts. *)
let note_crash t query =
  Mutex.protect t.quarantine_lock (fun () ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.crashes query) in
      Hashtbl.replace t.crashes query n;
      if n >= 2 then Atomic.set t.quarantine_active true)

let is_quarantined t query =
  Atomic.get t.quarantine_active
  && Mutex.protect t.quarantine_lock (fun () ->
         Option.value ~default:0 (Hashtbl.find_opt t.crashes query) >= 2)

let quarantined_count t =
  if not (Atomic.get t.quarantine_active) then 0
  else
    Mutex.protect t.quarantine_lock (fun () ->
        Hashtbl.fold (fun _ n acc -> if n >= 2 then acc + 1 else acc) t.crashes 0)

let quarantined_error () =
  Core.Error.make Core.Error.Internal
    "query quarantined: its execution crashed a shard twice"

let create ?(workers = 2) ?(qerror_threshold = 2.0) ?(cache_capacity = 1024)
    ?(telemetry = true) ?(recorder_capacity = 256) ?(drift_slots = 6)
    ?(drift_per_slot = 64) ?(drift_p90_threshold = 8.0) ?(queue_capacity = 256)
    ?trace ?deadline_s ?(shed_policy = `Block) ?chaos ?auditor estimator =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Pool.create: workers %d < 1" workers);
  if queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: queue_capacity %d < 1" queue_capacity);
  if not (Float.is_finite qerror_threshold) || qerror_threshold < 1.0 then
    invalid_arg "Pool.create: qerror_threshold must be finite and >= 1";
  (match deadline_s with
   | Some d when Float.is_nan d ->
     invalid_arg "Pool.create: deadline_s must not be NaN"
   | _ -> ());
  let drift =
    if telemetry then
      Some
        (Drift.create ~slots:drift_slots ~per_slot:drift_per_slot
           ~p90_threshold:drift_p90_threshold ())
    else None
  in
  let tracing =
    Option.map
      (fun tr ->
        { tr;
          coord = Obs.Trace.register tr ~tid:0 ~name:"coordinator";
          names =
            { n_frame = Obs.Trace.intern tr "frame";
              n_feedback = Obs.Trace.intern tr "feedback";
              n_explain = Obs.Trace.intern tr "explain";
              n_gc_minor_words = Obs.Trace.intern tr "gc.minor_words";
              n_gc_major_words = Obs.Trace.intern tr "gc.major_words" } })
      trace
  in
  let shared =
    Shard.shared ?auditor ~threshold:qerror_threshold ~deadline_s ~drift
      estimator
  in
  ignore (Shard.build_ept shared : (Core.Matcher.ept, Core.Error.t) result);
  let recorder () =
    if telemetry then
      Some (Flight_recorder.create ~capacity:recorder_capacity ())
    else None
  in
  let shards =
    Array.init workers (fun id ->
        let obs = Obs.create () in
        let shard_labels = [ ("shard", string_of_int id) ] in
        let cache = Lru_cache.create ~capacity:cache_capacity in
        let trace =
          Option.map
            (fun tr ->
              Shard.tracing tr ~tid:(id + 1)
                ~name:(Printf.sprintf "shard-%d" id))
            trace
        in
        { id;
          lock = Mutex.create ();
          core =
            Shard.create ~cache ?trace shared ~recorder:(recorder ())
              ~estimator:
                (Core.Estimator.create
                   ~card_threshold:(Core.Estimator.card_threshold estimator)
                   ~max_ept_nodes:(Core.Estimator.max_ept_nodes estimator)
                   ~recursion_aware:(Core.Estimator.recursion_aware estimator)
                   ?het:(Core.Estimator.het estimator)
                   ?values:(Core.Estimator.values estimator)
                   ~obs
                   (Core.Estimator.kernel estimator));
          obs;
          cache;
          tbuf = Option.map (fun (st : Shard.tracing) -> st.buf) trace;
          sessions = Atomic.make 0;
          epoch_seen = 0;
          frames = 0;
          busy_s = 0.0;
          last_served_at = 0.0;
          queue_wait_us = Obs.histogram obs "engine.pool.queue_wait_us";
          gc_minor_words = Obs.counter_with obs "engine.gc.minor_words" shard_labels;
          gc_major_words = Obs.counter_with obs "engine.gc.major_words" shard_labels;
          gc_minor_collections =
            Obs.counter_with obs "engine.gc.minor_collections" shard_labels;
          gc_major_collections =
            Obs.counter_with obs "engine.gc.major_collections" shard_labels })
  in
  { shared;
    coord = Shard.create shared ~estimator ~recorder:(recorder ());
    coord_lock = Mutex.create ();
    shards;
    epoch = Atomic.make 0;
    next_seq = Atomic.make 0;
    stopped = Atomic.make false;
    queue_capacity;
    shed_policy;
    waiting = Atomic.make 0;
    waiters = Atomic.make 0;
    free_lock = Mutex.create ();
    free_cond = Condition.create ();
    shed_total = Atomic.make 0;
    worker_restarts = Atomic.make 0;
    chaos;
    quarantine_lock = Mutex.create ();
    crashes = Hashtbl.create 16;
    quarantine_active = Atomic.make false;
    record_lock = Mutex.create ();
    on_feedback = None;
    telemetry;
    created_at = Obs.now_mono ();
    tracing;
    scrape = Scrape_meter.create () }

let workers t = Array.length t.shards
let epoch t = Atomic.get t.epoch
let shed_total t = Atomic.get t.shed_total
let timeout_total t = Atomic.get t.shared.Shard.timeouts
let worker_restarts t = Atomic.get t.worker_restarts
let waiters t = Atomic.get t.waiters
let qerror_threshold t = t.shared.Shard.threshold
let feedback_seen t = t.shared.Shard.feedback_seen
let feedback_rounds t = t.shared.Shard.feedback_rounds
let drift t = t.shared.Shard.drift

(* The sink may be called from any shard: serialize it. *)
let set_on_record t f =
  t.shared.Shard.sink <- Some (fun r -> Mutex.protect t.record_lock (fun () -> f r))

let set_on_feedback t f = t.on_feedback <- Some f

let shard_cache_counters t =
  Array.map (fun (s : shard) -> Lru_cache.counters s.cache) t.shards

(* ------------------------------------------------------------------ *)
(* Shard checkout *)

let release t s =
  Mutex.unlock s.lock;
  if Atomic.get t.waiters > 0 then
    Mutex.protect t.free_lock (fun () -> Condition.broadcast t.free_cond)

(* Any free shard, probing from one derived from the calling domain so
   concurrent callers start on different shards. *)
let try_any t =
  let n = Array.length t.shards in
  let start = (Domain.self () :> int) mod n in
  let rec go i =
    if i = n then None
    else
      let s = t.shards.((start + i) mod n) in
      if Mutex.try_lock s.lock then Some s else go (i + 1)
  in
  go 0

(* Block until a shard frees up, or [None] once the pool is shut down.
   [waiters] is raised before the probe, so a release either sees it and
   broadcasts, or happened before the probe and left its shard for the
   probe to take; [shutdown] broadcasts under [free_lock] after setting
   [stopped], so a waiter either sees the flag or is woken to see it. *)
let wait_any t =
  Mutex.protect t.free_lock (fun () ->
      Atomic.incr t.waiters;
      let rec go () =
        if Atomic.get t.stopped then None
        else
          match try_any t with
          | Some s -> Some s
          | None ->
            Condition.wait t.free_cond t.free_lock;
            go ()
      in
      let s = go () in
      Atomic.decr t.waiters;
      s)

(* Shed-newest admission: of [n] slots about to wait, admit what fits under
   [queue_capacity] alongside the slots already waiting. *)
let rec reserve t n =
  let w = Atomic.get t.waiting in
  let k = max 0 (min n (t.queue_capacity - w)) in
  if Atomic.compare_and_set t.waiting w (w + k) then k else reserve t n

let next_seq t = Atomic.fetch_and_add t.next_seq 1

(* Refuse slots [from, n) with ERR overloaded; the records land on the
   coordinator's ring. *)
let shed_slots t ~seq_base queries results ~from =
  let n = Array.length queries in
  if from < n then begin
    let err = overloaded_error ~capacity:t.queue_capacity () in
    Mutex.protect t.coord_lock (fun () ->
        for i = from to n - 1 do
          Atomic.incr t.shed_total;
          Shard.refuse ~seq:(seq_base + i) t.coord ~query:queries.(i) ~hash:0
            ~cache:Flight_recorder.Shed;
          results.(i) <- Some (Error err)
        done)
  end

(* The shard that serves a request and how many of its slots it admits:
   the pinned shard, any free one, or — with none free — the first to free
   up, after shedding what does not fit under shed-newest. *)
let acquire ?shard t ~seq_base queries results =
  let n = Array.length queries in
  match shard with
  | Some i ->
    let s = t.shards.(i) in
    Mutex.lock s.lock;
    (Some s, n)
  | None ->
    (match try_any t with
     | Some s -> (Some s, n)
     | None ->
       let admitted =
         match t.shed_policy with `Block -> n | `Shed_newest -> reserve t n
       in
       shed_slots t ~seq_base queries results ~from:admitted;
       if admitted = 0 then (None, 0)
       else begin
         let s = wait_any t in
         if t.shed_policy = `Shed_newest then
           ignore (Atomic.fetch_and_add t.waiting (-admitted) : int);
         (s, admitted)
       end)

(* ------------------------------------------------------------------ *)
(* Serving *)

(* One slot under the per-query guard. The chaos hook sits outside the
   guard on purpose: returning true escapes the way a real bug outside the
   guard would, exercising [serve]'s recovery. *)
let serve_slot t s ~seq ~arrived query =
  let now = Obs.now_mono () in
  if is_quarantined t query then Error (quarantined_error ())
  else if past_deadline t ~arrived ~now then begin
    (* First deadline checkpoint, per slot: the budget runs from the
       request's arrival, so a deadline can expire mid-batch — earlier
       slots answered, later ones refused. *)
    Atomic.incr t.shared.Shard.timeouts;
    Shard.refuse ~seq s.core ~query ~hash:0 ~cache:Flight_recorder.Timed_out;
    Error (Shard.timeout_error ())
  end
  else begin
    (match t.chaos with
     | Some kill when kill query -> failwith "chaos: shard killed"
     | Some _ | None -> ());
    try
      match Shard.parse query with
      | Error e -> Error e
      | Ok ast -> Shard.reply (Shard.estimate ~seq ~enqueued_at:arrived s.core ast)
    with exn ->
      Error
        (match Core.Error.of_exn exn with
         | Some e -> e
         | None -> Core.Error.make Core.Error.Internal (Printexc.to_string exn))
  end

let sample_gc t s gc0 ~t1 =
  let gc1 = Gc.quick_stat () in
  Obs.add s.gc_minor_words
    (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
  Obs.add s.gc_major_words
    (int_of_float
       (gc1.Gc.major_words +. gc1.Gc.promoted_words
       -. (gc0.Gc.major_words +. gc0.Gc.promoted_words)));
  Obs.add s.gc_minor_collections
    (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  Obs.add s.gc_major_collections
    (gc1.Gc.major_collections - gc0.Gc.major_collections);
  match (t.tracing, s.tbuf) with
  | Some tg, Some tb ->
    let ts = Obs.Trace.rel tg.tr t1 in
    Obs.Trace.counter tb ~name:tg.names.n_gc_minor_words ~ts
      ~value:gc1.Gc.minor_words;
    Obs.Trace.counter tb ~name:tg.names.n_gc_major_words ~ts
      ~value:(gc1.Gc.major_words +. gc1.Gc.promoted_words)
  | _ -> ()

(* Serve slots [0, upto) on [s], whose lock the caller holds. An exception
   escaping the per-query guard is a crash: it is counted as a restart,
   noted against the slot's query for quarantine, and answers the slots
   not yet served [ERR internal]; the shard keeps serving. *)
let serve t s ~seq_base ~arrived queries results deq fin ~upto =
  let e = Atomic.get t.epoch in
  if e <> s.epoch_seen then begin
    (* Feedback refined the synopsis since this shard last served: every
       cached outcome may be stale. *)
    Lru_cache.clear s.cache;
    s.epoch_seen <- e
  end;
  let t0 = Obs.now_mono () in
  let gc0 =
    if t.telemetry || Option.is_some t.tracing then Some (Gc.quick_stat ())
    else None
  in
  let slot = ref 0 in
  (try
     while !slot < upto do
       let i = !slot in
       deq.(i) <- Obs.now_mono ();
       results.(i) <-
         Some (serve_slot t s ~seq:(seq_base + i) ~arrived queries.(i));
       fin.(i) <- Obs.now_mono ();
       slot := i + 1
     done
   with exn ->
     Atomic.incr t.worker_restarts;
     note_crash t queries.(!slot);
     let err =
       Core.Error.make Core.Error.Internal
         (Printf.sprintf "shard %d died serving this query: %s (restarted)"
            s.id (Printexc.to_string exn))
     in
     let now = Obs.now_mono () in
     for i = !slot to upto - 1 do
       results.(i) <- Some (Error err);
       if deq.(i) = 0.0 then deq.(i) <- now;
       fin.(i) <- now
     done);
  let t1 = Obs.now_mono () in
  s.frames <- s.frames + 1;
  s.busy_s <- s.busy_s +. (t1 -. t0);
  s.last_served_at <- t1;
  if t.telemetry then Obs.hobserve s.queue_wait_us (1e6 *. (t0 -. arrived));
  (match (t.tracing, s.tbuf) with
   | Some tg, Some tb ->
     Obs.Trace.complete_seq tb ~name:tg.names.n_frame
       ~ts:(Obs.Trace.rel tg.tr t0) ~dur:(t1 -. t0) ~seq:seq_base
   | _ -> ());
  Option.iter (fun gc0 -> sample_gc t s gc0 ~t1) gc0

(* Run a request to completion on one shard. Returns the results in
   submission order, the arrival instant, the per-slot start/finish stamps
   (zero for refused slots, for PROFILE) and the completion instant. *)
let run_batch ?shard ?arrived ?(shed = false) t queries =
  let queries = Array.of_list queries in
  let n = Array.length queries in
  let arrived = match arrived with Some a -> a | None -> Obs.now_mono () in
  let results = Array.make n None in
  let deq = Array.make n 0.0 and fin = Array.make n 0.0 in
  if n > 0 && not (Atomic.get t.stopped) then begin
    let seq_base = Atomic.fetch_and_add t.next_seq n in
    if shed then shed_slots t ~seq_base queries results ~from:0
    else
      match acquire ?shard t ~seq_base queries results with
      | None, _ -> ()
      | Some s, upto ->
        Fun.protect ~finally:(fun () -> release t s) @@ fun () ->
        if not (Atomic.get t.stopped) then
          serve t s ~seq_base ~arrived queries results deq fin ~upto
  end;
  let out =
    Array.map (function Some r -> r | None -> Error (closed_error ())) results
  in
  (out, arrived, deq, fin, Obs.now_mono ())

let estimate_batch ?shard t queries =
  let results, _, _, _, _ = run_batch ?shard t queries in
  Array.to_list results

let estimate ?shard t query =
  match estimate_batch ?shard t [ query ] with
  | [ r ] -> r
  | _ -> Error (closed_error ())

(* The PROFILE verb: exact per-stage percentiles from the per-slot stamps.
   Stages partition each query's life: queue-wait (arrival to execution
   start — the wait for a shard plus the slot's predecessors in the
   batch), execute (start to result), reassemble (result to batch
   completion). Refused slots carry zero stamps and are skipped. *)
let profile_of ?shard ?arrived ?shed t queries =
  let out, arrived, deq, fin, t_done = run_batch ?shard ?arrived ?shed t queries in
  let count kind =
    Array.fold_left
      (fun acc -> function
        | Result.Error e when Core.Error.kind e = kind -> acc + 1
        | _ -> acc)
      0 out
  in
  let served = ref [] in
  Array.iteri
    (fun slot _ ->
      if deq.(slot) > 0.0 && fin.(slot) > 0.0 then served := slot :: !served)
    out;
  let served = List.rev !served in
  let stage f = Array.of_list (List.map f served) in
  Ok
    { Serve.profiled = List.length served;
      queue_wait_us =
        Serve.percentiles
          (stage (fun i -> 1e6 *. Float.max 0.0 (deq.(i) -. arrived)));
      execute_us =
        Serve.percentiles
          (stage (fun i -> 1e6 *. Float.max 0.0 (fin.(i) -. deq.(i))));
      reassemble_us =
        Serve.percentiles
          (stage (fun i -> 1e6 *. Float.max 0.0 (t_done -. fin.(i))));
      timed_out = count Core.Error.Timeout;
      shed = count Core.Error.Overloaded;
      steals = 0;
      tenant = None }

let profile ?shard t queries = profile_of ?shard t queries

(* ------------------------------------------------------------------ *)
(* The single-writer section *)

(* Rebuild eagerly while every shard is held, unless the refinement left
   the EPT current; shards drop their caches when they observe the new
   epoch. *)
let refresh t () =
  Shard.refresh_ept ~eager:true t.shared;
  Atomic.incr t.epoch

let shared_ept t = Shard.built_ept t.shared

(* Take every shard mutex in index order, then the coordinator lock, and
   run [f]: no estimate is in flight while the shared HET/EPT, the drift
   window or the coordinator ring change. Callers never hold a shard
   mutex here, so the fixed order cannot deadlock. [verb] names the
   coordinator-track slice that frames the work. *)
let exclusive ?verb t f =
  Array.iter (fun s -> Mutex.lock s.lock) t.shards;
  Mutex.lock t.coord_lock;
  let t0 = Obs.now_mono () in
  Fun.protect
    ~finally:(fun () ->
      (match (verb, t.tracing) with
       | Some name, Some tg ->
         Obs.Trace.complete tg.coord ~name:(name tg.names)
           ~ts:(Obs.Trace.rel tg.tr t0)
           ~dur:(Obs.now_mono () -. t0)
       | _ -> ());
      Mutex.unlock t.coord_lock;
      Array.iter (release t) t.shards)
    (fun () -> if Atomic.get t.stopped then Error (closed_error ()) else f ())

(* Completed shadow audits fold into the coordinator's telemetry only in
   the single-writer section, so [Drift.observe] cannot race a shard's
   [note_shard] and audit feedback follows the client-feedback epoch
   protocol. *)
let drain_audits_locked t =
  Shard.drain_audits ~next_seq:(fun () -> next_seq t) ~refresh:(refresh t)
    t.coord

(* The judged estimate is recomputed on the coordinator shard without a
   cache (a [Bypass] record), matching the single engine's arithmetic. The
   commit hook runs before the section ends, so commits follow the order
   refinements were applied in. *)
let feedback t query ~actual =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast ->
    exclusive ~verb:(fun n -> n.n_feedback) t (fun () ->
        drain_audits_locked t;
        match
          Shard.feedback ~seq:(next_seq t) ~enqueued_at:(Obs.now_mono ())
            ~refresh:(refresh t) t.coord ast ~actual
        with
        | Error e -> Error e
        | Ok (_, fb) ->
          (match t.on_feedback with
           | None -> Ok fb
           | Some commit -> Result.map (fun () -> fb) (commit query ~actual)))

let explain t query =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast ->
    exclusive ~verb:(fun n -> n.n_explain) t (fun () ->
        Shard.explain ~seq:(next_seq t)
          ~cached:(fun key ->
            Array.exists (fun (s : shard) -> Lru_cache.mem s.cache key) t.shards)
          t.coord ast)

(* Drop every shard cache by bumping the epoch (applied the next time each
   shard serves), without touching the synopsis. Used by benchmarks to
   force cold-cache passes. *)
let invalidate t =
  ignore
    (exclusive t (fun () ->
         Atomic.incr t.epoch;
         Ok ())
      : (unit, Core.Error.t) result)

(* Refuse first, then drain: a caller still waiting for a shard is woken
   into the refusal at once rather than served after the requests in
   flight, which run to completion before this returns. *)
let shutdown t =
  Atomic.set t.stopped true;
  Mutex.protect t.free_lock (fun () -> Condition.broadcast t.free_cond);
  Array.iter (fun s -> Mutex.lock s.lock) t.shards;
  Array.iter (release t) t.shards

(* ------------------------------------------------------------------ *)
(* Telemetry *)

(* Aggregate cache counters: the per-shard sums. *)
let cache_counters t =
  Array.fold_left
    (fun (acc : Lru_cache.counters) (c : Lru_cache.counters) ->
      { Lru_cache.hits = acc.hits + c.hits;
        misses = acc.misses + c.misses;
        insertions = acc.insertions + c.insertions;
        evictions = acc.evictions + c.evictions;
        invalidations = acc.invalidations + c.invalidations })
    { Lru_cache.hits = 0; misses = 0; insertions = 0; evictions = 0;
      invalidations = 0 }
    (shard_cache_counters t)

let cache_length t =
  Array.fold_left (fun acc (s : shard) -> acc + Lru_cache.length s.cache) 0 t.shards

let cache_capacity t =
  Array.fold_left (fun acc (s : shard) -> acc + Lru_cache.capacity s.cache) 0 t.shards

(* Serving time over the shard's active window (create to last served
   request), so a quiet re-scrape stays byte-identical — a live-uptime
   denominator would tick on its own. Read without the shard lock: a
   scrape may see a slightly stale pair, which is fine for a gauge. *)
let busy_fraction t (s : shard) =
  if s.last_served_at <= t.created_at then 0.0
  else Float.min 1.0 (s.busy_s /. (s.last_served_at -. t.created_at))

(* Every ring: the coordinator's first, then the shards' in order. *)
let recorders t =
  List.filter_map
    (fun (s : Shard.t) -> s.recorder)
    (t.coord :: Array.to_list (Array.map (fun (s : shard) -> s.core) t.shards))

let stats_json t =
  let open Obs.Json in
  Obj
    (Shard.stats_fields t.shared ~capacity:(cache_capacity t)
       ~size:(cache_length t) (cache_counters t)
    @ [ ( "synopsis_bytes",
          Int (Core.Estimator.size_in_bytes t.shared.Shard.base) );
        ( "pool",
          Obj
            [ ("workers", Int (workers t));
              ("epoch", Int (epoch t));
              (* Nothing moves between shards any more; the two fields
                 stay at 0 for readers of the earlier schema. *)
              ("queue_steals", Int 0);
              ("affinity_hits", Int 0);
              ("shed_total", Int (shed_total t));
              ("timeout_total", Int (timeout_total t));
              ("worker_restarts", Int (worker_restarts t));
              ("quarantined", Int (quarantined_count t));
              ( "domains",
                List
                  (Array.to_list
                     (Array.map
                        (fun (s : shard) ->
                          Obj
                            [ ("connections", Int (Atomic.get s.sessions));
                              ("frames", Int s.frames);
                              ("busy_fraction", Float (busy_fraction t s)) ])
                        t.shards)) ) ] ) ])

(* One scrape: pool-level totals published into a scratch registry, merged
   with every shard's pipeline registry. The merge orders series by key, so
   the exposition is deterministic no matter how work was scheduled; it is
   rebuilt per scrape, so repeated scrapes without traffic are identical. *)
let metrics_text t =
  let t0 = Obs.now_mono () in
  let obs = Obs.create () in
  let c = cache_counters t in
  Shard.publish t.shared obs ~capacity:(cache_capacity t) ~size:(cache_length t)
    ~flight_records:
      (Some
         (List.fold_left
            (fun acc r -> acc + Flight_recorder.total r)
            0 (recorders t)))
    c;
  Scrape_meter.publish t.scrape ~obs
    ~served:
      (c.Lru_cache.hits + c.Lru_cache.misses + feedback_seen t
      + timeout_total t + shed_total t);
  Obs.set_to ~obs "engine.pool.workers" (float_of_int (workers t));
  Obs.set_to ~obs "engine.pool.epoch" (float_of_int (epoch t));
  Obs.add_to ~obs "engine.pool.shed_total" (shed_total t);
  Obs.add_to ~obs "engine.pool.timeout_total" (timeout_total t);
  Obs.add_to ~obs "engine.pool.worker_restarts" (worker_restarts t);
  Obs.set_to ~obs "engine.pool.quarantined" (float_of_int (quarantined_count t));
  Array.iter
    (fun (s : shard) ->
      let labels = [ ("shard", string_of_int s.id) ] in
      Obs.add (Obs.counter_with obs "engine.pool.frames" labels) s.frames;
      Obs.gset
        (Obs.gauge_with obs "engine.pool.busy_fraction" labels)
        (busy_fraction t s))
    t.shards;
  let text =
    Obs.prometheus ~prefix:"xseed_"
      (Obs.merged
         (obs :: Array.to_list (Array.map (fun (s : shard) -> s.obs) t.shards)))
  in
  Scrape_meter.note t.scrape (Obs.now_mono () -. t0);
  text

(* Flight records from every shard ring plus the coordinator ring, merged
   newest-submission-first on the global sequence number. *)
let recent ?n t =
  let sorted =
    List.concat_map Flight_recorder.recent (recorders t)
    |> List.sort (fun (a : Flight_recorder.record) b -> compare b.seq a.seq)
  in
  match n with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let telemetry_disabled () =
  Core.Error.make Core.Error.Internal "telemetry is disabled on this pool"

let server ?shard ?arrived ?shed t =
  Option.iter
    (fun i ->
      if i < 0 || i >= workers t then
        invalid_arg
          (Printf.sprintf "Pool.server: shard %d out of range [0,%d)" i
             (workers t));
      Atomic.incr t.shards.(i).sessions)
    shard;
  (* The transport's view of the frame being answered. *)
  let arrived () = Option.map (fun f -> f ()) arrived in
  let shed () = match shed with Some f -> f () | None -> false in
  let batch qs =
    let results, _, _, _, _ =
      run_batch ?shard ?arrived:(arrived ()) ~shed:(shed ()) t qs
    in
    Array.to_list results
  in
  { Serve.estimate =
      (fun q ->
        match batch [ q ] with [ r ] -> r | _ -> Error (closed_error ()));
    estimate_batch = batch;
    feedback = (fun q ~actual -> feedback t q ~actual);
    explain = (fun q -> explain t q);
    stats_json = (fun () -> stats_json t);
    metrics_text = (fun () -> metrics_text t);
    recent =
      (fun n ->
        if recorders t = [] then Error (telemetry_disabled ())
        else Ok (recent ?n t));
    drift_json =
      (fun () ->
        match drift t with
        | None -> Error (telemetry_disabled ())
        | Some d -> Ok (Drift.to_json d));
    profile =
      (fun qs -> profile_of ?shard ?arrived:(arrived ()) ~shed:(shed ()) t qs);
    audit =
      (fun () ->
        match t.shared.Shard.auditor with
        | None -> Error (Shard.audit_disabled ())
        | Some a ->
          (* Settle outside the single-writer section so clients keep
             being served while the audit domain catches up; then fold the
             results in with every shard held. *)
          ignore (Auditor.settle ~timeout_s:5.0 a : bool);
          exclusive t (fun () ->
              drain_audits_locked t;
              Ok (Auditor.status_json a))) }
