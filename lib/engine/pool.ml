(* Multi-domain serving pool: N {!Shard}s behind one work queue.

   One synopsis (kernel + HET + values) and one materialized EPT are shared
   read-only by N worker domains, each running the same shard pipeline the
   single engine runs inline; everything written on the estimate hot path
   is per-shard (LRU cache, flight-recorder ring, Obs registry, drift
   volume ring), so answering an estimate takes no lock beyond the work
   queue's own mutex. Writes to the shared state — HET refinement and the
   EPT rebuild — happen only on the feedback path, which is single-writer:
   it takes the submission lock (stopping new chunks), waits for in-flight
   chunks to drain, mutates, bumps the epoch, and only then lets
   submissions resume. Workers notice the epoch change at their next
   dequeue and drop their own stale cache; the queue mutex's
   acquire/release pairs give the happens-before edge that makes the new
   EPT pointer and HET contents visible to them.

   The unit of dispatch is a chunk: BATCH n is split into contiguous
   per-shard slices (DESIGN.md §16), one queue operation per chunk.
   Replies are written lock-free into the batch's preallocated
   submission-order result array; the only latch is one idempotent
   completion per chunk, published to the submitter by the batch mutex.
   Idle shards steal chunks from the tail of busy shards' deques
   (half-splitting a victim's last divisible chunk), so a straggler no
   longer serializes the batch. *)

(* Interned trace-event names, resolved once at create so worker hot loops
   record integer ids only. *)
type trace_names = {
  n_execute : int;
  n_queue_wait : int;
  n_batch_submit : int;
  n_batch_gather : int;
  n_chunk_dispatch : int;
  n_steal : int;
  n_feedback : int;
  n_explain : int;
  n_query : int;  (* flow arrow: submit -> execute -> reassemble *)
  n_gc_minor_words : int;
  n_gc_major_words : int;
}

(* The coordinator buffer is written by whichever client thread is
   submitting, gathering, or running feedback/explain, so unlike the
   per-shard buffers it needs its own lock. Lock order: [coord_lock] is
   only ever taken innermost (inside [submit_lock] or alone). *)
type tracing = {
  tr : Obs.Trace.t;
  coord : Obs.Trace.buf;
  coord_lock : Mutex.t;
  names : trace_names;
}

(* Shard-hot mutable state, isolated per shard in its own record and
   padded well past a cache line (the pads push the block to 17 words =
   136 bytes on 64-bit) so two shards' hot words never share a line —
   without the pads, adjacent shards' [busy_s]/[epoch_seen] writes false-
   share and the 4-worker path spends its time in cache-coherence
   traffic instead of estimates. *)
type hot = {
  mutable epoch_seen : int;
  mutable busy_s : float;  (* dequeue-to-result time, accumulated *)
  mutable last_served_at : float;  (* monotonic finish instant; 0 = never *)
  mutable steals : int;  (* chunks this shard stole from another's deque *)
  mutable affinity_hits : int;
      (* affinity-routed chunks this shard served as the preferred shard *)
  mutable current : chunk option;
      (* the chunk being executed, set between dequeue and completion so
         the supervisor can answer its unserved slots if the worker body
         dies mid-chunk *)
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
  mutable pad4 : int;
  mutable pad5 : int;
  mutable pad6 : int;
  mutable pad7 : int;
  mutable pad8 : int;
  mutable pad9 : int;
}
[@@warning "-69"]

and shard = {
  id : int;
  core : Shard.t;
      (* its estimator shares the base's kernel/HET/values, owns [obs] *)
  obs : Obs.t;
  cache : Core.Estimator.outcome Lru_cache.t;
  tbuf : Obs.Trace.buf option;  (* written only by this shard's domain *)
  hot : hot;  (* all per-shard mutable scalars live here, padded *)
  queue_wait_us : Obs.histogram;  (* in [obs]; merges pool-wide by key *)
  gc_minor_words : Obs.counter;
  gc_major_words : Obs.counter;
  gc_minor_collections : Obs.counter;
  gc_major_collections : Obs.counter;
}

(* A submitted batch: [remaining] counts unanswered slots; each chunk
   decrements it exactly once (by its slot count) when it completes, and
   the submitter waits on the condition until it reaches zero. The batch
   mutex also publishes the workers' lock-free result-array writes to the
   submitter. *)
and batch = {
  mutable remaining : int;
  batch_lock : Mutex.t;
  batch_done : Condition.t;
}

(* A contiguous slice [c_base, c_hi) of one batch, the unit of dispatch.
   All chunks of a batch share the query/result/stamp arrays; slot [i]
   carries global sequence number [c_seq_base + i]. While a chunk sits in
   a deque nobody owns it, so the work queue's global mutex is what makes
   a steal-split (mutating [c_hi] and minting a sibling) safe. Once
   popped, only the serving worker touches [c_cursor]. *)
and chunk = {
  c_queries : string array;
  c_results : (Serve.estimate_reply, Core.Error.t) result option array;
  c_deq : float array;  (* per-slot execution-start stamps (0 = never) *)
  c_fin : float array;  (* per-slot finish stamps (0 = never) *)
  c_seq_base : int;  (* global seq of batch slot 0 *)
  c_parent : batch;
  c_enqueued_at : float;  (* deadline + queue-wait baseline, mono clock *)
  c_shard : int;  (* planned shard (≠ server when stolen) *)
  c_affinity : bool;  (* routed by client affinity *)
  c_span : bool;
      (* true when the submitter opened a queue-wait span + query flow for
         this chunk; split offspring carry false (no span to close) *)
  c_base : int;  (* first slot this record owns *)
  mutable c_hi : int;  (* exclusive; reduced on the victim by a split *)
  mutable c_cursor : int;  (* next slot to serve *)
  mutable c_done : bool;  (* under [c_parent.batch_lock]: idempotent latch *)
}

type t = {
  shared : Shard.shared;
  coord : Shard.t;
      (* the coordinator shard: base estimator, no cache, its own ring; runs
         the drained verbs and records sheds *)
  shards : shard array;
  queue : chunk Work_queue.t;
  chunk_target : int;  (* preferred slots per chunk *)
  mutable domains : unit Domain.t array;
  epoch : int Atomic.t;
  inflight : int Atomic.t;  (* chunks queued or executing *)
  shed_policy : [ `Block | `Shed_newest ];
  shed_total : int Atomic.t;
  worker_restarts : int Atomic.t;
  chaos : (string -> bool) option;
      (* test-only fault hook, called on the worker domain right before a
         query executes; returning true kills the worker body there *)
  quarantine_lock : Mutex.t;
  crash_counts : (string, int) Hashtbl.t;  (* under quarantine_lock *)
  quarantined_queries : (string, unit) Hashtbl.t;  (* under quarantine_lock *)
  quarantine_active : bool Atomic.t;
      (* fast-path flag so the serve hot loop skips the quarantine
         hashtable (and its lock) entirely until a first crash repeats *)
  drain_lock : Mutex.t;
  drain_cond : Condition.t;
  submit_lock : Mutex.t;  (* serializes submissions against feedback *)
  mutable next_seq : int;  (* under submit_lock *)
  record_lock : Mutex.t;  (* serializes the flight-record sink *)
  mutable stopped : bool;
  telemetry : bool;
  created_at : float;  (* monotonic; busy fractions divide by uptime *)
  coord_obs : Obs.t;  (* persistent coordinator registry (batch sizes) *)
  batch_chunk : Obs.histogram;  (* in [coord_obs] *)
  tracing : tracing option;
  scrape : Scrape_meter.t;
}

(* The chunk plan, a pure function so the partition laws are directly
   QCheck-able (test_pool). [n] slots are cut into
   min n (max workers (ceil n/chunk_target)) contiguous chunks — at least
   one per worker for parallelism, near [chunk_target] slots each so the
   dispatch cost amortizes, never more chunks than slots. Sizes differ by
   at most one (long chunks first); chunk [i] goes to shard [i mod
   workers], or every chunk to [preferred] under affinity routing (thieves
   rebalance if the preferred shard falls behind). *)
let plan_chunks ~n ~workers ~chunk_target ?preferred () =
  if n <= 0 then [||]
  else begin
    let target = max 1 chunk_target in
    let count = min n (max workers ((n + target - 1) / target)) in
    let base = n / count and rem = n mod count in
    Array.init count (fun i ->
        let lo = (i * base) + min i rem in
        let hi = lo + base + (if i < rem then 1 else 0) in
        let shard =
          match preferred with Some p -> p | None -> i mod workers
        in
        (lo, hi, shard))
  end

(* Limit refusals name the live limit in the uniform limit=<n> form (the
   same convention as the BATCH cap and the TCP frame/connection caps) so
   clients can parse their budget out of any ERR. *)
let overloaded_error ~capacity () =
  Core.Error.make Core.Error.Overloaded
    (Printf.sprintf
       "admission queue full limit=%d (server --queue-capacity); request \
        shed (policy shed-newest)"
       capacity)

let past_deadline t ~enqueued_at ~now =
  match t.shared.Shard.deadline_s with
  | None -> false
  | Some d -> now -. enqueued_at > d

(* Crash bookkeeping: a query whose execution has killed a worker twice is
   quarantined — subsequent submissions are answered [ERR internal] before
   executing, so one poisonous input cannot grind the pool through endless
   restarts. *)
let note_crash t query =
  Mutex.protect t.quarantine_lock (fun () ->
      let n =
        (match Hashtbl.find_opt t.crash_counts query with
         | Some n -> n
         | None -> 0)
        + 1
      in
      Hashtbl.replace t.crash_counts query n;
      if n >= 2 && not (Hashtbl.mem t.quarantined_queries query) then begin
        Hashtbl.replace t.quarantined_queries query ();
        Atomic.set t.quarantine_active true
      end)

let is_quarantined t query =
  Atomic.get t.quarantine_active
  && Mutex.protect t.quarantine_lock (fun () ->
         Hashtbl.mem t.quarantined_queries query)

let quarantined_count t =
  if not (Atomic.get t.quarantine_active) then 0
  else
    Mutex.protect t.quarantine_lock (fun () ->
        Hashtbl.length t.quarantined_queries)

let quarantined_error () =
  Core.Error.make Core.Error.Internal
    "query quarantined: its execution crashed a worker twice"

(* Retire a chunk exactly once: decrement the parent batch by the chunk's
   slot count and the pool's in-flight chunk count. Both the worker that
   executed the chunk and the supervisor cleaning up after a crashed
   worker call this; [c_done] (under the batch lock, which also publishes
   the result-array writes) makes the second call a no-op. *)
let complete_chunk t (c : chunk) =
  let slots = c.c_hi - c.c_base in
  let first =
    Mutex.protect c.c_parent.batch_lock (fun () ->
        if c.c_done then false
        else begin
          c.c_done <- true;
          c.c_parent.remaining <- c.c_parent.remaining - slots;
          if c.c_parent.remaining = 0 then
            Condition.broadcast c.c_parent.batch_done;
          true
        end)
  in
  if first then begin
    let before = Atomic.fetch_and_add t.inflight (-1) in
    if before = 1 then
      Mutex.protect t.drain_lock (fun () -> Condition.broadcast t.drain_cond)
  end

(* The thief-side split for a victim's last queued chunk: the victim keeps
   the leading (ceil) half [cursor, mid), the thief takes [mid, hi). Runs
   under the work queue's global mutex while nobody owns the chunk, which
   is what makes mutating [c_hi] safe. A chunk below 2 remaining slots is
   unsplittable — the granularity floor the deterministic stealing tests
   lean on: a lone length-1 chunk can never leave its planned shard. The
   thief's sibling is a fresh in-flight chunk, so the drain count grows
   here; that cannot race [wait_drained] past zero because the victim
   chunk being split is itself still in flight. *)
let split_chunk t (c : chunk) =
  let len = c.c_hi - c.c_cursor in
  if len < 2 then None
  else begin
    let mid = c.c_cursor + ((len + 1) / 2) in
    let thief =
      { c with c_base = mid; c_cursor = mid; c_span = false; c_done = false }
    in
    c.c_hi <- mid;
    Atomic.incr t.inflight;
    Some (c, thief)
  end

(* One dequeue-and-serve iteration cycle over whole chunks. Raises only if
   the worker body itself dies (chaos injection, or a bug outside the
   per-query guard) — the supervisor catches that, answers the chunk's
   unserved slots, and restarts. *)
let worker_loop t shard =
  let sampling_gc = t.telemetry || Option.is_some t.tracing in
  let split = split_chunk t in
  let rec loop () =
    match Work_queue.pop t.queue ~shard:shard.id ~split with
    | None -> ()
    | Some (c, stolen_from) ->
      let t_deq = Obs.now_mono () in
      let epoch = Atomic.get t.epoch in
      if epoch <> shard.hot.epoch_seen then begin
        (* Feedback refined the synopsis since this shard last served:
           every cached outcome may be stale. *)
        Lru_cache.clear shard.cache;
        shard.hot.epoch_seen <- epoch
      end;
      (match stolen_from with
       | Some _victim ->
         shard.hot.steals <- shard.hot.steals + 1;
         (match (t.tracing, shard.tbuf) with
          | Some tg, Some tb ->
            Obs.Trace.instant tb ~name:tg.names.n_steal
              ~ts:(Obs.Trace.rel tg.tr t_deq)
          | _ -> ())
       | None ->
         if c.c_affinity && c.c_shard = shard.id then
           shard.hot.affinity_hits <- shard.hot.affinity_hits + 1);
      if t.telemetry then
        Obs.hobserve shard.queue_wait_us (1e6 *. (t_deq -. c.c_enqueued_at));
      (match (t.tracing, shard.tbuf) with
       | Some tg, Some tb when c.c_span ->
         (* Close the queue-wait async span the submitter opened for this
            chunk; async spans may overlap, which B/E slices on this track
            could not. Split offspring carry no span. *)
         Obs.Trace.async_end tb ~name:tg.names.n_queue_wait
           ~ts:(Obs.Trace.rel tg.tr t_deq) ~id:(c.c_seq_base + c.c_base)
       | _ -> ());
      serve_chunk c t_deq
  and serve_chunk c t_deq =
    shard.hot.current <- Some c;
    let gc0 = if sampling_gc then Some (Gc.quick_stat ()) else None in
    while c.c_cursor < c.c_hi do
      let slot = c.c_cursor in
      let seq = c.c_seq_base + slot in
      let query = c.c_queries.(slot) in
      let t_slot = Obs.now_mono () in
      c.c_deq.(slot) <- t_slot;
      let result =
        if is_quarantined t query then
          (* Refused before any execution: a query that has already
             crashed two workers never runs again. *)
          Error (quarantined_error ())
        else if past_deadline t ~enqueued_at:c.c_enqueued_at ~now:t_slot
        then begin
          (* First deadline checkpoint, per slot: the budget runs from the
             chunk's enqueue, so a deadline can expire mid-chunk — earlier
             slots answered, later ones refused. *)
          Atomic.incr t.shared.Shard.timeouts;
          Shard.refuse ~seq shard.core ~query ~hash:0
            ~cache:Flight_recorder.Timed_out;
          Error (Shard.timeout_error ())
        end
        else begin
          (* The chaos hook sits outside the per-query guard below on
             purpose: returning true kills the worker body the way a real
             bug outside the guard would, exercising the supervisor. *)
          (match t.chaos with
           | Some kill when kill query -> failwith "chaos: worker killed"
           | Some _ | None -> ());
          try
            match Shard.parse query with
            | Error e -> Error e
            | Ok ast ->
              Shard.reply
                (Shard.estimate ~seq ~enqueued_at:c.c_enqueued_at
                   shard.core ast)
          with exn ->
            Error
              (match Core.Error.of_exn exn with
               | Some e -> e
               | None ->
                 Core.Error.make Core.Error.Internal (Printexc.to_string exn))
        end
      in
      (* Lock-free reply write, straight into the submission-order slot;
         the batch mutex inside [complete_chunk] publishes it. *)
      c.c_results.(slot) <- Some result;
      c.c_fin.(slot) <- Obs.now_mono ();
      c.c_cursor <- slot + 1
    done;
    let t_fin = Obs.now_mono () in
    shard.hot.busy_s <- shard.hot.busy_s +. (t_fin -. t_deq);
    shard.hot.last_served_at <- t_fin;
    (match gc0 with
     | None -> ()
     | Some gc0 ->
       let gc1 = Gc.quick_stat () in
       Obs.add shard.gc_minor_words
         (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
       Obs.add shard.gc_major_words
         (int_of_float
            (gc1.Gc.major_words +. gc1.Gc.promoted_words
            -. (gc0.Gc.major_words +. gc0.Gc.promoted_words)));
       Obs.add shard.gc_minor_collections
         (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
       Obs.add shard.gc_major_collections
         (gc1.Gc.major_collections - gc0.Gc.major_collections);
       match (t.tracing, shard.tbuf) with
       | Some tg, Some tb ->
         let ts = Obs.Trace.rel tg.tr t_fin in
         Obs.Trace.counter tb ~name:tg.names.n_gc_minor_words ~ts
           ~value:gc1.Gc.minor_words;
         Obs.Trace.counter tb ~name:tg.names.n_gc_major_words ~ts
           ~value:(gc1.Gc.major_words +. gc1.Gc.promoted_words)
       | _ -> ());
    (match (t.tracing, shard.tbuf) with
     | Some tg, Some tb ->
       let ts = Obs.Trace.rel tg.tr t_deq in
       let dur = t_fin -. t_deq in
       Obs.Trace.complete_seq tb ~name:tg.names.n_execute ~ts ~dur
         ~seq:(c.c_seq_base + c.c_base);
       (* The flow arrow touches down mid-slice so Perfetto anchors it
          inside the execute slice rather than on its edge. *)
       if c.c_span then
         Obs.Trace.flow_step tb ~name:tg.names.n_query
           ~ts:(ts +. (dur /. 2.0)) ~id:(c.c_seq_base + c.c_base)
     | _ -> ());
    complete_chunk t c;
    shard.hot.current <- None;
    loop ()
  in
  loop ()

(* Worker supervision: an exception escaping the loop body is a dead
   worker. Restart it in place — same domain, same shard — after answering
   the unserved slots of whatever chunk it was holding ([ERR internal],
   via the idempotent completion) and noting the crash against the slot
   that was executing, for quarantine. Restarting on the same domain keeps
   shard identity (caches, rings, registries) stable and costs nothing;
   what matters for liveness is that the loop re-enters [Work_queue.pop],
   not that a fresh domain spawns. *)
let rec supervise t shard =
  match worker_loop t shard with
  | () -> ()  (* queue closed: clean shutdown *)
  | exception exn ->
    Atomic.incr t.worker_restarts;
    (match shard.hot.current with
     | Some c ->
       if c.c_cursor < c.c_hi then note_crash t c.c_queries.(c.c_cursor);
       let err =
         Core.Error.make Core.Error.Internal
           (Printf.sprintf
              "worker %d died serving this query: %s (worker restarted)"
              shard.id (Printexc.to_string exn))
       in
       let now = Obs.now_mono () in
       for slot = c.c_cursor to c.c_hi - 1 do
         if c.c_results.(slot) = None then begin
           c.c_results.(slot) <- Some (Error err);
           if c.c_deq.(slot) = 0.0 then c.c_deq.(slot) <- now;
           c.c_fin.(slot) <- now
         end
       done;
       c.c_cursor <- c.c_hi;
       complete_chunk t c
     | None -> ());
    shard.hot.current <- None;
    supervise t shard

let create ?(workers = 2) ?(qerror_threshold = 2.0) ?(cache_capacity = 1024)
    ?(telemetry = true) ?(recorder_capacity = 256) ?(drift_slots = 6)
    ?(drift_per_slot = 64) ?(drift_p90_threshold = 8.0) ?(queue_capacity = 256)
    ?(chunk_target = 8) ?(steal = true) ?trace ?deadline_s
    ?(shed_policy = `Block) ?chaos ?auditor estimator =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Pool.create: workers %d < 1" workers);
  if chunk_target < 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: chunk_target %d < 1" chunk_target);
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
          coord_lock = Mutex.create ();
          names =
            { n_execute = Obs.Trace.intern tr "execute";
              n_queue_wait = Obs.Trace.intern tr "queue_wait";
              n_batch_submit = Obs.Trace.intern tr "batch_submit";
              n_batch_gather = Obs.Trace.intern tr "batch_gather";
              n_chunk_dispatch = Obs.Trace.intern tr "chunk_dispatch";
              n_steal = Obs.Trace.intern tr "steal";
              n_feedback = Obs.Trace.intern tr "feedback";
              n_explain = Obs.Trace.intern tr "explain";
              n_query = Obs.Trace.intern tr "query";
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
          hot =
            { epoch_seen = 0;
              busy_s = 0.0;
              last_served_at = 0.0;
              steals = 0;
              affinity_hits = 0;
              current = None;
              pad0 = 0;
              pad1 = 0;
              pad2 = 0;
              pad3 = 0;
              pad4 = 0;
              pad5 = 0;
              pad6 = 0;
              pad7 = 0;
              pad8 = 0;
              pad9 = 0 };
          queue_wait_us = Obs.histogram obs "engine.pool.queue_wait_us";
          gc_minor_words = Obs.counter_with obs "engine.gc.minor_words" shard_labels;
          gc_major_words = Obs.counter_with obs "engine.gc.major_words" shard_labels;
          gc_minor_collections =
            Obs.counter_with obs "engine.gc.minor_collections" shard_labels;
          gc_major_collections =
            Obs.counter_with obs "engine.gc.major_collections" shard_labels })
  in
  let coord_obs = Obs.create () in
  let t =
    { shared;
      coord = Shard.create shared ~estimator ~recorder:(recorder ());
      shards;
      queue = Work_queue.create ~steal ~shards:workers ~capacity:queue_capacity ();
      chunk_target;
      domains = [||];
      epoch = Atomic.make 0;
      inflight = Atomic.make 0;
      shed_policy;
      shed_total = Atomic.make 0;
      worker_restarts = Atomic.make 0;
      chaos;
      quarantine_lock = Mutex.create ();
      crash_counts = Hashtbl.create 16;
      quarantined_queries = Hashtbl.create 16;
      quarantine_active = Atomic.make false;
      drain_lock = Mutex.create ();
      drain_cond = Condition.create ();
      submit_lock = Mutex.create ();
      next_seq = 0;
      record_lock = Mutex.create ();
      stopped = false;
      telemetry;
      created_at = Obs.now_mono ();
      coord_obs;
      batch_chunk = Obs.histogram coord_obs "engine.pool.batch_chunk";
      tracing;
      scrape = Scrape_meter.create () }
  in
  (* The EPT and shards are fully built before any domain spawns, so the
     workers' first reads are ordered by the spawn itself. *)
  t.domains <-
    Array.map (fun shard -> Domain.spawn (fun () -> supervise t shard)) shards;
  t

let workers t = Array.length t.shards
let epoch t = Atomic.get t.epoch
let shed_total t = Atomic.get t.shed_total
let timeout_total t = Atomic.get t.shared.Shard.timeouts
let worker_restarts t = Atomic.get t.worker_restarts
let qerror_threshold t = t.shared.Shard.threshold
let feedback_seen t = t.shared.Shard.feedback_seen
let feedback_rounds t = t.shared.Shard.feedback_rounds
let drift t = t.shared.Shard.drift
let chunk_target t = t.chunk_target

(* The sink may be called from any worker domain: serialize it. *)
let set_on_record t f =
  t.shared.Shard.sink <- Some (fun r -> Mutex.protect t.record_lock (fun () -> f r))

let steals_total t = (Work_queue.stats t.queue).Work_queue.steals

let affinity_hits t =
  Array.fold_left (fun acc (s : shard) -> acc + s.hot.affinity_hits) 0 t.shards

(* The affinity hash: a client token (connection counter, tenant id...)
   maps to a stable preferred shard. [Hashtbl.hash] mixes the bits so
   consecutive connection ids still spread across shards. *)
let preferred_shard t ~affinity = Hashtbl.hash affinity mod workers t

let shard_cache_counters t =
  Array.map (fun (s : shard) -> Lru_cache.counters s.cache) t.shards

let closed_error () =
  Core.Error.make Core.Error.Internal "the pool has been shut down"

let with_coord tracing f =
  match tracing with
  | None -> ()
  | Some tg -> Mutex.protect tg.coord_lock (fun () -> f tg)

(* Submit a batch as per-shard chunks and wait for all of it; replies land
   in the preallocated submission-order result array regardless of which
   shard served which slot. Returns the raw results, the per-slot
   enqueue/dequeue/finish stamp arrays (for PROFILE; refused slots keep
   zero stamps) and the monotonic instant reassembly finished.

   When tracing, the coordinator track shows a [batch_submit] slice with,
   per chunk, a [chunk_dispatch] instant, a flow start and a queue-wait
   async-begin, and a [batch_gather] slice where every chunk's flow arrow
   lands. *)
let run_batch ?affinity t queries =
  let queries = Array.of_list queries in
  let n = Array.length queries in
  if n = 0 then ([||], [||], [||], [||], Obs.now_mono ())
  else begin
    let results = Array.make n None in
    let enq = Array.make n 0.0 in
    let deq = Array.make n 0.0 in
    let fin = Array.make n 0.0 in
    let parent =
      { remaining = n;
        batch_lock = Mutex.create ();
        batch_done = Condition.create () }
    in
    let flows = ref [] in  (* admitted chunk flow ids, ended at gather *)
    let t_sub0 = Obs.now_mono () in
    Mutex.protect t.submit_lock (fun () ->
        if t.telemetry then Obs.hobserve t.batch_chunk (float_of_int n);
        let seq_base = t.next_seq in
        t.next_seq <- seq_base + n;
        if t.stopped then begin
          for slot = 0 to n - 1 do
            results.(slot) <- Some (Error (closed_error ()))
          done;
          Mutex.protect parent.batch_lock (fun () -> parent.remaining <- 0)
        end
        else begin
          let preferred =
            Option.map (fun a -> preferred_shard t ~affinity:a) affinity
          in
          let plan =
            plan_chunks ~n ~workers:(workers t)
              ~chunk_target:t.chunk_target ?preferred ()
          in
          Array.iter
            (fun (lo, hi, shard_id) ->
              let c_enq = Obs.now_mono () in
              for slot = lo to hi - 1 do
                enq.(slot) <- c_enq
              done;
              let c =
                { c_queries = queries;
                  c_results = results;
                  c_deq = deq;
                  c_fin = fin;
                  c_seq_base = seq_base;
                  c_parent = parent;
                  c_enqueued_at = c_enq;
                  c_shard = shard_id;
                  c_affinity = Option.is_some preferred;
                  c_span = Option.is_some t.tracing;
                  c_base = lo;
                  c_hi = hi;
                  c_cursor = lo;
                  c_done = false }
              in
              Atomic.incr t.inflight;
              let id = seq_base + lo in
              with_coord t.tracing (fun tg ->
                  let ts = Obs.Trace.rel tg.tr c_enq in
                  Obs.Trace.instant tg.coord ~name:tg.names.n_chunk_dispatch
                    ~ts;
                  Obs.Trace.flow_start tg.coord ~name:tg.names.n_query ~ts
                    ~id;
                  Obs.Trace.async_begin tg.coord ~name:tg.names.n_queue_wait
                    ~ts ~id);
              let admitted =
                match t.shed_policy with
                | `Block ->
                  if Work_queue.push t.queue ~shard:shard_id c then `Ok
                  else `Closed
                | `Shed_newest -> Work_queue.try_push t.queue ~shard:shard_id c
              in
              match admitted with
              | `Ok -> flows := id :: !flows
              | (`Closed | `Full) as refusal ->
                ignore (Atomic.fetch_and_add t.inflight (-1) : int);
                for slot = lo to hi - 1 do
                  let error =
                    match refusal with
                    | `Closed -> closed_error ()
                    | `Full ->
                      (* Bounded admission under shed-newest: the deque is
                         full, so this newest chunk is the one dropped —
                         every slot it carries. The records land on the
                         coordinator's ring: we hold [submit_lock]. *)
                      Atomic.incr t.shed_total;
                      Shard.refuse ~seq:(seq_base + slot) t.coord
                        ~query:queries.(slot) ~hash:0
                        ~cache:Flight_recorder.Shed;
                      overloaded_error
                        ~capacity:(Work_queue.capacity t.queue) ()
                  in
                  results.(slot) <- Some (Error error)
                done;
                (* Nobody will ever dequeue it: close its queue-wait span
                   and terminate its flow so the trace still lints. *)
                with_coord t.tracing (fun tg ->
                    let ts = Obs.Trace.now tg.tr in
                    Obs.Trace.async_end tg.coord ~name:tg.names.n_queue_wait
                      ~ts ~id;
                    Obs.Trace.flow_end tg.coord ~name:tg.names.n_query ~ts
                      ~id);
                Mutex.protect parent.batch_lock (fun () ->
                    c.c_done <- true;
                    parent.remaining <- parent.remaining - (hi - lo)))
            plan
        end;
        with_coord t.tracing (fun tg ->
            Obs.Trace.complete tg.coord ~name:tg.names.n_batch_submit
              ~ts:(Obs.Trace.rel tg.tr t_sub0)
              ~dur:(Obs.now_mono () -. t_sub0)));
    Mutex.protect parent.batch_lock (fun () ->
        while parent.remaining > 0 do
          Condition.wait parent.batch_done parent.batch_lock
        done);
    let t_gather0 = Obs.now_mono () in
    let out =
      Array.map
        (function
          | Some r -> r
          | None -> Error (closed_error ()))
        results
    in
    let t_done = Obs.now_mono () in
    with_coord t.tracing (fun tg ->
        let ts0 = Obs.Trace.rel tg.tr t_gather0 in
        let dur = Float.max 1e-9 (t_done -. t_gather0) in
        List.iter
          (fun id ->
            Obs.Trace.flow_end tg.coord ~name:tg.names.n_query
              ~ts:(ts0 +. (dur /. 2.0)) ~id)
          !flows;
        Obs.Trace.complete tg.coord ~name:tg.names.n_batch_gather ~ts:ts0
          ~dur);
    (out, enq, deq, fin, t_done)
  end

let estimate_batch ?affinity t queries =
  let results, _, _, _, _ = run_batch ?affinity t queries in
  Array.to_list results

let estimate ?affinity t query =
  match estimate_batch ?affinity t [ query ] with
  | [ r ] -> r
  | _ -> Error (closed_error ())

(* The PROFILE verb: run the queries as one batch and compute exact
   per-stage percentiles from the per-slot stamps. Stages partition each
   query's life: queue-wait (submit to execution start — for a slot deep
   in a chunk that includes its predecessors' execute time), execute
   (start to result), reassemble (result to batch completion — the stall
   until the whole batch can be answered). Refused or unserved slots
   carry zero stamps and are skipped. [steals] is the pool-wide steal
   delta across the batch (exact when the pool is otherwise quiet). *)
let profile ?affinity t queries =
  let s0 = steals_total t in
  let out, enq, deq, fin, t_done = run_batch ?affinity t queries in
  let s1 = steals_total t in
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
          (stage (fun i -> 1e6 *. Float.max 0.0 (deq.(i) -. enq.(i))));
      execute_us =
        Serve.percentiles
          (stage (fun i -> 1e6 *. Float.max 0.0 (fin.(i) -. deq.(i))));
      reassemble_us =
        Serve.percentiles
          (stage (fun i -> 1e6 *. Float.max 0.0 (t_done -. fin.(i))));
      timed_out = count Core.Error.Timeout;
      shed = count Core.Error.Overloaded;
      steals = max 0 (s1 - s0);
      tenant = None }

(* Wait until no chunk is being served or queued. Callers hold
   [submit_lock], so no new submission can race the drain. *)
let wait_drained t =
  Mutex.protect t.drain_lock (fun () ->
      while Atomic.get t.inflight > 0 do
        Condition.wait t.drain_cond t.drain_lock
      done)

let next_seq_locked t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Rebuild eagerly while drained, unless the refinement left the EPT
   current; workers drop their caches when they observe the new epoch at
   their next dequeue. *)
let refresh t () =
  Shard.refresh_ept ~eager:true t.shared;
  Atomic.incr t.epoch

let shared_ept t = Shard.built_ept t.shared

(* Run a single-writer verb: stop submissions, drain the workers, and only
   then touch the shared HET/EPT, the drift window or the coordinator ring.
   [verb] names the coordinator-track slice that frames the work. *)
let drained ?verb t f =
  Mutex.protect t.submit_lock (fun () ->
      if t.stopped then Error (closed_error ())
      else begin
        let t0 = Obs.now_mono () in
        Fun.protect
          ~finally:(fun () ->
            Option.iter
              (fun name ->
                with_coord t.tracing (fun tg ->
                    Obs.Trace.complete tg.coord ~name:(name tg.names)
                      ~ts:(Obs.Trace.rel tg.tr t0)
                      ~dur:(Obs.now_mono () -. t0)))
              verb)
        @@ fun () ->
        wait_drained t;
        f ()
      end)

(* Completed shadow audits fold into the coordinator's telemetry only in
   the drained state, so [Drift.observe] cannot race a worker's
   [note_shard] and audit feedback follows the client-feedback epoch
   protocol. *)
let drain_audits_locked t =
  Shard.drain_audits
    ~next_seq:(fun () -> next_seq_locked t)
    ~refresh:(refresh t) t.coord

(* The judged estimate is recomputed on the coordinator shard without a
   cache (a [Bypass] record), matching the single engine's arithmetic. *)
let feedback t query ~actual =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast ->
    drained ~verb:(fun n -> n.n_feedback) t (fun () ->
        drain_audits_locked t;
        Result.map snd
          (Shard.feedback ~seq:(next_seq_locked t)
             ~enqueued_at:(Obs.now_mono ()) ~refresh:(refresh t)
             t.coord ast ~actual))

let explain t query =
  match Shard.parse query with
  | Error e -> Error e
  | Ok ast ->
    drained ~verb:(fun n -> n.n_explain) t (fun () ->
        Shard.explain ~seq:(next_seq_locked t)
          ~cached:(fun key ->
            Array.exists (fun (s : shard) -> Lru_cache.mem s.cache key) t.shards)
          t.coord ast)

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
        let q = Work_queue.stats t.queue in
        Obj
          [ ("workers", Int (workers t));
            ("epoch", Int (epoch t));
            ("chunk_target", Int t.chunk_target);
            ("queue_depth", Int (Work_queue.length t.queue));
            ("queue_pushes", Int q.Work_queue.pushes);
            ("queue_pops", Int q.Work_queue.pops);
            ("queue_steals", Int q.Work_queue.steals);
            ("queue_push_waits", Int q.Work_queue.push_waits);
            ("queue_pop_waits", Int q.Work_queue.pop_waits);
            ("queue_push_wait_s", Float q.Work_queue.push_wait_s);
            ("queue_pop_wait_s", Float q.Work_queue.pop_wait_s);
            ("queue_max_occupancy", Int q.Work_queue.max_occupancy);
            ("affinity_hits", Int (affinity_hits t));
            ("shed_total", Int (shed_total t));
            ("timeout_total", Int (timeout_total t));
            ("worker_restarts", Int (worker_restarts t));
            ("quarantined", Int (quarantined_count t)) ] ) ])

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
  Obs.set_to ~obs "engine.pool.queue_depth"
    (float_of_int (Work_queue.length t.queue));
  let q = Work_queue.stats t.queue in
  Obs.add_to ~obs "engine.pool.queue.pushes" q.Work_queue.pushes;
  Obs.add_to ~obs "engine.pool.queue.pops" q.Work_queue.pops;
  Obs.add_to ~obs "engine.pool.queue.push_waits" q.Work_queue.push_waits;
  Obs.add_to ~obs "engine.pool.queue.pop_waits" q.Work_queue.pop_waits;
  Obs.set_to ~obs "engine.pool.queue.push_wait_s" q.Work_queue.push_wait_s;
  Obs.set_to ~obs "engine.pool.queue.pop_wait_s" q.Work_queue.pop_wait_s;
  Obs.max_to ~obs "engine.pool.queue.max_occupancy" q.Work_queue.max_occupancy;
  Obs.add_to ~obs "engine.pool.steals_total" q.Work_queue.steals;
  Obs.add_to ~obs "engine.pool.affinity_hits" (affinity_hits t);
  Obs.add_to ~obs "engine.pool.shed_total" (shed_total t);
  Obs.add_to ~obs "engine.pool.timeout_total" (timeout_total t);
  Obs.add_to ~obs "engine.pool.worker_restarts" (worker_restarts t);
  Obs.set_to ~obs "engine.pool.quarantined" (float_of_int (quarantined_count t));
  (* Busy fraction per shard: serving time over the shard's active window
     (create to last completed chunk), so a quiet re-scrape stays
     byte-identical — a live-uptime denominator would tick on its own.
     [busy_s]/[last_served_at] are written by the shard's own domain
     without synchronization; a scrape may read a slightly stale pair,
     which is fine for a utilization gauge. *)
  Array.iter
    (fun (s : shard) ->
      let fraction =
        if s.hot.last_served_at <= t.created_at then 0.0
        else
          Float.min 1.0 (s.hot.busy_s /. (s.hot.last_served_at -. t.created_at))
      in
      Obs.gset
        (Obs.gauge_with obs "engine.pool.busy_fraction"
           [ ("shard", string_of_int s.id) ])
        fraction)
    t.shards;
  let text =
    Obs.prometheus ~prefix:"xseed_"
      (Obs.merged
         (obs :: t.coord_obs
         :: Array.to_list (Array.map (fun (s : shard) -> s.obs) t.shards)))
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

let server ?affinity t =
  { Serve.estimate = (fun q -> estimate ?affinity t q);
    estimate_batch = (fun qs -> estimate_batch ?affinity t qs);
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
    profile = (fun qs -> profile ?affinity t qs);
    audit =
      (fun () ->
        match t.shared.Shard.auditor with
        | None -> Error (Shard.audit_disabled ())
        | Some a ->
          (* Settle outside the submission lock so clients keep being
             served while the audit domain catches up; then fold the
             results in under the drained single-writer state. *)
          ignore (Auditor.settle ~timeout_s:5.0 a : bool);
          drained t (fun () ->
              drain_audits_locked t;
              Ok (Auditor.status_json a))) }

(* Drop every shard cache by bumping the epoch (applied at each shard's
   next dequeue), without touching the synopsis. Used by benchmarks to
   force cold-cache passes. *)
let invalidate t =
  Mutex.protect t.submit_lock (fun () ->
      wait_drained t;
      Atomic.incr t.epoch)

let shutdown t =
  let join =
    Mutex.protect t.submit_lock (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          Work_queue.close t.queue;
          true
        end)
  in
  if join then Array.iter Domain.join t.domains
