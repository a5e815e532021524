(* The serving pool: requests answered on the caller's shard, epoch-based
   invalidation, deterministic failure-model tests, and a multi-domain
   stress run.

   The failure tests park a shard deterministically, without sleeps: a
   chaos gate blocks the request holding it inside a designated query, so
   a second caller finds no shard free. [STRESS_OPS] scales the per-client
   op count (default 800 for `dune runtest`; `make stress` runs 10_000). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Drift shard accounting (regression: per-shard records must sum into the
   DRIFT summary, and rotation must clear every shard's landing slot in
   lockstep with the owner's window). *)

let test_drift_shards_sum () =
  let d = Engine.Drift.create ~slots:3 ~per_slot:2 () in
  let s1 = Engine.Drift.register_shard d in
  let s2 = Engine.Drift.register_shard d in
  Engine.Drift.note_estimate d ~cache_hit:false;
  for _ = 1 to 5 do Engine.Drift.note_shard s1 ~cache_hit:true done;
  for _ = 1 to 3 do Engine.Drift.note_shard s2 ~cache_hit:false done;
  checki "shard volumes" 5 (Engine.Drift.shard_estimates s1);
  checki "window = own + shards" (1 + 5 + 3) (Engine.Drift.window_estimates d);
  checki "hits = shard hits" 5 (Engine.Drift.window_hits d);
  (* 2 observations fill a slot; 6 roll the 3-slot window over entirely,
     expiring the volumes above with the slots they were counted in. *)
  for _ = 1 to 6 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:1 : float)
  done;
  for _ = 1 to 2 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:1 : float)
  done;
  checki "old shard volumes expired with their slots" 0
    (Engine.Drift.shard_estimates s1 + Engine.Drift.shard_estimates s2);
  Engine.Drift.note_shard s1 ~cache_hit:false;
  checki "fresh shard counts land in the live window" 1
    (Engine.Drift.shard_estimates s1);
  match Engine.Drift.to_json d with
  | Obs.Json.Obj fields ->
    checkb "summary volume covers shards" true
      (List.assoc "window_estimates" fields
      = Obs.Json.Int (Engine.Drift.window_estimates d))
  | _ -> Alcotest.fail "drift summary not an object"

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let build_pool ?(workers = 2) doc =
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  let estimator = Core.Estimator.create ~het kernel in
  (path_tree, Engine.Pool.create ~workers estimator)

let test_pool_lifecycle () =
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Pool.create: workers 0 < 1") (fun () ->
      ignore
        (Engine.Pool.create ~workers:0
           (Core.Estimator.create
              (Core.Builder.of_string Datagen.Paper_example.document))));
  Alcotest.check_raises "queue_capacity >= 1"
    (Invalid_argument "Pool.create: queue_capacity 0 < 1") (fun () ->
      ignore
        (Engine.Pool.create ~workers:1 ~queue_capacity:0
           (Core.Estimator.create
              (Core.Builder.of_string Datagen.Paper_example.document))));
  let _, pool = build_pool ~workers:2 Datagen.Paper_example.document in
  checki "workers" 2 (Engine.Pool.workers pool);
  checki "epoch starts at 0" 0 (Engine.Pool.epoch pool);
  (match Engine.Pool.estimate pool "/site/regions" with
   | Ok r -> checkb "finite" true (Float.is_finite r.Engine.Serve.value)
   | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e));
  (match Engine.Pool.estimate pool "/site[" with
   | Ok _ -> Alcotest.fail "bad query served"
   | Error e ->
     checkb "typed parse error" true
       (Core.Error.kind e = Core.Error.Malformed_query));
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool;  (* idempotent *)
  (match Engine.Pool.estimate pool "/site" with
   | Ok _ -> Alcotest.fail "served after shutdown"
   | Error e ->
     checkb "shutdown error" true (Core.Error.kind e = Core.Error.Internal))

let test_pool_invalidate_bumps_epoch () =
  let _, pool = build_pool Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let e0 = Engine.Pool.epoch pool in
  Engine.Pool.invalidate pool;
  checki "invalidate bumps" (e0 + 1) (Engine.Pool.epoch pool);
  (* Estimates still work after invalidation (caches repopulate). *)
  match Engine.Pool.estimate pool "/site/regions" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-invalidate: %s" (Core.Error.to_string e)

let expect_singles pool queries =
  List.map
    (fun q ->
      match Engine.Pool.estimate pool q with
      | Ok r -> r.Engine.Serve.value
      | Error e -> Alcotest.failf "single %s: %s" q (Core.Error.to_string e))
    queries

let check_replies ~expected replies =
  List.iteri
    (fun i reply ->
      match reply with
      | Ok r ->
        Alcotest.(check int64)
          (Printf.sprintf "slot %d" i)
          (bits (List.nth expected i))
          (bits r.Engine.Serve.value)
      | Error e -> Alcotest.failf "slot %d: %s" i (Core.Error.to_string e))
    replies

let test_pool_batch_order () =
  let path_tree, pool = build_pool Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    List.map Xpath.Ast.to_string (Datagen.Workload.all_simple_paths path_tree)
  in
  (* Sequential singles establish the expected values... *)
  let expected = expect_singles pool queries in
  (* ...then one batch (larger than the worker count, including repeats)
     must return them in submission order. *)
  let batch = Engine.Pool.estimate_batch pool (queries @ queries) in
  checki "batch size" (2 * List.length queries) (List.length batch);
  check_replies ~expected:(expected @ expected) batch

(* Random batch shapes against sequential singles: submission order and
   bit-identity hold for every n (0, 1, n < workers, n >> workers).
   Fixed seed, one pool. *)
let test_pool_batch_random_shapes () =
  let path_tree, pool =
    build_pool ~workers:3 Datagen.Paper_example.document
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (Datagen.Workload.all_simple_paths path_tree))
  in
  let expected =
    Array.map
      (fun q ->
        match Engine.Pool.estimate pool q with
        | Ok r -> r.Engine.Serve.value
        | Error e -> Alcotest.failf "single %s: %s" q (Core.Error.to_string e))
      queries
  in
  let rng = Datagen.Rng.create ~seed:42 in
  for round = 1 to 50 do
    (* Cover the edges deterministically, then random widths. *)
    let n =
      match round with
      | 1 -> 0
      | 2 -> 1
      | 3 -> 2 (* n < workers *)
      | _ -> Datagen.Rng.int rng 40
    in
    let idx =
      List.init n (fun _ -> Datagen.Rng.int rng (Array.length queries))
    in
    let batch =
      Engine.Pool.estimate_batch pool (List.map (fun i -> queries.(i)) idx)
    in
    checki (Printf.sprintf "round %d size" round) n (List.length batch);
    List.iteri
      (fun slot reply ->
        let i = List.nth idx slot in
        match reply with
        | Ok r ->
          Alcotest.(check int64)
            (Printf.sprintf "round %d slot %d (%s)" round slot queries.(i))
            (bits expected.(i))
            (bits r.Engine.Serve.value)
        | Error e ->
          Alcotest.failf "round %d slot %d: %s" round slot
            (Core.Error.to_string e))
      batch
  done

(* ------------------------------------------------------------------ *)
(* PROFILE: per-stage percentiles over one measured batch, and the
   protocol spelling of the same. *)

let serve_handle server ?(payload = []) line =
  let remaining = ref payload in
  let read_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      Some l
  in
  match Engine.Serve.handle_request server ~read_line line with
  | Some r -> r
  | None -> Alcotest.failf "no response to %S" line

let test_pool_profile () =
  let _, pool = build_pool ~workers:4 Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    List.init 12 (fun i -> if i mod 2 = 0 then "/site/regions" else "/site")
  in
  (match Engine.Pool.profile pool queries with
   | Error e -> Alcotest.failf "profile: %s" (Core.Error.to_string e)
   | Ok p ->
     checki "every query measured" 12 p.Engine.Serve.profiled;
     let ordered (s : Engine.Serve.stage_percentiles) =
       0.0 <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99
     in
     checkb "queue-wait percentiles ordered" true
       (ordered p.Engine.Serve.queue_wait_us);
     checkb "execute percentiles ordered" true
       (ordered p.Engine.Serve.execute_us);
     checkb "reassemble percentiles ordered" true
       (ordered p.Engine.Serve.reassemble_us);
     checkb "execute time is measured" true
       (p.Engine.Serve.execute_us.Engine.Serve.p99 > 0.0);
     checkb "steal delta is non-negative" true (p.Engine.Serve.steals >= 0));
  (* The protocol verb frames like BATCH (count, then payload lines) and
     answers in one line; a bad query is timed, not failed. *)
  let server = Engine.Pool.server pool in
  let r =
    serve_handle server
      ~payload:[ "/site/regions"; "/site"; "/site[" ]
      "PROFILE 3"
  in
  checkb "single-line reply" true (not (String.contains r '\n'));
  checkb "profile reply shape" true
    (String.starts_with ~prefix:"OK 3 queue_wait_us " r);
  match String.split_on_char ' ' r with
  | "OK" :: "3" :: rest ->
    let kvs = List.filter (fun tok -> String.contains tok '=') rest in
    checki "twelve stage fields" 12 (List.length kvs);
    checkb "steal delta reported" true
      (List.exists (String.starts_with ~prefix:"steals=") kvs);
    List.iter
      (fun tok ->
        let i = String.index tok '=' in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match float_of_string_opt v with
        | Some f ->
          checkb (tok ^ " is a finite stage time") true
            (Float.is_finite f && f >= 0.0)
        | None -> Alcotest.failf "unparseable field %S" tok)
      kvs
  | _ -> Alcotest.failf "unexpected PROFILE reply %S" r

(* ------------------------------------------------------------------ *)
(* Causal trace: a traced 4-shard pool exports a lint-clean Perfetto
   trace whose slices land on the right tracks and nest. *)

let trace_events json =
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "trace without traceEvents"

let ev_str field ev =
  match Obs.Json.member field ev with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let ev_int field ev =
  match Obs.Json.member field ev with
  | Some (Obs.Json.Int n) -> Some n
  | Some (Obs.Json.Float f) -> Some (int_of_float f)
  | _ -> None

let count pred evs = List.length (List.filter pred evs)

let test_pool_trace () =
  let path_tree =
    Pathtree.Path_tree.of_string Datagen.Paper_example.document
  in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table
      Datagen.Paper_example.document
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  let estimator = Core.Estimator.create ~het kernel in
  let tr = Obs.Trace.create () in
  let pool = Engine.Pool.create ~workers:4 ~trace:tr estimator in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    List.init 16 (fun i -> if i mod 2 = 0 then "/site/regions" else "/site")
  in
  checki "batch answered" 16
    (List.length (Engine.Pool.estimate_batch pool queries));
  (match Engine.Pool.feedback pool "/site/regions" ~actual:3 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  (match Engine.Pool.explain pool "/site/regions" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "explain: %s" (Core.Error.to_string e));
  let json = Obs.Trace.to_json tr in
  (match Obs.Trace.lint json with
   | [] -> ()
   | problems ->
     Alcotest.failf "pool trace lint: %s" (String.concat "; " problems));
  let evs = trace_events json in
  let named ph name ev =
    ev_str "ph" ev = Some ph && ev_str "name" ev = Some name
  in
  let num field ev =
    match Obs.Json.member field ev with
    | Some (Obs.Json.Int n) -> float_of_int n
    | Some (Obs.Json.Float f) -> f
    | _ -> nan
  in
  (* The batch ran to completion on one shard: one frame slice on a shard
     track, with every query's canonicalize stage nested inside it. *)
  let frame =
    match List.filter (named "X" "frame") evs with
    | [ f ] -> f
    | fs -> Alcotest.failf "%d frame slices, want 1" (List.length fs)
  in
  let tid = ev_int "tid" frame in
  checkb "frame slice lives on a shard track" true
    (match tid with Some t -> t >= 1 && t <= 4 | None -> false);
  let stages = List.filter (named "X" "canonicalize") evs in
  checki "one canonicalize stage per query" 16 (List.length stages);
  let lo = num "ts" frame and hi = num "ts" frame +. num "dur" frame in
  checkb "stages nest inside the frame on its track" true
    (List.for_all
       (fun ev ->
         ev_int "tid" ev = tid
         && num "ts" ev >= lo
         && num "ts" ev +. num "dur" ev <= hi)
       stages);
  checkb "gc counters sampled" true
    (count (fun ev -> ev_str "ph" ev = Some "C") evs > 0);
  checki "single-writer feedback traced" 1 (count (named "X" "feedback") evs);
  checki "single-writer explain traced" 1 (count (named "X" "explain") evs);
  checki "coordinator + 4 shard name rows" 5
    (count
       (fun ev ->
         ev_str "ph" ev = Some "M" && ev_str "name" ev = Some "thread_name")
       evs)

(* ------------------------------------------------------------------ *)
(* Pool telemetry surfaces in the merged exposition and STATS. *)

(* A metrics exposition parses iff every non-comment line is
   "name{labels} value" with a finite value and names are sorted runs
   grouped by series (the deterministic-merge contract). *)
let lint_prometheus text =
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "torn metrics line: %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (* NaN is legal exposition (empty drift window); a torn line is
             not parseable at all. *)
          (match float_of_string_opt v with
           | Some _ -> ()
           | None -> Alcotest.failf "unparseable value in %S" line)
      end)
    lines

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_pool_telemetry_metrics () =
  let _, pool = build_pool ~workers:2 Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  ignore
    (Engine.Pool.estimate_batch pool (List.init 8 (fun _ -> "/site/regions"))
      : (Engine.Serve.estimate_reply, Core.Error.t) result list);
  let text = Engine.Pool.metrics_text pool in
  lint_prometheus text;
  List.iter
    (fun needle -> checkb needle true (contains ~needle text))
    [ "xseed_engine_pool_queue_wait_us_count";
      "xseed_engine_pool_frames{shard=\"0\"}";
      "xseed_engine_gc_minor_words{shard=\"0\"}";
      "xseed_engine_gc_minor_words{shard=\"1\"}";
      "xseed_engine_pool_busy_fraction{shard=\"0\"}";
      "xseed_engine_pool_busy_fraction{shard=\"1\"}" ];
  (* Scrape self-observability: the first scrape latches its own duration,
     and after fresh traffic the next scrape publishes it. Once published,
     a quiet re-scrape re-emits the latched values byte-for-byte (asserted
     wholesale by the stress run's quiet-scrape law). *)
  ignore
    (Engine.Pool.estimate pool "/site/regions"
      : (Engine.Serve.estimate_reply, Core.Error.t) result);
  let text2 = Engine.Pool.metrics_text pool in
  List.iter
    (fun needle -> checkb needle true (contains ~needle text2))
    [ "xseed_scrape_total 1"; "xseed_scrape_duration_seconds" ];
  (* STATS reports per-domain load, and keeps the schema's steal fields. *)
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc_opt "pool" fields with
     | Some (Obs.Json.Obj pf) ->
       List.iter
         (fun k -> checkb ("pool stats has " ^ k) true (List.mem_assoc k pf))
         [ "workers"; "epoch"; "queue_steals"; "affinity_hits"; "shed_total";
           "timeout_total"; "worker_restarts"; "quarantined"; "domains" ];
       checkb "no steals" true (List.assoc "queue_steals" pf = Obs.Json.Int 0);
       (match List.assoc "domains" pf with
        | Obs.Json.List ds ->
          checki "one entry per shard" 2 (List.length ds);
          let frames =
            List.fold_left
              (fun acc d ->
                match Obs.Json.member "frames" d with
                | Some (Obs.Json.Int n) -> acc + n
                | _ -> Alcotest.fail "domain entry without frames")
              0 ds
          in
          (* The 8-query batch is one request on one shard, the single
             estimate another. *)
          checki "requests counted, not slots" 2 frames
        | _ -> Alcotest.fail "domains not a list")
     | _ -> Alcotest.fail "stats without pool object")
  | _ -> Alcotest.fail "stats_json not an object"

(* ------------------------------------------------------------------ *)
(* A chaos gate: the request that reaches "//sleepy" parks inside the hook,
   holding its shard, until the test releases it. *)

type gate = {
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable g_entered : bool;
  mutable g_released : bool;
}

let gate () =
  { g_lock = Mutex.create (); g_cond = Condition.create ();
    g_entered = false; g_released = false }

let gate_hook g = function
  | "//sleepy" ->
    Mutex.lock g.g_lock;
    g.g_entered <- true;
    Condition.broadcast g.g_cond;
    while not g.g_released do Condition.wait g.g_cond g.g_lock done;
    Mutex.unlock g.g_lock;
    false (* then serve normally *)
  | _ -> false

let gate_await_entered g =
  Mutex.lock g.g_lock;
  while not g.g_entered do Condition.wait g.g_cond g.g_lock done;
  Mutex.unlock g.g_lock

let gate_release g =
  Mutex.lock g.g_lock;
  g.g_released <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_lock

let paper_estimator () =
  let doc = Datagen.Paper_example.document in
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  Core.Estimator.create ~het kernel

(* ------------------------------------------------------------------ *)
(* Stress: 4 client domains x STRESS_OPS mixed operations, fixed seed,
   contending for the pool's shards against single-writer feedback. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n > 0 -> n
     | _ -> invalid_arg (name ^ " must be a positive integer"))
  | None -> default

let stress_ops () = env_int "STRESS_OPS" 800
let stress_workers () = env_int "STRESS_WORKERS" 4

let test_pool_stress () =
  let ops = stress_ops () in
  let clients = 4 in
  let doc = Datagen.Xmark.generate ~seed:11 ~items:30 () in
  let path_tree, pool =
    build_pool ~workers:(stress_workers ()) doc
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let server = Engine.Pool.server pool in
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (let rng = Datagen.Rng.create ~seed:5 in
          Datagen.Workload.all_simple_paths path_tree
          @ Datagen.Workload.branching path_tree ~rng ~count:20 ()))
  in
  let failures = Atomic.make 0 in
  let epoch_regressions = Atomic.make 0 in
  let client c =
    let rng = Datagen.Rng.create ~seed:(100 + c) in
    let last_epoch = ref 0 in
    let ok_value (r : Engine.Serve.estimate_reply) =
      Float.is_finite r.Engine.Serve.value && r.Engine.Serve.value >= 0.0
    in
    for _ = 1 to ops do
      (* Epoch reads from client domains must be monotone non-decreasing. *)
      let e = Engine.Pool.epoch pool in
      if e < !last_epoch then Atomic.incr epoch_regressions;
      last_epoch := e;
      match Datagen.Rng.int rng 100 with
      | n when n < 55 ->
        let q = queries.(Datagen.Rng.int rng (Array.length queries)) in
        (match Engine.Pool.estimate pool q with
         | Ok r -> if not (ok_value r) then Atomic.incr failures
         | Error _ -> Atomic.incr failures)
      | n when n < 70 ->
        (* A batch runs start to finish on whichever shard is free. *)
        let width = 2 + Datagen.Rng.int rng 6 in
        let batch =
          List.init width (fun _ ->
              queries.(Datagen.Rng.int rng (Array.length queries)))
        in
        List.iter
          (fun reply ->
            match reply with
            | Ok r -> if not (ok_value r) then Atomic.incr failures
            | Error _ -> Atomic.incr failures)
          (Engine.Pool.estimate_batch pool batch)
      | n when n < 80 ->
        let q = queries.(Datagen.Rng.int rng (Array.length queries)) in
        (match
           Engine.Pool.feedback pool q ~actual:(Datagen.Rng.int rng 50)
         with
         | Ok _ -> ()
         | Error _ -> Atomic.incr failures)
      | n when n < 90 -> ignore (Engine.Pool.stats_json pool : Obs.Json.t)
      | _ -> lint_prometheus (Engine.Pool.metrics_text pool)
    done
  in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> client c)) in
  List.iter Domain.join domains;
  checki "no failed operations" 0 (Atomic.get failures);
  checki "no epoch regressions" 0 (Atomic.get epoch_regressions);
  (* Post-run audits, quiesced. *)
  let merged = Engine.Pool.cache_counters pool in
  let per_shard = Engine.Pool.shard_cache_counters pool in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 per_shard in
  checki "hits sum" merged.Engine.Lru_cache.hits
    (sum (fun c -> c.Engine.Lru_cache.hits));
  checki "misses sum" merged.Engine.Lru_cache.misses
    (sum (fun c -> c.Engine.Lru_cache.misses));
  checki "insertions sum" merged.Engine.Lru_cache.insertions
    (sum (fun c -> c.Engine.Lru_cache.insertions));
  checki "evictions sum" merged.Engine.Lru_cache.evictions
    (sum (fun c -> c.Engine.Lru_cache.evictions));
  checkb "some traffic was served" true
    (merged.Engine.Lru_cache.hits + merged.Engine.Lru_cache.misses > 0);
  (* Quiet pool: two scrapes must be byte-identical (no torn/duplicated
     series, idempotent republication). *)
  let m1 = Engine.Pool.metrics_text pool in
  let m2 = Engine.Pool.metrics_text pool in
  lint_prometheus m1;
  checks "quiet scrapes identical" m1 m2;
  (* Per-shard drift volumes sum into the DRIFT summary. As long as no
     window slot has expired (observations fit in slots x per_slot), the
     summed window volume must equal every estimate the shards served plus
     the feedback path's own notes — records from 4 worker rings and the
     coordinator reconciling exactly. *)
  (match Engine.Pool.drift pool with
   | None -> Alcotest.fail "stress pool has telemetry"
   | Some d ->
     let v =
       match Obs.Json.member "window_estimates" (Engine.Drift.to_json d) with
       | Some (Obs.Json.Int v) -> v
       | _ -> Alcotest.fail "DRIFT summary lacks window_estimates"
     in
     checki "drift summary = window volume" (Engine.Drift.window_estimates d) v;
     if Engine.Pool.feedback_seen pool <= 6 * 64 then
       checki "shard volumes sum to all served traffic"
         (merged.Engine.Lru_cache.hits + merged.Engine.Lru_cache.misses
         + Engine.Pool.feedback_seen pool)
         v);
  (* The protocol front door still answers coherently. *)
  (match server.Engine.Serve.stats_json () with
   | Obs.Json.Obj fields -> checkb "stats has pool" true (List.mem_assoc "pool" fields)
   | _ -> Alcotest.fail "stats_json not an object")

(* ------------------------------------------------------------------ *)
(* Failure handling: deadlines, shedding, supervision, quarantine. *)

(* A negative deadline is already exceeded at dequeue, so every request is
   refused deterministically — no sleeps, no clock races. *)
let test_pool_deadline () =
  let pool =
    Engine.Pool.create ~workers:2 ~deadline_s:(-1.0) (paper_estimator ())
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries = [ "/site/regions"; "/site"; "/site/people" ] in
  List.iter
    (fun reply ->
      match reply with
      | Ok _ -> Alcotest.fail "expired request was served"
      | Error e ->
        checkb "ERR timeout" true (Core.Error.kind e = Core.Error.Timeout);
        checki "timeout exits 75" 75 (Core.Error.exit_code e))
    (Engine.Pool.estimate_batch pool queries);
  checki "timeout_total counts refused slots" 3
    (Engine.Pool.timeout_total pool);
  (* The refusals are visible in PROFILE and in the flight records. *)
  (match Engine.Pool.profile pool queries with
   | Ok p ->
     checki "profile reports timeouts" 3 p.Engine.Serve.timed_out;
     checki "profile reports no sheds" 0 p.Engine.Serve.shed
   | Error e -> Alcotest.failf "profile: %s" (Core.Error.to_string e));
  checkb "timeouts leave flight records" true
    (List.exists
       (fun (r : Engine.Flight_recorder.record) ->
         r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Timed_out)
       (Engine.Pool.recent pool));
  (* Failure counters surface in STATS. *)
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc "pool" fields with
     | Obs.Json.Obj pf ->
       checkb "stats has timeout_total" true
         (List.assoc "timeout_total" pf = Obs.Json.Int 6)
       (* 3 from the batch + 3 from the profile run *)
     | _ -> Alcotest.fail "pool stats not an object")
  | _ -> Alcotest.fail "stats_json not an object"

(* Shed-newest: with the only shard parked in the gate, a 3-slot batch
   finds no shard free; a capacity of 1 admits its first slot to wait and
   sheds exactly the two newest, deterministically. *)
let test_pool_shed_newest () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~queue_capacity:1
      ~shed_policy:`Shed_newest ~chaos:(gate_hook g) (paper_estimator ())
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* Occupy the only worker inside the gate... *)
  let sleeper = Domain.spawn (fun () -> Engine.Pool.estimate pool "//sleepy") in
  gate_await_entered g;
  (* ...then overflow the capacity-1 deque: slot 0 is admitted, slots 1-2
     must be shed (newest first) without blocking. *)
  let batcher =
    Domain.spawn (fun () ->
        Engine.Pool.estimate_batch pool [ "/site"; "/site"; "/site" ])
  in
  while Engine.Pool.shed_total pool < 2 do Domain.cpu_relax () done;
  checki "exactly two sheds" 2 (Engine.Pool.shed_total pool);
  gate_release g;
  (match Domain.join sleeper with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "sleepy: %s" (Core.Error.to_string e));
  (match Domain.join batcher with
   | [ first; second; third ] ->
     (match first with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "admitted slot: %s" (Core.Error.to_string e));
     List.iter
       (fun reply ->
         match reply with
         | Ok _ -> Alcotest.fail "shed slot was served"
         | Error e ->
           checkb "ERR overloaded" true
             (Core.Error.kind e = Core.Error.Overloaded);
           checki "overloaded exits 75" 75 (Core.Error.exit_code e);
           (* The shed diagnostic names the live queue capacity in the
              unified limit= form. *)
           checkb "names limit=1" true
             (let msg = Core.Error.message e in
              let needle = "limit=1" in
              let nl = String.length needle and n = String.length msg in
              let rec scan i =
                i + nl <= n && (String.sub msg i nl = needle || scan (i + 1))
              in
              scan 0))
       [ second; third ]
   | replies -> Alcotest.failf "unexpected batch size %d" (List.length replies));
  checkb "sheds leave flight records" true
    (List.exists
       (fun (r : Engine.Flight_recorder.record) ->
         r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Shed)
       (Engine.Pool.recent pool))

(* ------------------------------------------------------------------ *)
(* The admission queue: an in-process caller that finds no shard free
   waits for one ([Pool.waiters] counts it), at most [queue_capacity]
   waiting slots under shed-newest. Each test parks the only shard in the
   gate, so who waits and who is refused is deterministic; spinning on
   [waiters] is the rendezvous with a caller provably asleep in the
   queue. *)

(* The waits below end promptly on working code; a regression that left a
   caller asleep fails the test after [patience_s] instead of hanging the
   suite. *)
let patience_s = 10.0

let await what ready =
  let t0 = Obs.now_mono () in
  while not (ready ()) do
    if Obs.now_mono () -. t0 > patience_s then
      Alcotest.failf "%s: still waiting after %.0f s" what patience_s;
    Domain.cpu_relax ()
  done

let await_waiters pool n =
  await "caller asleep in the queue" (fun () -> Engine.Pool.waiters pool >= n)

(* Spawn [f] on a domain and join it, failing rather than hanging when it
   has not returned within [patience_s]. *)
let spawn_timed f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  (d, finished)

let join_timed what (d, finished) =
  await what (fun () -> Atomic.get finished);
  Domain.join d

(* A call that must answer without blocking, run under the same bound. *)
let prompt what f = join_timed what (spawn_timed f)

let expect_ok what = function
  | Ok (r : Engine.Serve.estimate_reply) ->
    checkb (what ^ " is finite") true (Float.is_finite r.Engine.Serve.value)
  | Error e -> Alcotest.failf "%s: %s" what (Core.Error.to_string e)

let expect_kind what kind = function
  | Ok _ -> Alcotest.failf "%s was served" what
  | Error e -> checkb what true (Core.Error.kind e = kind)

let pool_frames pool =
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc_opt "pool" fields with
     | Some pf ->
       (match Obs.Json.member "domains" pf with
        | Some (Obs.Json.List ds) ->
          List.fold_left
            (fun acc d ->
              match Obs.Json.member "frames" d with
              | Some (Obs.Json.Int n) -> acc + n
              | _ -> Alcotest.fail "domain entry without frames")
            0 ds
        | _ -> Alcotest.fail "pool stats without domains")
     | None -> Alcotest.fail "stats without pool object")
  | _ -> Alcotest.fail "stats_json not an object"

(* Shutdown drains: the batch in flight when it lands runs to completion,
   the slots after the parked one included; every later request is
   refused ERR internal, and so are the single-writer verbs. *)
let test_queue_close_drains () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~chaos:(gate_hook g) (paper_estimator ())
  in
  (* A failed check must not leave the shard parked behind the close. *)
  Fun.protect ~finally:(fun () -> gate_release g) @@ fun () ->
  let engine = Engine.create (paper_estimator ()) in
  let queries = [ "/site"; "//sleepy"; "//s[t][p]"; "//s/p" ] in
  let in_flight =
    Domain.spawn (fun () -> Engine.Pool.estimate_batch pool queries)
  in
  gate_await_entered g;
  let closer = Domain.spawn (fun () -> Engine.Pool.shutdown pool) in
  (* This caller finds the shard parked and waits for it until the close
     wakes it into the refusal: once it returns, the pool is closed. *)
  let late = spawn_timed (fun () -> Engine.Pool.estimate pool "/site") in
  expect_kind "caller waiting at close is refused" Core.Error.Internal
    (join_timed "caller waiting at close" late);
  gate_release g;
  let replies = Domain.join in_flight in
  checki "every slot answered" (List.length queries) (List.length replies);
  List.iter2
    (fun q reply ->
      match (reply, Engine.estimate engine q) with
      | Ok r, Ok s ->
        Alcotest.(check int64) (q ^ " drained bit-identical")
          (bits s.Engine.outcome.Core.Estimator.value)
          (bits r.Engine.Serve.value)
      | Error e, _ ->
        Alcotest.failf "in-flight %s: %s" q (Core.Error.to_string e)
      | Ok _, Error e -> Alcotest.failf "engine %s: %s" q (Core.Error.to_string e))
    queries replies;
  Domain.join closer;
  expect_kind "estimate after close" Core.Error.Internal
    (Engine.Pool.estimate pool "/site");
  List.iter
    (expect_kind "batch slot after close" Core.Error.Internal)
    (Engine.Pool.estimate_batch pool [ "/site"; "/site/regions" ]);
  (match Engine.Pool.feedback pool "/site" ~actual:1 with
   | Ok _ -> Alcotest.fail "feedback after close was applied"
   | Error e ->
     checkb "feedback after close" true
       (Core.Error.kind e = Core.Error.Internal));
  checki "no refinement after close" 0 (Engine.Pool.epoch pool);
  (* Idempotent. *)
  Engine.Pool.shutdown pool

(* A caller asleep in the queue (block policy) is woken by the close and
   refused at once: it returns while the request holding the shard is
   still parked, rather than being served after the drain. *)
let test_queue_close_vs_blocked_pop () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~chaos:(gate_hook g) (paper_estimator ())
  in
  (* A failed check must not leave the shard parked behind the close. *)
  Fun.protect ~finally:(fun () -> gate_release g) @@ fun () ->
  let in_flight = Domain.spawn (fun () -> Engine.Pool.estimate pool "//sleepy") in
  gate_await_entered g;
  let waiter = spawn_timed (fun () -> Engine.Pool.estimate pool "/site") in
  await_waiters pool 1;
  let closer = Domain.spawn (fun () -> Engine.Pool.shutdown pool) in
  expect_kind "blocked caller refused on close" Core.Error.Internal
    (join_timed "blocked caller" waiter);
  checki "queue empty while the shard is still parked" 0
    (Engine.Pool.waiters pool);
  gate_release g;
  expect_ok "in-flight request" (Domain.join in_flight);
  Domain.join closer;
  checki "the refused caller was never served" 1 (pool_frames pool)

(* Shed-newest: a waiter holding the one admitted slot is refused by the
   close as ERR internal, not shed; the shed count keeps only the probe
   that found the queue full, and after the close admission is not even
   consulted. *)
let test_queue_close_vs_blocked_push () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~queue_capacity:1 ~shed_policy:`Shed_newest
      ~chaos:(gate_hook g) (paper_estimator ())
  in
  (* A failed check must not leave the shard parked behind the close. *)
  Fun.protect ~finally:(fun () -> gate_release g) @@ fun () ->
  let in_flight = Domain.spawn (fun () -> Engine.Pool.estimate pool "//sleepy") in
  gate_await_entered g;
  let waiter = spawn_timed (fun () -> Engine.Pool.estimate pool "/site") in
  await_waiters pool 1;
  expect_kind "full queue sheds the probe" Core.Error.Overloaded
    (prompt "probe of a full queue" (fun () ->
         Engine.Pool.estimate pool "/site/regions"));
  checki "one shed" 1 (Engine.Pool.shed_total pool);
  let closer = Domain.spawn (fun () -> Engine.Pool.shutdown pool) in
  expect_kind "admitted waiter refused on close" Core.Error.Internal
    (join_timed "admitted waiter" waiter);
  expect_kind "after close: refused, not shed" Core.Error.Internal
    (Engine.Pool.estimate pool "/site/regions");
  checki "close refusals are not sheds" 1 (Engine.Pool.shed_total pool);
  gate_release g;
  expect_ok "in-flight request" (Domain.join in_flight);
  Domain.join closer

(* Shed-newest never blocks a caller whose slots find the queue full: it is
   answered ERR overloaded while the shard is still parked. The capacity
   counts waiting slots pool-wide, and comes back once the waiter is
   served. *)
let test_queue_try_push () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~queue_capacity:2 ~shed_policy:`Shed_newest
      ~chaos:(gate_hook g) (paper_estimator ())
  in
  Fun.protect ~finally:(fun () ->
      gate_release g;
      Engine.Pool.shutdown pool)
  @@ fun () ->
  let in_flight = Domain.spawn (fun () -> Engine.Pool.estimate pool "//sleepy") in
  gate_await_entered g;
  (* Three slots, room for two: the newest is shed, two wait. *)
  let waiter =
    Domain.spawn (fun () ->
        Engine.Pool.estimate_batch pool [ "/site"; "/site/regions"; "//s/p" ])
  in
  await_waiters pool 1;
  checki "newest slot shed" 1 (Engine.Pool.shed_total pool);
  expect_kind "single estimate on a full queue" Core.Error.Overloaded
    (prompt "single estimate on a full queue" (fun () ->
         Engine.Pool.estimate pool "/site"));
  List.iter
    (expect_kind "batch slot on a full queue" Core.Error.Overloaded)
    (prompt "batch on a full queue" (fun () ->
         Engine.Pool.estimate_batch pool [ "/site"; "//s[t][p]" ]));
  checki "every refused slot counted" 4 (Engine.Pool.shed_total pool);
  checki "still one waiter" 1 (Engine.Pool.waiters pool);
  gate_release g;
  expect_ok "in-flight request" (Domain.join in_flight);
  (match Domain.join waiter with
   | [ a; b; c ] ->
     expect_ok "admitted slot 0" a;
     expect_ok "admitted slot 1" b;
     expect_kind "shed slot 2" Core.Error.Overloaded c
   | replies -> Alcotest.failf "unexpected batch size %d" (List.length replies));
  (* The queue is empty again: a free shard serves every slot. *)
  List.iter (expect_ok "after the drain")
    (Engine.Pool.estimate_batch pool [ "/site"; "/site/regions"; "//s/p" ]);
  checki "no shed once room is back" 4 (Engine.Pool.shed_total pool)

(* More callers than shards: four domains share two shards, waiting in the
   queue whenever both are taken. Every request is answered, bit-identical
   to a single engine, and counted once. *)
let test_queue_concurrent () =
  let pool = Engine.Pool.create ~workers:2 (paper_estimator ()) in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let engine = Engine.create (paper_estimator ()) in
  let queries =
    [| "/site"; "//s[t][p]"; "//s[p][t]"; "//s/p"; "/a/c/t"; "//t"; "//p" |]
  in
  let expected =
    Array.map
      (fun q ->
        match Engine.estimate engine q with
        | Ok s -> bits s.Engine.outcome.Core.Estimator.value
        | Error e -> Alcotest.failf "engine %s: %s" q (Core.Error.to_string e))
      queries
  in
  let n = 200 and callers = 4 in
  let mismatches = Atomic.make 0 in
  let check i = function
    | Ok r when bits r.Engine.Serve.value = expected.(i) -> ()
    | Ok _ | Error _ -> Atomic.incr mismatches
  in
  let domains =
    List.init callers (fun c ->
        Domain.spawn (fun () ->
            for k = 0 to n - 1 do
              let i = ((c * 7) + k) mod Array.length queries in
              if k mod 4 = 0 then
                let j = (i + 1) mod Array.length queries in
                List.iter2 check [ i; j ]
                  (Engine.Pool.estimate_batch pool [ queries.(i); queries.(j) ])
              else check i (Engine.Pool.estimate pool queries.(i))
            done))
  in
  List.iter Domain.join domains;
  checki "every reply matches the engine" 0 (Atomic.get mismatches);
  checki "every request counted once" (callers * n) (pool_frames pool);
  checki "nobody left waiting" 0 (Engine.Pool.waiters pool)

(* The wait shows in the counters: [waiters] rises while a caller sleeps
   in the queue and falls back after; PROFILE charges the wait for the
   parked shard to queue-wait; the queue-wait histogram counts one
   observation per request. *)
let test_queue_stats () =
  let g = gate () in
  let pool =
    Engine.Pool.create ~workers:1 ~chaos:(gate_hook g) (paper_estimator ())
  in
  Fun.protect ~finally:(fun () ->
      gate_release g;
      Engine.Pool.shutdown pool)
  @@ fun () ->
  checki "fresh: nobody waits" 0 (Engine.Pool.waiters pool);
  let in_flight = Domain.spawn (fun () -> Engine.Pool.estimate pool "//sleepy") in
  gate_await_entered g;
  checki "the parked request does not wait" 0 (Engine.Pool.waiters pool);
  let profiler =
    Domain.spawn (fun () -> Engine.Pool.profile pool [ "/site"; "//s/p" ])
  in
  await_waiters pool 1;
  (* Keep the shard parked a measured 2 ms after the waiter arrived. *)
  let t0 = Obs.now_mono () in
  while Obs.now_mono () -. t0 < 0.002 do Domain.cpu_relax () done;
  gate_release g;
  expect_ok "in-flight request" (Domain.join in_flight);
  (match Domain.join profiler with
   | Ok p ->
     checki "both slots profiled" 2 p.Engine.Serve.profiled;
     checkb "queue-wait covers the wait for the shard" true
       (p.Engine.Serve.queue_wait_us.Engine.Serve.p50 >= 2000.0);
     checki "no steals" 0 p.Engine.Serve.steals
   | Error e -> Alcotest.failf "profile: %s" (Core.Error.to_string e));
  checki "waiter left the queue" 0 (Engine.Pool.waiters pool);
  checkb "one queue-wait observation per request" true
    (contains ~needle:"xseed_engine_pool_queue_wait_us_count 2"
       (Engine.Pool.metrics_text pool))

(* One injected worker death: the in-flight slot answers ERR internal (the
   batch never hangs), the worker restarts in place, and the pool keeps
   serving. A second death of the same query quarantines it. *)
let test_pool_supervision () =
  let kills = Atomic.make 0 in
  let chaos q =
    if q = "//kill" then begin
      Atomic.incr kills;
      true
    end
    else false
  in
  let pool = Engine.Pool.create ~workers:1 ~chaos (paper_estimator ()) in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* First crash: answered, restarted, not yet quarantined. *)
  (match Engine.Pool.estimate pool "//kill" with
   | Ok _ -> Alcotest.fail "killed query was served"
   | Error e ->
     checkb "ERR internal" true (Core.Error.kind e = Core.Error.Internal);
     checkb "diagnostic names the crash" true
       (let msg = Core.Error.message e in
        let has needle =
          let nl = String.length needle and ml = String.length msg in
          let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
          go 0
        in
        has "died" && has "restarted"));
  checki "one restart" 1 (Engine.Pool.worker_restarts pool);
  checki "not yet quarantined" 0 (Engine.Pool.quarantined_count pool);
  (* The restarted worker still serves. *)
  (match Engine.Pool.estimate pool "/site/regions" with
   | Ok r -> checkb "finite" true (Float.is_finite r.Engine.Serve.value)
   | Error e -> Alcotest.failf "post-restart: %s" (Core.Error.to_string e));
  (* Second crash of the same query: quarantined. *)
  (match Engine.Pool.estimate pool "//kill" with
   | Ok _ -> Alcotest.fail "killed query was served"
   | Error e ->
     checkb "second crash is internal" true
       (Core.Error.kind e = Core.Error.Internal));
  checki "two restarts" 2 (Engine.Pool.worker_restarts pool);
  checki "quarantined after two kills" 1 (Engine.Pool.quarantined_count pool);
  (* Third submission is refused at dequeue without executing: the chaos
     hook never fires again. *)
  (match Engine.Pool.estimate pool "//kill" with
   | Ok _ -> Alcotest.fail "quarantined query was served"
   | Error e ->
     checkb "quarantine is internal" true
       (Core.Error.kind e = Core.Error.Internal));
  checki "no third kill" 2 (Atomic.get kills);
  checki "no third restart" 2 (Engine.Pool.worker_restarts pool);
  (* Untouched queries keep working around the quarantine. *)
  match Engine.Pool.estimate pool "/site" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-quarantine: %s" (Core.Error.to_string e)

(* A crash mid-batch: the already-served slots keep their answers, the
   unserved rest of the batch answers ERR internal, and the batch still
   completes in submission order. *)
let test_pool_supervision_mid_batch () =
  let chaos q = q = "//kill" in
  let pool = Engine.Pool.create ~workers:1 ~chaos (paper_estimator ()) in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    [ "/site"; "/site/regions"; "/site/people"; "/site";
      "//kill"; "/site/regions"; "/site"; "/site/people" ]
  in
  let batch = Engine.Pool.estimate_batch pool queries in
  checki "all slots answered" 8 (List.length batch);
  List.iteri
    (fun i reply ->
      match (i, reply) with
      | i, Ok r when i < 4 ->
        checkb (Printf.sprintf "slot %d served before the crash" i) true
          (Float.is_finite r.Engine.Serve.value)
      | i, Ok _ -> Alcotest.failf "slot %d served after the crash" i
      | i, Error e when i < 4 ->
        Alcotest.failf "pre-crash slot %d failed: %s" i
          (Core.Error.to_string e)
      | _, Error e ->
        checkb "post-crash slots answer internal" true
          (Core.Error.kind e = Core.Error.Internal))
    batch;
  checki "one restart" 1 (Engine.Pool.worker_restarts pool);
  (* The pool keeps serving after the recovery. *)
  match Engine.Pool.estimate pool "/site" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-crash estimate: %s" (Core.Error.to_string e)

(* One pipeline, two front ends: a 1-worker pool and an engine over the same
   synopsis, fed the same sequential stream (a miss, a hit, a second
   spelling, a malformed query, an EXPLAIN), leave the same RECENT
   records. The malformed query leaves none on either side, and both
   EXPLAIN records carry the measured canonicalize time. *)
let test_pool_engine_recent_parity () =
  let pool = Engine.Pool.create ~workers:1 (paper_estimator ()) in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let engine = Engine.create (paper_estimator ()) in
  let stream = [ "//s[t][p]"; "//s[t][p]"; "//s[p][t]"; "//s[" ] in
  List.iter
    (fun q ->
      let e = Engine.estimate engine q and p = Engine.Pool.estimate pool q in
      checkb (q ^ " agrees on success") (Result.is_ok e) (Result.is_ok p))
    stream;
  (match (Engine.explain engine "//s[p][t]", Engine.Pool.explain pool "//s[p][t]")
   with
   | Ok _, Ok _ -> ()
   | _ -> Alcotest.fail "explain failed");
  let engine_recent =
    match Engine.recorder engine with
    | Some r -> Engine.Flight_recorder.recent r
    | None -> Alcotest.fail "engine recorder missing"
  in
  let pool_recent = Engine.Pool.recent pool in
  checki "four records each (malformed leaves none)" 4
    (List.length engine_recent);
  checki "pool records" 4 (List.length pool_recent);
  List.iteri
    (fun i ((e : Engine.Flight_recorder.record), (p : Engine.Flight_recorder.record)) ->
      let field name = Printf.sprintf "record %d %s" i name in
      checks (field "query") e.query p.query;
      checki (field "hash") e.hash p.hash;
      checks (field "cache")
        (Engine.Flight_recorder.cache_status_name e.cache)
        (Engine.Flight_recorder.cache_status_name p.cache);
      Alcotest.(check int64) (field "estimate") (bits e.estimate)
        (bits p.estimate);
      checki (field "ept_nodes") e.ept_nodes p.ept_nodes;
      checki (field "frontier_peak") e.frontier_peak p.frontier_peak;
      checki (field "het_hits") e.het_hits p.het_hits;
      checki (field "degenerate_clamps") e.degenerate_clamps
        p.degenerate_clamps)
    (List.combine engine_recent pool_recent);
  List.iter
    (fun (side, (r : Engine.Flight_recorder.record)) ->
      checkb (side ^ " explain record measures canonicalize") true
        (r.canonicalize_s > 0.0);
      checkb (side ^ " explain record counts HET hits") true (r.het_hits > 0))
    [ ("engine", List.hd engine_recent); ("pool", List.hd pool_recent) ]

(* ------------------------------------------------------------------ *)
(* Matcher scratch privacy *)

(* Every matcher scratch has one runner. A pool worker domain and the audit
   domain, whose [Loaded] estimator is the very one the pool serves,
   estimate the same queries while the calling thread estimates them too
   through its own scratch on the pool's estimator and EPT. Every result
   must be bitwise equal to a sequential run with fresh scratches; a
   scratch shared through the estimator would interleave the runs. *)
let test_scratch_privacy () =
  let doc = Datagen.Treebank.generate ~seed:3 ~sentences:300 () in
  let est =
    Core.Synopsis.estimator (Core.Synopsis.build ~card_threshold:2.0 doc)
  in
  let storage = Nok.Storage.of_string ~with_values:true doc in
  let path_tree = Pathtree.Path_tree.of_string doc in
  let rng = Datagen.Rng.create ~seed:17 in
  let asts =
    List.map Engine.Canonical.canonicalize
      (Datagen.Workload.branching path_tree ~rng ~count:20 ~mbp:2 ()
      @ Datagen.Workload.complex path_tree ~rng ~count:20 ~mbp:2 ())
  in
  let queries = List.map Xpath.Ast.to_string asts in
  let ept = Lazy.from_val (Core.Estimator.ept est) in
  let value ?scratch ast =
    match Core.Estimator.estimate_result_on ?scratch est ept ast with
    | Ok o -> o.Core.Estimator.value
    | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
  in
  let expected = List.map (fun ast -> value ast) asts in
  let expected_audit = Hashtbl.create 64 in
  List.iter2
    (fun ast estimate ->
      match
        Engine.Auditor.audit_one ~estimator:est ~ept ~storage ~estimate ast
      with
      | Ok a -> Hashtbl.replace expected_audit a.Engine.Auditor.query a
      | Error msg -> Alcotest.failf "audit: %s" msg)
    asts expected;
  let rounds = 4 in
  let auditor =
    Engine.Auditor.create ~rate:1.0
      ~queue_capacity:((rounds * List.length asts) + 1)
      (Engine.Auditor.Loaded { estimator = est; storage })
  in
  let pool = Engine.Pool.create ~workers:1 ~cache_capacity:1 ~auditor est in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown pool;
      Engine.Auditor.shutdown auditor)
  @@ fun () ->
  let submitter =
    Domain.spawn (fun () ->
        List.init rounds (fun _ -> Engine.Pool.estimate_batch pool queries))
  in
  let scratch = Core.Matcher.scratch () in
  let mine =
    List.init rounds (fun _ -> List.map (fun ast -> value ~scratch ast) asts)
  in
  let served = Domain.join submitter in
  List.iter
    (fun round ->
      List.iter2
        (fun e v -> Alcotest.(check int64) "calling thread" (bits e) (bits v))
        expected round)
    mine;
  List.iter
    (fun round ->
      List.iter2
        (fun e r ->
          match r with
          | Ok { Engine.Serve.value = v; _ } ->
            Alcotest.(check int64) "pool worker" (bits e) (bits v)
          | Error err -> Alcotest.failf "served: %s" (Core.Error.to_string err))
        expected round)
    served;
  checkb "audits settle" true (Engine.Auditor.settle ~timeout_s:30.0 auditor);
  let audited = ref 0 in
  Engine.Auditor.drain auditor (fun (a : Engine.Auditor.audited) ->
      incr audited;
      match Hashtbl.find_opt expected_audit a.query with
      | None -> Alcotest.failf "unexpected audit of %s" a.query
      | Some (e : Engine.Auditor.audited) ->
        checki "audited steps" (List.length e.steps) (List.length a.steps);
        List.iter2
          (fun (es : Engine.Auditor.step_report) (s : Engine.Auditor.step_report) ->
            Alcotest.(check int64) "audit domain" (bits es.estimate)
              (bits s.estimate))
          e.steps a.steps);
  checki "every served query audited" (rounds * List.length asts) !audited

let () =
  Alcotest.run "pool"
    [ ( "drift",
        [ Alcotest.test_case "shard accounting" `Quick test_drift_shards_sum ] );
      ( "work-queue",
        [ Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "concurrent producers" `Quick test_queue_concurrent;
          Alcotest.test_case "contention stats" `Quick test_queue_stats;
          Alcotest.test_case "try_push never blocks" `Quick test_queue_try_push;
          Alcotest.test_case "close vs blocked push" `Quick
            test_queue_close_vs_blocked_push;
          Alcotest.test_case "close vs blocked pop" `Quick
            test_queue_close_vs_blocked_pop ] );
      ( "pool",
        [ Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
          Alcotest.test_case "invalidate bumps epoch" `Quick
            test_pool_invalidate_bumps_epoch;
          Alcotest.test_case "batch order" `Quick test_pool_batch_order;
          Alcotest.test_case "random batch shapes" `Quick
            test_pool_batch_random_shapes;
          Alcotest.test_case "profile stages" `Quick test_pool_profile;
          Alcotest.test_case "causal trace" `Quick test_pool_trace;
          Alcotest.test_case "deadline refusals" `Quick test_pool_deadline;
          Alcotest.test_case "shed-newest overload" `Quick
            test_pool_shed_newest;
          Alcotest.test_case "supervision and quarantine" `Quick
            test_pool_supervision;
          Alcotest.test_case "supervision mid-batch" `Quick
            test_pool_supervision_mid_batch;
          Alcotest.test_case "telemetry metrics" `Quick
            test_pool_telemetry_metrics;
          Alcotest.test_case "engine parity of RECENT" `Quick
            test_pool_engine_recent_parity ] );
      ( "scratch",
        [ Alcotest.test_case "privacy across domains" `Quick
            test_scratch_privacy ] );
      ("stress", [ Alcotest.test_case "4-domain mixed ops" `Slow test_pool_stress ])
    ]
