(* Served-path benchmark: starts [xseed serve --port 0] as a child process
   and drives it over framed TCP from closed-loop [Net.Client]s, checking
   every reply against an in-process oracle. See README.md for the
   workloads and metrics.

   servebench --workload NAME --seed N --seconds S --trace 0|1
   servebench --self-check *)

let journal_fsync = "never"
let setup_reps = 7
let rtt_cap = 1 lsl 20

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Layers.metric list;  (** the final line's metrics *)
  report : Layers.metric list;  (** everything measured, printed by name *)
  info : (string * Obs.Json.t) list;
}

(* Metric names and units, as BENCHMARK.json lists them (the self-check
   compares the two). *)
let end_to_end =
  [ ("qps", "1/s"); ("req_p50_us", "us"); ("setup_s", "s"); ("server_rss_mb", "MB");
    ("server_cpu_ms_per_kq", "ms") ]

let per_layer =
  [ ("xpath.parse_us", "us"); ("xpath.parse_words", "words");
    ("canonical.key_us", "us"); ("canonical.key_words", "words");
    ("cache.hit_us", "us"); ("cache.hit_words", "words");
    ("cache.hit_ratio", "ratio"); ("cache.invalidations", "count");
    ("matcher.us", "us"); ("matcher.words", "words");
    ("matcher.match_steps", "count"); ("matcher.ept_nodes", "count");
    ("ept.build_us", "us"); ("ept.nodes", "count"); ("ept.words", "words");
    ("build.kernel_s", "s"); ("build.het_s", "s"); ("synopsis.bytes", "bytes");
    ("pool.overhead_us", "us"); ("pool.batch_us", "us");
    ("pool.inline_us", "us"); ("pool.queue_wait_us", "us");
    ("pool.execute_us", "us"); ("pool.steals", "count");
    ("pool.affinity_hits", "count"); ("pool.shed", "count");
    ("pool.timeouts", "count"); ("serve.handle_us", "us");
    ("net.overhead_us", "us"); ("feedback.us", "us");
    ("feedback.refine_ratio", "ratio"); ("registry.use_resident_us", "us");
    ("registry.page_in_us", "us"); ("registry.page_ins", "count");
    ("registry.evictions", "count"); ("registry.journal_replayed", "count");
    ("gc.minor_words_per_q", "words"); ("gc.minor_collections_per_kq", "count");
    ("trace.qps_traced", "1/s"); ("trace.qps_untraced", "1/s");
    ("trace.overhead", "ratio") ]

(* Layers a workload's served path does not contain; reported as 0. *)
let not_on_path = function
  | "tenant_feedback" ->
    [ "pool.overhead_us"; "pool.batch_us"; "pool.inline_us"; "pool.queue_wait_us";
      "pool.execute_us"; "pool.steals"; "pool.affinity_hits"; "pool.shed";
      "pool.timeouts" ]
  | _ ->
    [ "feedback.us"; "feedback.refine_ratio"; "registry.use_resident_us";
      "registry.page_in_us"; "registry.page_ins"; "registry.evictions";
      "registry.journal_replayed" ]

(* ---------------------------------------------------------------- *)
(* Files *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let clear_dir d = rm_rf d; mkdir_p d

(* ---------------------------------------------------------------- *)
(* Host record *)

let git_commit () =
  let read f = try Some (String.trim (Child.read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head ->
    (match Scanf.sscanf_opt head "ref: %s" Fun.id with
     | Some r -> Option.value (read (Filename.concat ".git" r)) ~default:head
     | None -> head)

(* Machine-wide CPU time stolen by the hypervisor, as a share of all CPU
   time, from /proc/stat's aggregate line. *)
let cpu_times () =
  let first = List.hd (String.split_on_char '\n' (Child.read_file "/proc/stat")) in
  List.filter_map int_of_string_opt (String.split_on_char ' ' first)

let steal_share before after =
  if List.length before < 8 || List.length before <> List.length after then nan
  else begin
    let d = List.map2 ( - ) after before in
    float_of_int (List.nth d 7) /. float_of_int (max 1 (List.fold_left ( + ) 0 d))
  end

let host () =
  Obs.Json.Obj
    [ ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocamlrunparam",
       Obs.Json.String
         (match Sys.getenv_opt "OCAMLRUNPARAM" with
          | Some v -> v ^ " (not passed to the server)"
          | None -> "unset"));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("commit", Obs.Json.String (git_commit ()));
      ("journal_fsync", Obs.Json.String journal_fsync) ]

(* ---------------------------------------------------------------- *)
(* Server-side counters from STATS *)

let stats admin =
  match Net.Client.request admin "STATS" with
  | Ok r when String.length r > 3 && String.sub r 0 3 = "OK " ->
    Obs.Json.of_string (String.sub r 3 (String.length r - 3))
  | Ok r -> failwith ("STATS: " ^ r)
  | Error e -> failwith ("STATS: " ^ Core.Error.to_string e)

let rec jnum j = function
  | [] ->
    (match j with
     | Obs.Json.Int i -> float_of_int i
     | Obs.Json.Float f -> f
     | _ -> nan)
  | k :: rest ->
    (match Obs.Json.member k j with Some v -> jnum v rest | None -> nan)

(* ---------------------------------------------------------------- *)
(* The in-process oracle for single-synopsis workloads: the reply value an
   [Engine_core] over the same synopsis file renders for each query. *)

let oracle_values (tn : Inputs.tenant) =
  let e = Engine.create (Layers.estimator_of (Layers.load_synopsis tn.syn_file)) in
  let server = Engine.server e in
  Array.map
    (fun (q : Inputs.query) ->
      let line =
        Option.value ~default:""
          (Engine.Serve.handle_request server ~read_line:(fun () -> None)
             ("ESTIMATE " ^ q.spellings.(0)))
      in
      match Load.parse_estimate line with Some (v, _) -> v | None -> line)
    tn.queries

(* Zipf weights 1/rank^0.7: skewed, yet no single query draws more than a
   tenth of the slots, so one query's length does not set a seed's cost. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** 0.7)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf_draw cdf rng =
  let u = Datagen.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let short s = if String.length s > 160 then String.sub s 0 160 ^ "..." else s

let qerrors pairs =
  let s = Sample.create () in
  List.iter (fun (est, truth) -> Sample.add s (Stats.Metrics.q_error est truth)) pairs;
  s

(* ---------------------------------------------------------------- *)
(* Set-up: inputs, synopsis builds, the server command line *)

type env = {
  dir : string;
  xseed : string;
  inputs : Inputs.t;
  server_args : string list;
  journal_dir : string;
  manifest : string;
  memory_budget : int;
}

let build_all env =
  Array.iter
    (fun (tn : Inputs.tenant) ->
      Child.run_to_completion ~log:(Filename.concat env.dir "build.log") env.xseed
        ("build" :: tn.doc_file :: "-o" :: tn.syn_file :: Inputs.build_args tn))
    env.inputs.Inputs.tenants

let prepare ~scale ~xseed ~work ~workload ~seed =
  let dir = Filename.concat work workload in
  clear_dir dir;
  let inputs = Inputs.generate ~scale ~dir ~workload ~seed in
  let tenants = inputs.Inputs.tenants in
  let journal_dir = Filename.concat dir "journal" in
  let manifest = Filename.concat dir "manifest.txt" in
  let env0 =
    { dir; xseed; inputs; server_args = []; journal_dir; manifest; memory_budget = 0 }
  in
  (* An untimed first build warms the file cache and sizes the registry's
     memory budget: Treebank plus the larger small tenant, so nearly every
     tenant switch evicts one tenant and pages one in. *)
  build_all env0;
  match workload with
  | "tenant_feedback" ->
    let size (tn : Inputs.tenant) =
      Core.Synopsis.size_in_bytes (Layers.load_synopsis tn.syn_file)
    in
    let memory_budget =
      match Array.map size tenants with
      | [| d; x; tb |] -> tb + max d x + (min d x / 2)
      | _ -> invalid_arg "tenant_feedback has three tenants"
    in
    Inputs.write_file manifest
      (String.concat ""
         (Array.to_list
            (Array.map
               (fun (tn : Inputs.tenant) ->
                 Printf.sprintf "%s %s\n" tn.name (Filename.basename tn.syn_file))
               tenants)));
    { env0 with
      memory_budget;
      server_args =
        [ "--manifest"; manifest; "--journal-dir"; journal_dir; "--journal-fsync";
          journal_fsync; "--memory-budget"; string_of_int memory_budget ] }
  | _ -> { env0 with server_args = [ tenants.(0).syn_file; "--workers"; "2" ] }

(* A fresh server with empty journals; returns once it has bound its port. *)
let start env =
  clear_dir env.journal_dir;
  Child.start_server ~xseed:env.xseed ~log:(Filename.concat env.dir "server.log")
    env.server_args

let connect port =
  match Net.Client.connect ~port () with
  | Ok c -> c
  | Error e -> failwith ("HELLO: " ^ Core.Error.to_string e)

(* setup_s: from running [xseed build] to the server answering HELLO. *)
let setup_times env =
  let s = Sample.create () in
  for _ = 1 to setup_reps do
    let t0 = Obs.now_mono () in
    build_all env;
    let srv = start env in
    Fun.protect ~finally:(fun () -> Child.stop srv) (fun () ->
        Net.Client.close (connect srv.Child.port);
        Sample.add s (Obs.now_mono () -. t0))
  done;
  s

(* ---------------------------------------------------------------- *)
(* What a workload's measurement reports *)

type measured = {
  e2e : Layers.metric list;  (** timings and server costs *)
  qerr : (float * float) list;  (** (served estimate, NoK truth) *)
  attempted : int;
  failed : int;
  hits : int;
  misses : int;
  qps_traced : float;
  qps_untraced : float;
  layers : Layers.metric list;  (** per-layer split and server-side counts *)
  spans : Spans.t list;
  notes : (string * Obs.Json.t) list;
}

let failures_to_stderr clients =
  List.iter
    (fun c ->
      List.iter (fun m -> prerr_endline ("servebench: failed: " ^ m))
        (List.rev c.Load.failures))
    clients

let median_of f xs =
  let s = Sample.create () in
  List.iter (fun x -> Sample.add s (f x)) xs;
  Sample.median s

(* ---------------------------------------------------------------- *)
(* hot_batch and miss_single: one server for the whole run, two clients,
   metrics as medians over the run's one-second slices *)

let single ~env ~workload ~seed ~seconds ~trace ~spans_main =
  let tn = env.inputs.Inputs.tenants.(0) in
  let nq = Array.length tn.queries in
  let expected = oracle_values tn in
  let served = Array.make nq "" in
  let text q sp = tn.queries.(q).Inputs.spellings.(sp) in
  let batch = workload = "hot_batch" in
  (* a frame is an array of (query, spelling) slots *)
  let frames, warm =
    if batch then begin
      let cdf = zipf_cdf nq in
      let rng = Datagen.Rng.create ~seed:(seed + 1) in
      let frames =
        Array.init 512 (fun _ ->
            Array.init 64 (fun _ -> (zipf_draw cdf rng, Datagen.Rng.int rng 2)))
      in
      let all = Array.init (2 * nq) (fun i -> (i / 2, i mod 2)) in
      (frames, Array.init (Array.length all / 64) (fun i -> Array.sub all (64 * i) 64))
    end
    else (Array.init nq (fun q -> [| (q, 0) |]), [||])
  in
  let payload f =
    if batch then
      String.concat "\n"
        (Printf.sprintf "BATCH %d" (Array.length f)
         :: Array.to_list (Array.map (fun (q, sp) -> text q sp) f))
    else "ESTIMATE " ^ text (fst f.(0)) 0
  in
  let payloads = Array.map payload frames in
  let queries f = Array.to_list (Array.map (fun (q, sp) -> text q sp) f) in
  let nframes = Array.length frames in
  (* The reply a correct server gives with every slot [usual]: most replies
     equal it byte for byte, which spares parsing them. *)
  let usual_status = if batch then "hit" else "miss" in
  let usual =
    Array.map
      (fun f ->
        String.concat "\n"
          ((if batch then [ Printf.sprintf "OK %d" (Array.length f) ] else [])
           @ Array.to_list
               (Array.map
                  (fun (q, _) -> Printf.sprintf "OK %s %s" expected.(q) usual_status)
                  f)))
      frames
  in
  let check (c : Load.client) fi reply =
    let f = frames.(fi) in
    if String.equal reply usual.(fi) then begin
      Array.iter (fun (q, _) -> served.(q) <- expected.(q)) f;
      if batch then c.Load.hits <- c.Load.hits + Array.length f
      else c.Load.misses <- c.Load.misses + Array.length f;
      Array.length f
    end
    else begin
      let lines = String.split_on_char '\n' reply in
      let lines = if batch then (match lines with _ :: l -> l | [] -> []) else lines in
      if List.length lines <> Array.length f then begin
        Load.fail c ~ops:(Array.length f) ("malformed reply: " ^ short reply);
        0
      end
      else
        List.fold_left
          (fun (i, ok) line ->
            let q, sp = f.(i) in
            match Load.parse_estimate line with
            | Some (v, status) when v = expected.(q) ->
              Load.count_status c status;
              served.(q) <- v;
              (i + 1, ok + 1)
            | _ ->
              Load.fail c ~ops:1
                (Printf.sprintf "%S: served %S, in-process engine %S" (text q sp)
                   (short line) expected.(q));
              (i + 1, ok))
          (0, 0) lines
        |> snd
    end
  in
  let srv = start env in
  Fun.protect ~finally:(fun () -> Child.stop srv) @@ fun () ->
  let port = srv.Child.port in
  let admin = connect port in
  let slices = Load.slices ~seconds in
  let clients = List.init 2 (fun id -> Load.create ~id ~port ~slices) in
  (* untimed warm-up: every spelling through every connection *)
  List.iter
    (fun c ->
      Array.iter (fun f -> ignore (Load.round_trip c ~traced:false ~req:(-1) (payload f))) warm)
    clients;
  let rtt = Array.make rtt_cap 0.0 in
  let cursor = Atomic.make 0 in
  let step (c : Load.client) ~traced =
    let k = Atomic.fetch_and_add cursor 1 in
    let f = frames.(k mod nframes) in
    c.Load.attempted <- c.Load.attempted + Array.length f;
    match Load.round_trip c ~traced ~req:k payloads.(k mod nframes) with
    | Error msg ->
      Load.fail c ~ops:(Array.length f) ("connection: " ^ msg);
      0
    | Ok (reply, dt) ->
      if k < rtt_cap then rtt.(k) <- dt;
      Load.add_req c (dt *. 1e6);
      check c (k mod nframes) reply
  in
  let st0 = stats admin in
  let cpu = Array.make (slices + 1) 0.0 in
  let host_cpu = Array.make (slices + 1) [] in
  Load.run ~seconds ~trace clients step ~on_slice:(fun i ->
      cpu.(i) <- Child.cpu_s srv.Child.pid;
      host_cpu.(i) <- cpu_times ());
  let st1 = stats admin in
  let rss = Child.peak_rss_mb srv.Child.pid in
  List.iter Load.close clients;
  Net.Client.close admin;
  Child.stop srv;
  failures_to_stderr clients;
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let slice_s = seconds /. float_of_int slices in
  let slice_replies i = sum (fun c -> c.Load.slice_replies.(i)) in
  let over_slices pick f =
    median_of f (List.filter pick (List.init slices Fun.id))
  in
  let all _ = true in
  let rate pick = over_slices pick (fun i -> float_of_int (slice_replies i) /. slice_s) in
  let req_slice i = Sample.concat (List.map (fun c -> c.Load.req_lat.(i)) clients) in
  let req = Sample.concat (List.init slices req_slice) in
  let delta path = jnum st1 path -. jnum st0 path in
  let layers =
    if not trace then []
    else
      Layers.single spans_main ~tenant:tn
        ~warm:(Array.to_list (Array.map (fun f -> (payload f, queries f)) warm))
        ~frame:(fun k -> (payloads.(k mod nframes), queries frames.(k mod nframes)))
        ~frames:(min (Atomic.get cursor) (if batch then 2_000 else 20_000))
        ~rtt ~budget_s:(seconds /. 2.0)
      @ [ ("pool.steals", delta [ "pool"; "queue_steals" ], "count");
          ("pool.affinity_hits", delta [ "pool"; "affinity_hits" ], "count");
          ("pool.shed", delta [ "pool"; "shed_total" ], "count");
          ("pool.timeouts", delta [ "pool"; "timeout_total" ], "count");
          ("cache.invalidations", delta [ "cache"; "invalidations" ], "count") ]
  in
  (* Throughput, the tail and CPU per reply are medians over the one-second
     slices of the run; the median latency is over every sample. *)
  { e2e =
      [ ("qps", rate all, "1/s");
        ("req_p50_us", Sample.median req, "us");
        ("req_p99_us", over_slices all (fun i -> Sample.quantile (req_slice i) 0.99), "us");
        ("server_rss_mb", rss, "MB");
        ("server_cpu_ms_per_kq",
         over_slices all (fun i ->
             (cpu.(i + 1) -. cpu.(i)) *. 1e6 /. float_of_int (max 1 (slice_replies i))),
         "ms");
        ("req_p90_us", over_slices all (fun i -> Sample.quantile (req_slice i) 0.9), "us");
        ("req_p99_run_us", Sample.quantile req 0.99, "us") ];
    qerr =
      List.filter_map
        (fun q ->
          match (tn.queries.(q).Inputs.truth, float_of_string_opt served.(q)) with
          | Some t, Some v -> Some (v, float_of_int t)
          | _ -> None)
        (List.init nq Fun.id);
    attempted = sum (fun c -> c.Load.attempted);
    failed = sum (fun c -> c.Load.failed);
    hits = sum (fun c -> c.Load.hits);
    misses = sum (fun c -> c.Load.misses);
    qps_traced = rate (fun i -> i mod 2 = 1);
    qps_untraced = rate (fun i -> i mod 2 = 0);
    layers;
    spans = List.map (fun c -> c.Load.spans) clients;
    notes =
      [ ("req_samples", Obs.Json.Int (Sample.count req));
        ("slice_replies",
         Obs.Json.List (List.init slices (fun i -> Obs.Json.Int (slice_replies i))));
        ("slice_steal",
         Obs.Json.List
           (List.init slices (fun i ->
                Obs.Json.Float (steal_share host_cpu.(i) host_cpu.(i + 1))))) ] }

(* ---------------------------------------------------------------- *)
(* tenant_feedback: the same request sequence, replayed in episodes. Each
   episode starts a fresh server with empty journals and sends the whole
   sequence, so every episode does the same work and the journals stay
   bounded; metrics are medians over episodes. *)

let visits = 48
let requests_per_visit = 32

let tenant_sequence (inputs : Inputs.t) ~seed ~visits =
  let rng = Datagen.Rng.create ~seed:(seed + 2) in
  let tenants = inputs.Inputs.tenants in
  Array.concat
    (List.init visits (fun v ->
         let t = v mod Array.length tenants in
         let nq = Array.length tenants.(t).Inputs.queries in
         Array.init (requests_per_visit + 1) (fun j ->
             if j = 0 then Layers.Use t
             else begin
               let q = Datagen.Rng.int rng nq in
               if j mod 8 = 0 then Layers.Feedback (t, q) else Layers.Estimate (t, q)
             end)))

type episode = {
  replies : int;  (** estimate replies *)
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  req_us : Sample.t;
  final_stats : Obs.Json.t;
}

let tenant ~env ~seed ~seconds ~trace ~spans_main ~scale =
  let inputs = env.inputs in
  let visits = if scale = Inputs.Tiny then 6 else visits in
  let requests = tenant_sequence inputs ~seed ~visits in
  let payloads = Array.map (Layers.payload inputs) requests in
  let n = Array.length requests in
  (* The oracle: the sequence through an in-process registry of the same
     configuration gives the reply every episode must send back. *)
  let gc = Layers.gc_meter () in
  let fresh name = let d = Filename.concat env.dir name in clear_dir d; d in
  let expected, handled =
    Layers.registry_replay ~manifest:env.manifest ~memory_budget:env.memory_budget
      ~journal_dir:(fresh "journal-oracle") ~fsync:`Never ~payloads ~gc
  in
  let c = Load.create ~id:0 ~port:0 ~slices:1 in  (* port set per episode *)
  let fb = Sample.create () and use = Sample.create () in
  let rtt = Array.make n 0.0 in
  let episode ~traced ~ep =
    let srv = start env in
    Fun.protect ~finally:(fun () -> Child.stop srv) @@ fun () ->
    c.Load.port <- srv.Child.port;
    let admin = connect srv.Child.port in
    let req_us = Sample.create () in
    let replies = ref 0 in
    let cpu0 = Child.cpu_s srv.Child.pid in
    let t0 = Obs.now_mono () in
    Array.iteri
      (fun k p ->
        c.Load.attempted <- c.Load.attempted + 1;
        match Load.round_trip c ~traced ~req:((ep * n) + k) p with
        | Error msg -> Load.fail c ~ops:1 ("connection: " ^ msg)
        | Ok (reply, dt) ->
          if reply <> expected.(k) then
            Load.fail c ~ops:1
              (Printf.sprintf "request %d %S: served %S, in-process registry %S" k p
                 (short reply) (short expected.(k)))
          else begin
            let us = dt *. 1e6 in
            rtt.(k) <- dt;
            match requests.(k) with
            | Layers.Use _ -> Sample.add use us
            | Layers.Feedback _ -> Sample.add fb us
            | Layers.Estimate _ ->
              Sample.add req_us us;
              incr replies;
              (match Load.parse_estimate reply with
               | Some (_, status) -> Load.count_status c status
               | None -> ())
          end)
      payloads;
    let wall_s = Obs.now_mono () -. t0 in
    let cpu_s = Child.cpu_s srv.Child.pid -. cpu0 in
    let final_stats = stats admin in
    let rss_mb = Child.peak_rss_mb srv.Child.pid in
    Load.close c;
    Net.Client.close admin;
    { replies = !replies; wall_s; cpu_s; rss_mb; req_us; final_stats }
  in
  let stop = Obs.now_mono () +. seconds in
  let rec loop ep acc =
    if ep >= 2 && Obs.now_mono () >= stop then List.rev acc
    else loop (ep + 1) ((ep, episode ~traced:(trace && ep mod 2 = 1) ~ep) :: acc)
  in
  let eps = loop 0 [] in
  failures_to_stderr [ c ];
  let all = List.map snd eps in
  let pick p = List.filter_map (fun (ep, e) -> if p ep then Some e else None) eps in
  let rate es = median_of (fun e -> float_of_int e.replies /. e.wall_s) es in
  let last = List.nth all (List.length all - 1) in
  let estimates =
    Array.fold_left (fun a r -> match r with Layers.Estimate _ -> a + 1 | _ -> a) 0 requests
  in
  let layers =
    if not trace then []
    else
      Layers.tenant spans_main ~inputs ~manifest:env.manifest
        ~memory_budget:env.memory_budget ~journal_dir:(fresh "journal-layers")
        ~fsync:`Never ~requests
      @ Layers.net_overhead ~rtt
          ~handled:
            (List.filter
               (fun (k, _) -> match requests.(k) with Layers.Estimate _ -> true | _ -> false)
               handled)
      @ Layers.gc_metrics gc ~replies:estimates
      @ [ ("registry.page_ins", jnum last.final_stats [ "registry"; "page_ins" ], "count");
          ("registry.evictions", jnum last.final_stats [ "registry"; "evictions" ], "count");
          ("registry.journal_replayed",
           jnum last.final_stats [ "registry"; "journal_replayed" ], "count") ]
  in
  let req = Sample.concat (List.map (fun e -> e.req_us) all) in
  let qerr =
    List.filter_map
      (fun k ->
        match (requests.(k), Load.parse_estimate expected.(k)) with
        | Layers.Estimate (t, q), Some (v, _) ->
          Some (float_of_string v, float_of_int (Layers.truth inputs t q))
        | _ -> None)
      (List.init n Fun.id)
  in
  { e2e =
      [ ("qps", rate all, "1/s");
        ("req_p50_us", Sample.median req, "us");
        ("req_p99_us", median_of (fun e -> Sample.quantile e.req_us 0.99) all, "us");
        ("server_rss_mb", median_of (fun e -> e.rss_mb) all, "MB");
        ("server_cpu_ms_per_kq",
         median_of (fun e -> e.cpu_s *. 1e6 /. float_of_int (max 1 e.replies)) all, "ms");
        ("req_p90_us", median_of (fun e -> Sample.quantile e.req_us 0.9) all, "us");
        ("req_p99_run_us", Sample.quantile req 0.99, "us");
        ("fb_p50_us", Sample.median fb, "us");
        ("fb_p90_us", Sample.quantile fb 0.9, "us");
        ("use_p90_us", Sample.quantile use 0.9, "us") ];
    qerr;
    attempted = c.Load.attempted;
    failed = c.Load.failed;
    hits = c.Load.hits;
    misses = c.Load.misses;
    qps_traced = rate (pick (fun ep -> ep mod 2 = 1));
    qps_untraced = rate (pick (fun ep -> ep mod 2 = 0));
    layers;
    spans = [ c.Load.spans ];
    notes =
      [ ("episodes", Obs.Json.Int (List.length all));
        ("requests_per_episode", Obs.Json.Int n);
        ("req_samples", Obs.Json.Int (Sample.count req));
        ("episode_qps",
         Obs.Json.List
           (List.map (fun e -> Obs.Json.Float (float_of_int e.replies /. e.wall_s)) all)) ] }

(* ---------------------------------------------------------------- *)
(* One run *)

let run ~scale ~xseed ~work ~workload ~seed ~seconds ~trace =
  let env = prepare ~scale ~xseed ~work ~workload ~seed in
  let setup = setup_times env in
  let cpu_before = cpu_times () in
  let spans_main = Spans.create ~tid:10 ~track:"layers (in-process)" in
  let m =
    match workload with
    | "tenant_feedback" -> tenant ~env ~seed ~seconds ~trace ~spans_main ~scale
    | _ -> single ~env ~workload ~seed ~seconds ~trace ~spans_main
  in
  let steal = steal_share cpu_before (cpu_times ()) in
  let lint_failed =
    trace
    && begin
      let trace_file = Filename.concat env.dir "trace.json" in
      Spans.write (spans_main :: m.spans) trace_file;
      match
        Child.run_to_completion ~log:(Filename.concat env.dir "lint.log") xseed
          [ "trace-lint"; trace_file ]
      with
      | () -> false
      | exception Failure msg ->
        prerr_endline ("servebench: " ^ msg);
        true
    end
  in
  let failed = m.failed + if lint_failed then 1 else 0 in
  let qe = qerrors m.qerr in
  let e2e =
    m.e2e
    @ [ ("setup_s", Sample.median setup, "s");
        ("qerror_p90", Sample.quantile qe 0.9, "ratio");
        ("qerror_max", Sample.quantile qe 1.0, "ratio");
        ("failed_frac", float_of_int failed /. float_of_int (max 1 m.attempted), "ratio") ]
  in
  let layers =
    if not trace then []
    else
      m.layers
      @ Layers.build_metrics env.inputs.Inputs.tenants
      @ [ ("cache.hit_ratio",
           float_of_int m.hits /. float_of_int (max 1 (m.hits + m.misses)), "ratio");
          ("trace.qps_traced", m.qps_traced, "1/s");
          ("trace.qps_untraced", m.qps_untraced, "1/s");
          ("trace.overhead", 1.0 -. (m.qps_traced /. m.qps_untraced), "ratio");
          ("request.self_us", Spans.self_us (spans_main :: m.spans) "request", "us") ]
      @ List.map (fun n -> (n, 0.0, List.assoc n per_layer)) (not_on_path workload)
  in
  let report = e2e @ layers in
  let find (n, _) =
    match List.find_opt (fun (m, _, _) -> m = n) report with
    | Some m -> m
    | None -> (n, nan, "missing")
  in
  let metrics = List.map find (if trace then per_layer else end_to_end) in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  { correct = failed = 0 && finite; attempted = m.attempted; failed; metrics; report;
    info =
      [ ("workload", Obs.Json.String workload); ("seed", Obs.Json.Int seed);
        ("seconds", Obs.Json.Float seconds); ("trace", Obs.Json.Bool trace);
        ("host", host ()); ("steal_share", Obs.Json.Float steal); ("inputs_md5", Obs.Json.String env.inputs.Inputs.hash);
        ("inputs_gen_s", Obs.Json.Float env.inputs.Inputs.gen_s);
        ("qerror_samples", Obs.Json.Int (Sample.count qe));
        ("setup_samples",
         Obs.Json.List (List.map (fun x -> Obs.Json.Float x) (Array.to_list (Sample.to_array setup)))) ]
      @ m.notes }

(* ---------------------------------------------------------------- *)

let result_json o =
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool o.correct); ("attempted", Obs.Json.Int o.attempted);
      ("failed", Obs.Json.Int o.failed);
      ("metrics",
       Obs.Json.Obj
         (List.map
            (fun (n, v, u) ->
              (n, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]))
            o.metrics)) ]

let print_report o =
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %14.4f %s\n" n v u) o.report;
  print_endline (Obs.Json.to_string (Obs.Json.Obj o.info))

(* Tiny scales, every workload in both modes: every metric BENCHMARK.json
   names must be present and finite. *)
let self_check ~xseed ~work =
  let spec = Obs.Json.of_string (Child.read_file "BENCHMARK.json") in
  let names key =
    match Obs.Json.member key spec with
    | Some (Obs.Json.List l) ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let ok = ref true in
  let expect what cond = if not cond then begin ok := false; Printf.printf "FAIL %s\n%!" what end in
  expect "end_to_end list matches BENCHMARK.json" (names "end_to_end" = end_to_end);
  expect "per_layer list matches BENCHMARK.json" (names "per_layer" = per_layer);
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o = run ~scale:Inputs.Tiny ~xseed ~work ~workload ~seed:1 ~seconds:1.0 ~trace in
          let label = Printf.sprintf "%s trace=%b" workload trace in
          Printf.printf "%s: correct=%b attempted=%d failed=%d\n%!" label o.correct o.attempted o.failed;
          expect (label ^ " correct") o.correct;
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun (m, _, _) -> m = n) o.metrics with
              | Some (_, v, unit) ->
                expect (Printf.sprintf "%s %s finite (%g)" label n v) (Float.is_finite v);
                expect (Printf.sprintf "%s %s unit %s" label n unit) (unit = u)
              | None -> expect (Printf.sprintf "%s %s present" label n) false)
            (if trace then per_layer else end_to_end))
        [ false; true ])
    Inputs.workloads;
  print_endline (if !ok then "self-check: ok" else "self-check: FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let xseed = ref "_build/default/bin/xseed.exe" and work = ref ".bench_build/servebench" in
  let check = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME hot_batch | miss_single | tenant_feedback");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--xseed", Arg.Set_string xseed, "PATH xseed binary");
      ("--work", Arg.Set_string work, "DIR scratch directory inside the checkout");
      ("--self-check", Arg.Set check, " tiny run of every workload and metric") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !check then self_check ~xseed:!xseed ~work:!work;
  if not (List.mem !workload Inputs.workloads) then begin
    prerr_endline ("servebench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin prerr_endline "servebench: --trace is 0 or 1"; exit 2 end;
  let o =
    run ~scale:Inputs.Full ~xseed:!xseed ~work:!work ~workload:!workload ~seed:!seed
      ~seconds:!seconds ~trace:(!trace = 1)
  in
  print_report o;
  print_endline (Obs.Json.to_string (result_json o))
