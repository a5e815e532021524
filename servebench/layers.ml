(* The traced per-layer split. Every layer is timed from outside, around a
   call into its public function, on an in-process copy of the served
   stack fed the same frames the clients sent. Each frame is one request
   root span; layer calls are its children. *)

type metric = string * float * string

let load_synopsis file =
  match Core.Synopsis.of_string_result (Child.read_file file) with
  | Ok s -> s
  | Error e -> failwith (file ^ ": " ^ Core.Error.to_string e)

(* The estimator [xseed serve] builds from a synopsis file. *)
let estimator_of syn =
  Core.Estimator.create ~card_threshold:(Core.Synopsis.card_threshold syn)
    ?het:(Core.Synopsis.het syn) ?values:(Core.Synopsis.values syn)
    (Core.Synopsis.kernel syn)

(* Time one call; add its duration (us) and minor words to the samples.
   Words are those allocated on the calling domain. *)
let timed spans ~name ~parent ~req ?us ?words f =
  let i = Spans.enter spans ~name ~parent ~req in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  Spans.leave spans i;
  Option.iter (fun s -> Sample.add s (Spans.duration spans i *. 1e6)) us;
  Option.iter (fun s -> Sample.add s (w1 -. w0)) words;
  r

(* Span names are the public functions called. *)
let id = Spans.intern

(* A request line plus the payload lines a BATCH reads after it. *)
let handle ?extra server payload =
  match String.split_on_char '\n' payload with
  | [] -> None
  | first :: rest ->
    let rest = ref rest in
    Engine.Serve.handle_request ?extra server first ~read_line:(fun () ->
        match !rest with
        | [] -> None
        | l :: tl -> rest := tl; Some l)

(* Synopsis construction split into kernel and HET, as [xseed build] runs
   it; medians of three builds per tenant, summed over tenants. *)
let build_metrics (tenants : Inputs.tenant array) =
  let med3 f =
    let s = Sample.create () in
    for _ = 1 to 3 do
      let t0 = Obs.now_mono () in
      ignore (Sys.opaque_identity (f ()));
      Sample.add s (Obs.now_mono () -. t0)
    done;
    Sample.median s
  in
  let kernel = ref 0.0 and het = ref 0.0 and bytes = ref 0 in
  Array.iter
    (fun (tn : Inputs.tenant) ->
      let doc = Child.read_file tn.doc_file in
      let build with_het () =
        Core.Synopsis.build ~with_het ~card_threshold:tn.card_threshold
          ~bsel_threshold:tn.bsel_threshold doc
      in
      let k = med3 (build false) in
      let full = med3 (build true) in
      kernel := !kernel +. k;
      het := !het +. Float.max 0.0 (full -. k);
      bytes := !bytes + Core.Synopsis.size_in_bytes (load_synopsis tn.syn_file))
    tenants;
  [ ("build.kernel_s", !kernel, "s"); ("build.het_s", !het, "s");
    ("synopsis.bytes", float_of_int !bytes, "bytes") ]

(* Per-query layers: parse, canonical key, engine cache hit, matcher on a
   shared EPT. [engine] has already served the query once, so its
   [estimate_ast] here is a cache hit. *)
type per_query = {
  parse_us : Sample.t; parse_w : Sample.t;
  key_us : Sample.t; key_w : Sample.t;
  hit_us : Sample.t; hit_w : Sample.t;
  match_us : Sample.t; match_w : Sample.t;
  match_steps : Sample.t; match_nodes : Sample.t;
}

let per_query () =
  let s () = Sample.create () in
  { parse_us = s (); parse_w = s (); key_us = s (); key_w = s (); hit_us = s ();
    hit_w = s (); match_us = s (); match_w = s (); match_steps = s ();
    match_nodes = s () }

let query_layers pq spans ~root ~req ~engine ~est ~ept text =
  let parent = root in
  let ast =
    timed spans ~name:(id "xpath.parse") ~parent ~req ~us:pq.parse_us
      ~words:pq.parse_w (fun () -> Xpath.Parser.parse text)
  in
  ignore
    (timed spans ~name:(id "canonical.of_ast") ~parent ~req ~us:pq.key_us
       ~words:pq.key_w (fun () -> Engine.Canonical.of_ast ast));
  let i = Spans.enter spans ~name:(id "engine_core.estimate_ast") ~parent ~req in
  let w0 = Gc.minor_words () in
  let r = Engine.estimate_ast engine ast in
  let w1 = Gc.minor_words () in
  Spans.leave spans i;
  (match r with
   | Ok { Engine.status = Core.Explain.Hit; _ } ->
     Sample.add pq.hit_us (Spans.duration spans i *. 1e6);
     Sample.add pq.hit_w (w1 -. w0)
   | _ -> ());
  match
    timed spans ~name:(id "estimator.estimate_result_stats_on") ~parent ~req
      ~us:pq.match_us ~words:pq.match_w (fun () ->
        Core.Estimator.estimate_result_stats_on est ept ast)
  with
  | Ok (_, st) ->
    Sample.add pq.match_steps (float_of_int st.Core.Matcher.match_steps);
    Sample.add pq.match_nodes (float_of_int st.Core.Matcher.ept_nodes)
  | Error _ -> ()

let per_query_metrics pq =
  let m = Sample.median in
  [ ("xpath.parse_us", m pq.parse_us, "us"); ("xpath.parse_words", m pq.parse_w, "words");
    ("canonical.key_us", m pq.key_us, "us"); ("canonical.key_words", m pq.key_w, "words");
    ("cache.hit_us", m pq.hit_us, "us"); ("cache.hit_words", m pq.hit_w, "words");
    ("matcher.us", m pq.match_us, "us"); ("matcher.words", m pq.match_w, "words");
    ("matcher.match_steps", m pq.match_steps, "count");
    ("matcher.ept_nodes", m pq.match_nodes, "count") ]

let ept_metrics ~us ~words ~nodes =
  [ ("ept.build_us", Sample.median us, "us"); ("ept.words", Sample.median words, "words");
    ("ept.nodes", Sample.median nodes, "count") ]

(* Allocation of the whole in-process serving stack, all domains, per
   estimate reply ([Gc.quick_stat] sums every domain's counters). *)
type gc_meter = { mutable words : float; mutable collections : int }

let gc_meter () = { words = 0.0; collections = 0 }

let metered g f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  g.words <- g.words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  g.collections <- g.collections + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  r

let gc_metrics g ~replies =
  let q = float_of_int (max 1 replies) in
  [ ("gc.minor_words_per_q", g.words /. q, "words");
    ("gc.minor_collections_per_kq", 1000.0 *. float_of_int g.collections /. q, "count") ]

(* [handled] pairs a frame's index with its in-process [serve.handle]
   time; the client's round trip for the same frame, minus that, is the
   transport's share. *)
let net_overhead ~rtt ~handled =
  let handle = Sample.create () and over = Sample.create () in
  List.iter
    (fun (k, h) ->
      Sample.add handle h;
      if k < Array.length rtt && rtt.(k) > 0.0 then
        Sample.add over ((rtt.(k) *. 1e6) -. h))
    handled;
  [ ("serve.handle_us", Sample.median handle, "us");
    ("net.overhead_us", Sample.median over, "us") ]

(* [hot_batch] and [miss_single]: one synopsis behind a 2-worker pool.
   [frame k] is the k-th frame the clients sent (payload, query texts);
   [warm] the warm-up frames sent before it. Pool [a] answers the frames
   through the serve protocol as the server did; pool [b] and the inline
   engine see each frame once, so a miss on the server is a miss here. *)
let single spans ~(tenant : Inputs.tenant) ~warm ~frame ~frames ~rtt ~budget_s =
  let syn = load_synopsis tenant.syn_file in
  let pool_a = Engine.Pool.create ~workers:2 (estimator_of syn) in
  let pool_b = Engine.Pool.create ~workers:2 (estimator_of syn) in
  let engine = Engine.create (estimator_of syn) in
  let est = estimator_of syn in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool_a; Engine.Pool.shutdown pool_b)
  @@ fun () ->
  let server_a = Engine.Pool.server pool_a in
  List.iter
    (fun (payload, qs) ->
      ignore (handle server_a payload);
      ignore (Engine.Pool.estimate_batch pool_b qs);
      ignore (Engine.estimate_batch engine qs))
    warm;
  let ept_us = Sample.create () and ept_w = Sample.create () and ept_n = Sample.create () in
  let ept = ref None in
  for _ = 1 to 3 do
    let e =
      timed spans ~name:(id "estimator.ept") ~parent:(-1) ~req:(-1) ~us:ept_us
        ~words:ept_w (fun () -> Core.Estimator.ept est)
    in
    Sample.add ept_n (float_of_int (Core.Matcher.node_count e));
    ept := Some e
  done;
  let ept = Lazy.from_val (Option.get !ept) in
  let pq = per_query () in
  let gc = gc_meter () in
  let replies = ref 0 in
  let handled = ref [] in
  let pool_us = Sample.create () and inline_us = Sample.create () in
  let overhead = Sample.create () in
  let qwait = Sample.create () and exec = Sample.create () in
  let stop = Obs.now_mono () +. budget_s in
  let k = ref 0 in
  while !k < frames && Obs.now_mono () < stop do
    let req = !k in
    let payload, qs = frame req in
    let root = Spans.enter spans ~name:(id "request") ~parent:(-1) ~req in
    let parent = root in
    let h = Spans.enter spans ~name:(id "serve.handle") ~parent ~req in
    ignore (metered gc (fun () -> handle server_a payload));
    Spans.leave spans h;
    replies := !replies + List.length qs;
    handled := (req, Spans.duration spans h *. 1e6) :: !handled;
    if req mod 2 = 0 then begin
      timed spans ~name:(id "pool.estimate_batch") ~parent ~req ~us:pool_us
        (fun () -> ignore (Engine.Pool.estimate_batch pool_b qs));
      timed spans ~name:(id "engine_core.estimate_batch") ~parent ~req
        ~us:inline_us (fun () -> ignore (Engine.estimate_batch engine qs));
      Sample.add overhead (Sample.last pool_us -. Sample.last inline_us)
    end
    else begin
      (match
         timed spans ~name:(id "pool.profile") ~parent ~req (fun () ->
             Engine.Pool.profile pool_b qs)
       with
       | Ok p ->
         Sample.add qwait p.Engine.Serve.queue_wait_us.p50;
         Sample.add exec p.Engine.Serve.execute_us.p50
       | Error _ -> ());
      timed spans ~name:(id "engine_core.estimate_batch") ~parent ~req (fun () ->
          ignore (Engine.estimate_batch engine qs))
    end;
    List.iter (query_layers pq spans ~root ~req ~engine ~est ~ept) qs;
    Spans.leave spans root;
    incr k
  done;
  per_query_metrics pq
  @ ept_metrics ~us:ept_us ~words:ept_w ~nodes:ept_n
  @ [ ("pool.overhead_us", Sample.median overhead, "us");
      ("pool.batch_us", Sample.median pool_us, "us");
      ("pool.inline_us", Sample.median inline_us, "us");
      ("pool.queue_wait_us", Sample.median qwait, "us");
      ("pool.execute_us", Sample.median exec, "us");
      ("layers.frames", float_of_int !k, "count") ]
  @ net_overhead ~rtt ~handled:!handled
  @ gc_metrics gc ~replies:!replies

(* [tenant_feedback] requests, as the single client sent them. *)
type treq = Use of int | Estimate of int * int | Feedback of int * int

let query_text (inputs : Inputs.t) t q = inputs.tenants.(t).queries.(q).spellings.(0)

let truth (inputs : Inputs.t) t q =
  Option.get inputs.tenants.(t).queries.(q).truth

let payload (inputs : Inputs.t) = function
  | Use t -> "USE " ^ inputs.tenants.(t).name
  | Estimate (t, q) -> "ESTIMATE " ^ query_text inputs t q
  | Feedback (t, q) ->
    Printf.sprintf "FEEDBACK %s %d" (query_text inputs t q) (truth inputs t q)

let registry ~manifest ~memory_budget ~journal_dir ~fsync =
  let reg =
    Engine.Registry.create ~memory_budget ~journal_dir ~journal_fsync:fsync ()
  in
  (match Engine.Registry.load_manifest reg manifest with
   | Ok _ -> ()
   | Error e -> failwith (Core.Error.to_string e));
  reg

(* The oracle: the request sequence through an in-process registry of the
   served configuration. Returns every reply, and per-frame serve times
   (us) paired with the frame index, metering allocation. *)
let registry_replay ~manifest ~memory_budget ~journal_dir ~fsync ~payloads ~gc =
  let reg = registry ~manifest ~memory_budget ~journal_dir ~fsync in
  Fun.protect ~finally:(fun () -> Engine.Registry.close reg) @@ fun () ->
  let session = Engine.Registry.session reg in
  let server = Engine.Registry.server session in
  let extra = Engine.Registry.extra session in
  let handled = ref [] in
  let replies =
    Array.mapi
      (fun k p ->
        let t0 = Obs.now_mono () in
        let r = metered gc (fun () -> handle ~extra server p) in
        handled := (k, (Obs.now_mono () -. t0) *. 1e6) :: !handled;
        Option.value r ~default:"")
      payloads
  in
  (replies, !handled)

(* The per-layer pass for [tenant_feedback]: the same sequence on a fresh
   registry, calling the registry, feedback, traveler and per-query layers
   directly, so each call sees the state the served call saw. *)
let tenant spans ~(inputs : Inputs.t) ~manifest ~memory_budget ~journal_dir
    ~fsync ~(requests : treq array) =
  let reg = registry ~manifest ~memory_budget ~journal_dir ~fsync in
  Fun.protect ~finally:(fun () -> Engine.Registry.close reg) @@ fun () ->
  let session = Engine.Registry.session reg in
  let server = Engine.Registry.server session in
  let extra = Engine.Registry.extra session in
  let pq = per_query () in
  let resident_us = Sample.create () and page_in_us = Sample.create () in
  let fb_us = Sample.create () in
  let ept_us = Sample.create () and ept_w = Sample.create () and ept_n = Sample.create () in
  let seen = ref 0 and refined = ref 0 and invalidations = ref 0 in
  let ept = ref None in
  let engine t =
    match Engine.Registry.engine reg inputs.tenants.(t).name with
    | Some e -> e
    | None -> failwith "tenant not resident after USE"
  in
  Array.iteri (fun req r ->
    let root = Spans.enter spans ~name:(id "request") ~parent:(-1) ~req in
    let parent = root in
    (match r with
     | Use t ->
       let name = inputs.tenants.(t).name in
       let i = Spans.enter spans ~name:(id "registry.use") ~parent ~req in
       let r = Engine.Registry.use reg name in
       Spans.leave spans i;
       (match r with
        | Ok `Loaded ->
          Sample.add page_in_us (Spans.duration spans i *. 1e6);
          ept := None
        | Ok `Resident -> Sample.add resident_us (Spans.duration spans i *. 1e6)
        | Error e -> failwith (Core.Error.to_string e));
       (* a second USE of the now-resident tenant times the resident path *)
       timed spans ~name:(id "registry.use") ~parent ~req ~us:resident_us
         (fun () -> ignore (Engine.Registry.use reg name));
       ignore (handle ~extra server ("USE " ^ name))
     | Estimate (t, q) ->
       timed spans ~name:(id "serve.handle") ~parent ~req (fun () ->
           ignore (handle ~extra server (payload inputs r)));
       let e = engine t in
       let est = Engine.estimator e in
       let shared =
         match !ept with
         | Some x -> x
         | None ->
           let x =
             timed spans ~name:(id "estimator.ept") ~parent ~req ~us:ept_us
               ~words:ept_w (fun () -> Core.Estimator.ept est)
           in
           Sample.add ept_n (float_of_int (Core.Matcher.node_count x));
           let x = Lazy.from_val x in
           ept := Some x;
           x
       in
       query_layers pq spans ~root ~req ~engine:e ~est ~ept:shared
         (query_text inputs t q)
     | Feedback (t, q) ->
       let e = engine t in
       let before = (Engine.cache_counters e).Engine.Lru_cache.invalidations in
       let r =
         timed spans ~name:(id "serve.feedback") ~parent ~req ~us:fb_us (fun () ->
             server.Engine.Serve.feedback (query_text inputs t q)
               ~actual:(truth inputs t q))
       in
       let after = (Engine.cache_counters e).Engine.Lru_cache.invalidations in
       invalidations := !invalidations + (after - before);
       incr seen;
       (match r with
        | Ok { Engine.Feedback.refined = true; _ } ->
          incr refined;
          ept := None
        | _ -> ()));
    Spans.leave spans root)
    requests;
  per_query_metrics pq
  @ ept_metrics ~us:ept_us ~words:ept_w ~nodes:ept_n
  @ [ ("registry.use_resident_us", Sample.median resident_us, "us");
      ("registry.page_in_us", Sample.median page_in_us, "us");
      ("feedback.us", Sample.median fb_us, "us");
      ("feedback.refine_ratio",
       float_of_int !refined /. float_of_int (max 1 !seen), "ratio");
      ("cache.invalidations", float_of_int !invalidations, "count") ]
