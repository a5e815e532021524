type cache_status = Hit | Miss | Bypass

let cache_status_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

type report = {
  query : string;
  estimate : float;
  cache : cache_status;
  feedback_rounds : int;
  card_threshold : float;
  kernel_vertices : int;
  kernel_edges : int;
  synopsis_bytes : int;
  ept_nodes : int;
  traveler : Traveler.stats;
  matcher : Matcher.match_stats;
  het_active : int option;
  het_total : int option;
  het_usage : Het.counters option;
  ept_seconds : float;
  match_seconds : float;
  total_seconds : float;
  assumptions : string list;
  degenerate_clamps : int;
  unknown_labels : string list;
}

(* Derive the assumption trail from the counters: every quantity the final
   estimate rests on either came from an exact HET entry or from one of the
   paper's independence approximations. *)
let assumptions_of ~(path : Xpath.Ast.t) ~(ms : Matcher.match_stats)
    ~(traveler : Traveler.stats) ~(het_usage : Het.counters option) =
  let acc = ref [] in
  let addf fmt = Format.kasprintf (fun s -> acc := s :: !acc) fmt in
  (match het_usage with
   | Some u ->
     if u.simple_hits > 0 then
       addf "HET simple-path override: exact cardinality/bsel used for %d of %d \
             traveler lookups"
         u.simple_hits u.simple_lookups;
     if u.simple_lookups > u.simple_hits then
       addf "path-step independence: card = child_count x fsel(parent) for %d \
             HET-miss steps"
         (u.simple_lookups - u.simple_hits)
   | None ->
     if traveler.opened > 1 then
       addf "path-step independence: card = child_count x fsel(parent) for every \
             non-root EPT step (no HET)");
  if ms.het_joint_overrides > 0 then
    addf "HET joint-pattern override: correlated bsel replaced the sibling \
          product %d time%s"
      ms.het_joint_overrides
      (if ms.het_joint_overrides = 1 then "" else "s");
  if ms.het_single_overrides > 0 then
    addf "HET single-pattern override: correlated bsel used for %d predicate%s"
      ms.het_single_overrides
      (if ms.het_single_overrides = 1 then "" else "s");
  if ms.independence_preds > 0 then
    addf "sibling independence: noisy-or over EPT alternatives for %d predicate \
          factor%s"
      ms.independence_preds
      (if ms.independence_preds = 1 then "" else "s");
  if List.exists (fun (s : Xpath.Ast.step) -> s.axis = Xpath.Ast.Descendant) path
  then
    addf "ancestor-descendant independence: descendant steps combine ancestor \
          probabilities with noisy-or";
  List.rev !acc

let run ?obs estimator path =
  Obs.span ?obs "explain" (fun () ->
      let qt = Estimator.query_tree path in
      let kernel = Estimator.kernel estimator in
      let het = Estimator.het estimator in
      let values = Estimator.values estimator in
      let het_before = Option.map Het.counters het in
      let t0 = Obs.now_mono () in
      let traveler =
        Traveler.create
          ~card_threshold:(Estimator.card_threshold estimator)
          ~recursion_aware:(Estimator.recursion_aware estimator)
          ?het ?obs kernel
      in
      let ept =
        Matcher.materialize ~max_nodes:(Estimator.max_ept_nodes estimator) ?obs
          traveler
      in
      let t1 = Obs.now_mono () in
      let estimate, ms =
        Matcher.estimate_with_stats ?het ?values ~table:(Kernel.table kernel) ept
          qt
      in
      let t2 = Obs.now_mono () in
      let estimate, degenerate_clamps = Estimator.clamp_estimate ?obs estimate in
      let unknown_labels = Estimator.unknown_labels estimator path in
      Matcher.publish_stats ?obs ms;
      let het_usage =
        match (het, het_before) with
        | Some h, Some before ->
          Some (Het.diff_counters ~before ~after:(Het.counters h))
        | _ -> None
      in
      let tstats = Traveler.stats traveler in
      { query = Xpath.Ast.to_string path;
        estimate;
        (* Direct runs never consult an estimate cache; a serving layer
           (Engine) overrides these two fields on its reports. *)
        cache = Bypass;
        feedback_rounds = 0;
        card_threshold = Estimator.card_threshold estimator;
        kernel_vertices = Kernel.vertex_count kernel;
        kernel_edges = Kernel.edge_count kernel;
        synopsis_bytes = Estimator.size_in_bytes estimator;
        ept_nodes = Matcher.node_count ept;
        traveler = tstats;
        matcher = ms;
        het_active = Option.map Het.active_count het;
        het_total = Option.map Het.total_count het;
        het_usage;
        ept_seconds = t1 -. t0;
        match_seconds = t2 -. t1;
        total_seconds = t2 -. t0;
        assumptions = assumptions_of ~path ~ms ~traveler:tstats ~het_usage;
        degenerate_clamps;
        unknown_labels })

let run_string ?obs estimator query =
  run ?obs estimator (Xpath.Parser.parse query)

let pp ppf r =
  let ms s = 1000.0 *. s in
  Format.fprintf ppf "@[<v>explain %s@," r.query;
  Format.fprintf ppf "  estimate     %.2f@," r.estimate;
  Format.fprintf ppf "  cache        %s (%d feedback round%s applied)@,"
    (cache_status_name r.cache) r.feedback_rounds
    (if r.feedback_rounds = 1 then "" else "s");
  Format.fprintf ppf
    "  wall clock   %.3f ms  (ept build %.3f ms, match %.3f ms)@,"
    (ms r.total_seconds) (ms r.ept_seconds) (ms r.match_seconds);
  Format.fprintf ppf
    "  synopsis     %d vertices, %d edges, %d B total (card_threshold %g)@,"
    r.kernel_vertices r.kernel_edges r.synopsis_bytes r.card_threshold;
  Format.fprintf ppf
    "  EPT          %d nodes emitted, %d branches pruned, max recursion level \
     %d, max depth %d@,"
    r.traveler.opened r.traveler.pruned r.traveler.max_recursion_level
    r.traveler.max_depth_seen;
  Format.fprintf ppf
    "  matcher      frontier peak %d, frontier mean %.1f, match steps %d@,"
    r.matcher.frontier_peak
    (if r.matcher.ept_nodes > 0 then
       float_of_int r.matcher.frontier_sum /. float_of_int r.matcher.ept_nodes
     else 0.0)
    r.matcher.match_steps;
  (match (r.het_active, r.het_total, r.het_usage) with
   | Some active, Some total, Some u ->
     Format.fprintf ppf
       "  HET          %d/%d entries active; simple %d lookups / %d hits / %d \
        misses; branching %d lookups / %d hits; feedback inserts %d@,"
       active total u.simple_lookups u.simple_hits
       (u.simple_lookups - u.simple_hits)
       u.branching_lookups u.branching_hits u.feedback_inserts
   | _ -> Format.fprintf ppf "  HET          none (kernel-only estimate)@,");
  if r.degenerate_clamps > 0 then
    Format.fprintf ppf
      "  warning      raw estimate was degenerate (NaN/inf/negative); clamped@,";
  if r.unknown_labels <> [] then
    Format.fprintf ppf "  unknown      label%s not in synopsis: %s@,"
      (if List.length r.unknown_labels = 1 then "" else "s")
      (String.concat ", " r.unknown_labels);
  Format.fprintf ppf "  assumptions@,";
  List.iter (fun a -> Format.fprintf ppf "    - %s@," a) r.assumptions;
  Format.fprintf ppf "@]"

let to_json r =
  let open Obs.Json in
  let opt_int = function None -> Null | Some i -> Int i in
  Obj
    [ ("query", String r.query);
      ("estimate", Float r.estimate);
      ("cache", String (cache_status_name r.cache));
      ("feedback_rounds", Int r.feedback_rounds);
      ("card_threshold", Float r.card_threshold);
      ( "kernel",
        Obj
          [ ("vertices", Int r.kernel_vertices);
            ("edges", Int r.kernel_edges);
            ("synopsis_bytes", Int r.synopsis_bytes) ] );
      ( "wall_ms",
        Obj
          [ ("total", Float (1000.0 *. r.total_seconds));
            ("ept_build", Float (1000.0 *. r.ept_seconds));
            ("match", Float (1000.0 *. r.match_seconds)) ] );
      ( "ept",
        Obj
          [ ("nodes", Int r.ept_nodes);
            ("emitted", Int r.traveler.opened);
            ("pruned", Int r.traveler.pruned);
            ("max_recursion_level", Int r.traveler.max_recursion_level);
            ("max_depth", Int r.traveler.max_depth_seen) ] );
      ( "matcher",
        Obj
          [ ("frontier_peak", Int r.matcher.frontier_peak);
            ( "frontier_mean",
              Float
                (if r.matcher.ept_nodes > 0 then
                   float_of_int r.matcher.frontier_sum
                   /. float_of_int r.matcher.ept_nodes
                 else 0.0) );
            ("match_steps", Int r.matcher.match_steps);
            ("het_joint_overrides", Int r.matcher.het_joint_overrides);
            ("het_single_overrides", Int r.matcher.het_single_overrides);
            ("independence_preds", Int r.matcher.independence_preds) ] );
      ( "het",
        match r.het_usage with
        | None -> Null
        | Some u ->
          Obj
            [ ("active", opt_int r.het_active);
              ("total", opt_int r.het_total);
              ("simple_lookups", Int u.simple_lookups);
              ("simple_hits", Int u.simple_hits);
              ("simple_misses", Int (u.simple_lookups - u.simple_hits));
              ("branching_lookups", Int u.branching_lookups);
              ("branching_hits", Int u.branching_hits);
              ("feedback_inserts", Int u.feedback_inserts) ] );
      ("degenerate_clamps", Int r.degenerate_clamps);
      ("unknown_labels", List (List.map (fun a -> String a) r.unknown_labels));
      ("assumptions", List (List.map (fun a -> String a) r.assumptions)) ]
