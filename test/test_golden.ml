(* Golden bit-identity suite for the matcher.

   [matcher_golden.txt] pins the matcher's exact output over fixed-seed
   DBLP, XMark and recursive Treebank documents: for every BP/CP query
   (wildcards, [//], unknown labels, value predicates), with and without a
   HET whose branching entries include optimizer feedback, one line holds
   the estimate as [%h], every {!Core.Matcher.match_stats} field and the
   HET lookup/hit deltas of that one estimate. Explain, the HET builder
   and the TreeSketch baseline, which run the matcher on their own EPTs,
   are pinned too.

   Any change to the matcher's arithmetic, its fold order or its
   instrumentation shows up as a differing line. To regenerate after an
   intended change (and say why in the commit):

     dune exec test/test_golden.exe -- --write test/matcher_golden.txt *)

let golden_file = "matcher_golden.txt"

type corpus = {
  name : string;
  doc : string;
  thresholds : float list;  (* EPT card thresholds to pin *)
}

let corpora () =
  [ { name = "dblp"; doc = Datagen.Dblp.generate ~seed:7 ~records:300 ();
      thresholds = [ 0.5 ] };
    { name = "xmark"; doc = Datagen.Xmark.generate ~seed:11 ~items:30 ();
      thresholds = [ 0.5 ] };
    { name = "treebank";
      doc = Datagen.Treebank.generate ~seed:5 ~sentences:120 ();
      thresholds = [ 20.0; 2.0 ] } ]

(* Hand-written shapes the generators never produce: unknown names in every
   position, wildcard-only twigs, and a query past the 62-step cap. *)
let fixed_queries =
  [ "//nosuchlabel"; "//*[nosuchlabel]"; "/*/*[zz]/*"; "//*[*][*]/*";
    "//*//*[*]"; "//*"; "/*//*[*//*]/*";
    "/" ^ String.concat "/" (List.init 70 (fun _ -> "*")) ]

let queries c ~path_tree ~storage =
  let rng = Datagen.Rng.create ~seed:(Hashtbl.hash c.name) in
  let bp = Datagen.Workload.branching path_tree ~rng ~count:25 ~mbp:2 () in
  let cp = Datagen.Workload.complex path_tree ~rng ~count:25 ~mbp:2 () in
  let valued = Datagen.Workload.valued path_tree ~storage ~rng ~count:10 () in
  (bp, bp @ cp @ valued @ List.map Xpath.Parser.parse fixed_queries)

let het_line (d : Core.Het.counters) =
  Printf.sprintf "%d %d %d %d %d" d.simple_lookups d.simple_hits
    d.branching_lookups d.branching_hits d.collisions

let stats_line (ms : Core.Matcher.match_stats) =
  Printf.sprintf "%d %d %d %d %d %d %d %d" ms.ept_nodes ms.frontier
    ms.frontier_peak ms.frontier_sum ms.match_steps ms.het_joint_overrides
    ms.het_single_overrides ms.independence_preds

let het_counters est =
  match Core.Estimator.het est with
  | Some h -> Core.Het.counters h
  | None -> Core.Het.counters (Core.Het.create ())

let het_delta est f =
  let before = het_counters est in
  let r = f () in
  (r, het_line (Core.Het.diff_counters ~before ~after:(het_counters est)))

(* Every estimate of one estimator over one shared EPT, through one scratch
   reused across every corpus, threshold and query size, as a serving
   shard's is. *)
let scratch = Core.Matcher.scratch ()

let config_lines emit ~prefix est qs =
  let ept = lazy (Core.Estimator.ept est) in
  let e, het = het_delta est (fun () -> Lazy.force ept) in
  emit (Printf.sprintf "%s|ept|%d|%s" prefix (Core.Matcher.node_count e) het);
  List.iter
    (fun ast ->
      let q = Xpath.Ast.to_string ast in
      let r, het =
        het_delta est (fun () ->
            Core.Estimator.estimate_result_stats_on ~scratch est ept ast)
      in
      match r with
      | Ok (o, ms) ->
        emit
          (Printf.sprintf "%s|%s|%h|%d|%s|%s" prefix q o.Core.Estimator.value
             o.Core.Estimator.clamped (stats_line ms) het)
      | Error err ->
        emit
          (Printf.sprintf "%s|%s|error %s|%s" prefix q
             (Core.Error.kind_name (Core.Error.kind err))
             het))
    qs

let corpus_lines emit c =
  let path_tree = Pathtree.Path_tree.of_string c.doc in
  let storage = Nok.Storage.of_string ~with_values:true c.doc in
  let bp, qs = queries c ~path_tree ~storage in
  List.iter
    (fun threshold ->
      let prefix cfg = Printf.sprintf "%s@%g|%s" c.name threshold cfg in
      let syn =
        Core.Synopsis.build ~with_values:true ~mbp:2 ~card_threshold:threshold
          c.doc
      in
      let het = Option.get (Core.Synopsis.het syn) in
      emit
        (Printf.sprintf "%s|het-dump|%s" (prefix "het")
           (Digest.to_hex (Digest.string (Core.Het.to_string het))));
      let bare =
        Core.Estimator.create ~card_threshold:threshold
          ?values:(Core.Synopsis.values syn) (Core.Synopsis.kernel syn)
      in
      config_lines emit ~prefix:(prefix "bare") bare qs;
      (* Optimizer feedback adds simple and branching (joint and single)
         entries on top of the precomputed ones. *)
      let est = Core.Synopsis.estimator syn in
      List.iter
        (fun ast ->
          let actual = Nok.Eval.cardinality storage ast in
          ignore (Core.Estimator.record_feedback est ast ~actual : bool))
        bp;
      config_lines emit ~prefix:(prefix "het") est qs;
      List.iteri
        (fun i ast ->
          if i mod 10 = 0 then
            match Core.Explain.run est ast with
            | r ->
              emit
                (Printf.sprintf "%s|%s|%h|%s" (prefix "explain")
                   (Xpath.Ast.to_string ast) r.Core.Explain.estimate
                   (stats_line r.Core.Explain.matcher))
            | exception (Invalid_argument _ | Core.Error.Xseed _) -> ())
        qs)
    c.thresholds;
  if c.name = "xmark" then begin
    let sketch, _ =
      Treesketch.Sketch.build ~budget_bytes:4096
        (Nok.Storage.of_string c.doc)
    in
    List.iter
      (fun ast ->
        match Treesketch.Sketch.estimate sketch ast with
        | v ->
          emit
            (Printf.sprintf "%s|treesketch|%s|%h" c.name
               (Xpath.Ast.to_string ast) v)
        | exception (Invalid_argument _ | Core.Error.Xseed _) -> ())
      qs
  end

let lines () =
  let out = ref [] in
  List.iter (corpus_lines (fun l -> out := l :: !out)) (corpora ());
  List.rev !out

let read_lines file =
  let ic = open_in_bin file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_bit_identical () =
  let expected = read_lines golden_file in
  let actual = lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if e <> a then
        Alcotest.failf "line %d differs:\n  golden: %s\n  actual: %s" (i + 1) e a)
    (List.combine expected actual)

let () =
  match Sys.argv with
  | [| _; "--write"; file |] ->
    let oc = open_out_bin file in
    List.iter (fun l -> output_string oc (l ^ "\n")) (lines ());
    close_out oc
  | _ ->
    Alcotest.run "golden"
      [ ("matcher", [ Alcotest.test_case "bit-identical" `Slow test_bit_identical ]) ]
