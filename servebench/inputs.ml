(* Workload inputs, generated from the seed argument: documents, query
   lists with their spellings, and NoK ground truth. The server receives
   only the files written here and the request frames built from them. *)

type query = {
  spellings : string array;
      (** [spellings.(0)] is [Xpath.Ast.to_string]; further spellings
          differ in predicate order and whitespace but share its
          canonical key *)
  ast : Xpath.Ast.t;
  truth : int option;  (** NoK cardinality, for the sampled queries *)
}

type tenant = {
  name : string;
  doc_file : string;
  syn_file : string;
  card_threshold : float;  (** [xseed build --card-threshold] *)
  bsel_threshold : float;  (** [xseed build --bsel-threshold] *)
  queries : query array;
}

type t = {
  workload : string;
  seed : int;
  tenants : tenant array;
  hash : string;  (** MD5 over documents, spellings and truth *)
  gen_s : float;  (** generation and ground-truth time, outside setup_s *)
}

type scale = Full | Tiny

(* The CLI's defaults, and the thresholds Section 6.4 of the paper builds
   Treebank with. *)
let default_thresholds = (0.5, 0.1)
let treebank_thresholds = (20.0, 0.001)

let build_args tn =
  [ "--card-threshold"; Printf.sprintf "%g" tn.card_threshold;
    "--bsel-threshold"; Printf.sprintf "%g" tn.bsel_threshold ]

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Reverse every predicate list and pad brackets with blanks: a second
   spelling the cache must fold onto the first one's canonical key. *)
let respell ast =
  let rec rev_path p =
    List.map
      (fun (s : Xpath.Ast.step) ->
        { s with predicates = List.rev_map rev_path s.predicates })
      p
  in
  let text = Xpath.Ast.to_string (rev_path ast) in
  let b = Buffer.create (String.length text + 16) in
  String.iter
    (function
      | '[' -> Buffer.add_string b " [ "
      | ']' -> Buffer.add_string b " ] "
      | c -> Buffer.add_char b c)
    text;
  Buffer.contents b

let canonical_text q = (Engine.Canonical.of_ast q).Engine.Canonical.text

(* Draw [count] BP and CP queries with distinct canonical keys, alternating
   the two generators so both classes are present. Queries larger than the
   matcher's query-tree limit are outside the estimator's input domain and
   are never drawn. *)
let distinct_queries pt rng ~count =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  let n = ref 0 in
  let rounds = ref 0 in
  let add q =
    if !n < count && Xpath.Ast.steps q <= 24 then begin
      let k = canonical_text q in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        out := q :: !out;
        incr n
      end
    end
  in
  while !n < count do
    incr rounds;
    if !rounds > 10_000 then
      failwith
        (Printf.sprintf "only %d distinct queries available (wanted %d)" !n
           count);
    List.iter add (Datagen.Workload.branching pt ~rng ~count:64 ~mbp:2 ());
    List.iter add (Datagen.Workload.complex pt ~rng ~count:64 ~mbp:2 ())
  done;
  Array.of_list (List.rev !out)

(* [truth_every] = k computes NoK truth for every k-th query (NoK costs
   milliseconds per query on the larger documents). *)
let make_queries ~doc ~rng ~count ~spellings ~truth_every =
  let pt = Pathtree.Path_tree.of_string doc in
  let asts = distinct_queries pt rng ~count in
  let storage = Nok.Storage.of_string doc in
  Array.mapi
    (fun i ast ->
      let first = Xpath.Ast.to_string ast in
      let spellings =
        if spellings = 1 then [| first |]
        else begin
          let second = respell ast in
          (match Engine.Canonical.of_string second with
           | Ok k when k.Engine.Canonical.text = canonical_text ast -> ()
           | _ -> failwith ("respelling changed the query: " ^ second));
          [| first; second |]
        end
      in
      let truth =
        if i mod truth_every = 0 then Some (Nok.Eval.cardinality storage ast)
        else None
      in
      { spellings; ast; truth })
    asts

let tenant ~dir ~name ~doc ~thresholds:(card_threshold, bsel_threshold)
    ~queries =
  let doc_file = Filename.concat dir (name ^ ".xml") in
  write_file doc_file doc;
  { name; doc_file; syn_file = Filename.concat dir (name ^ ".syn");
    card_threshold; bsel_threshold; queries }

let digest t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun tn ->
      Buffer.add_string b tn.name;
      Buffer.add_string b (Digest.to_hex (Digest.file tn.doc_file));
      Array.iter
        (fun q ->
          Array.iter (fun s -> Buffer.add_string b s; Buffer.add_char b '\n')
            q.spellings;
          Buffer.add_string b
            (match q.truth with Some n -> string_of_int n | None -> "-"))
        tn.queries)
    t;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Zipf ranks go to queries through a fixed permutation of their length
   order, so for every seed the popular ranks hold queries from the same
   length quantiles: the seed changes which queries are hot, not how much
   work a batch slot costs. *)
let rank_by_length queries =
  let by_length = Array.copy queries in
  Array.stable_sort
    (fun a b -> compare (String.length a.spellings.(0)) (String.length b.spellings.(0)))
    by_length;
  let perm = Array.init (Array.length queries) Fun.id in
  Datagen.Rng.shuffle (Datagen.Rng.create ~seed:0x5eed) perm;
  Array.map (fun i -> by_length.(i)) perm

let workloads = [ "hot_batch"; "miss_single"; "tenant_feedback" ]

let generate ~scale ~dir ~workload ~seed =
  let t0 = Obs.now_mono () in
  let tiny = scale = Tiny in
  let rng = Datagen.Rng.create ~seed in
  (* Independent document and query streams, both from the seed. *)
  let doc_seed () = Datagen.Rng.int rng 1_000_000_000 in
  let xmark () =
    Datagen.Xmark.generate ~seed:(doc_seed ()) ~items:(if tiny then 60 else 600) ()
  in
  let treebank () =
    Datagen.Treebank.generate ~seed:(doc_seed ())
      ~sentences:(if tiny then 250 else 2500) ()
  in
  let dblp () =
    Datagen.Dblp.generate ~seed:(doc_seed ()) ~records:(if tiny then 200 else 2000) ()
  in
  let tenants =
    match workload with
    | "hot_batch" ->
      let doc = xmark () in
      let queries =
        rank_by_length
          (make_queries ~doc ~rng:(Datagen.Rng.split rng) ~count:256 ~spellings:2
             ~truth_every:1)
      in
      [| tenant ~dir ~name:"xmark" ~doc ~thresholds:default_thresholds ~queries |]
    | "miss_single" ->
      let doc = treebank () in
      let count, truth_every = if tiny then (600, 12) else (12_288, 48) in
      let queries =
        make_queries ~doc ~rng:(Datagen.Rng.split rng) ~count ~spellings:1
          ~truth_every
      in
      [| tenant ~dir ~name:"treebank" ~doc ~thresholds:treebank_thresholds
           ~queries |]
    | "tenant_feedback" ->
      let count = if tiny then 16 else 64 in
      let mk name doc thresholds =
        let queries =
          make_queries ~doc ~rng:(Datagen.Rng.split rng) ~count ~spellings:1
            ~truth_every:1
        in
        tenant ~dir ~name ~doc ~thresholds ~queries
      in
      let d = dblp () in
      let x = xmark () in
      let tb = treebank () in
      [| mk "dblp" d default_thresholds; mk "xmark" x default_thresholds;
         mk "treebank" tb treebank_thresholds |]
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  { workload; seed; tenants; hash = digest tenants;
    gen_s = Obs.now_mono () -. t0 }
