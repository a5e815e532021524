(* Tenant page-in: the one-pass HET reader against the line-splitting
   reader it replaced, slicing-by-8 CRC-32 against the bytewise
   algorithm, EPT reuse across branching-only refinements in the engine
   and the pool, and the registry's page-in instruments. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let crc_bytewise s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc lxor 0xFFFFFFFF

let test_crc_slicing () =
  let st = Random.State.make [| 15 |] in
  let buf = String.init 72 (fun _ -> Char.chr (Random.State.int st 256)) in
  for off = 0 to 7 do
    for len = 0 to 64 do
      let s = String.sub buf off len in
      if Core.Crc32.digest s <> crc_bytewise s then
        Alcotest.failf "offset %d length %d: %08x, bytewise %08x" off len
          (Core.Crc32.digest s) (crc_bytewise s)
    done
  done;
  let big = String.init 10_007 (fun _ -> Char.chr (Random.State.int st 256)) in
  checki "10007 random bytes" (crc_bytewise big) (Core.Crc32.digest big);
  checks "standard check value" "cbf43926"
    (Core.Crc32.to_hex (Core.Crc32.digest "123456789"))

let test_crc_of_hex () =
  let none s = checkb (Printf.sprintf "%S refused" s) true (Core.Crc32.of_hex s = None) in
  List.iter none
    [ "0000_001"; "+1234567"; "-1234567"; "0x123456"; "1234567 "; "1234567g";
      "123456789"; "" ];
  checkb "upper-case digits" true (Core.Crc32.of_hex "CBF43926" = Some 0xcbf43926);
  checkb "to_hex round trip" true
    (Core.Crc32.of_hex (Core.Crc32.to_hex 0x0000002a) = Some 0x2a)

(* A v2 header whose CRC field is a non-hex spelling is refused as a bad
   section line, before any checksum is compared. *)
let test_crc_header_spelling () =
  let syn = Core.Synopsis.build Datagen.Paper_example.document in
  let text = Core.Synopsis.to_string syn in
  let lines = String.split_on_char '\n' text in
  let het_line =
    List.find (fun l -> String.length l > 12 && String.sub l 0 12 = "section het ") lines
  in
  let bad =
    match String.split_on_char ' ' het_line with
    | [ s; name; len; _ ] -> String.concat " " [ s; name; len; "0000_001" ]
    | _ -> Alcotest.fail "unexpected section line"
  in
  let mutated =
    String.concat "\n" (List.map (fun l -> if l == het_line then bad else l) lines)
  in
  match Core.Synopsis.of_string_result mutated with
  | Ok _ -> Alcotest.fail "underscore CRC accepted"
  | Error e ->
    checkb "corrupt synopsis" true
      (Core.Error.kind e = Core.Error.Corrupt_synopsis);
    checks "bad section line" ("bad section line: " ^ bad) (Core.Error.message e)

(* ------------------------------------------------------------------ *)
(* HET reader: the previous reader, kept verbatim as the oracle. *)

let oracle_of_string_result s =
  let open Core in
  Error.guard (fun () ->
      let t = Het.create () in
      let budget = ref None in
      let malformed i line =
        Error.raisef ~position:(i + 1) ~section:"het" Error.Corrupt_synopsis
          "bad HET line: %s" (String.trim line)
      in
      let finite i line x = if Float.is_finite x then x else malformed i line in
      let clamp01 x = Float.max 0.0 (Float.min 1.0 x) in
      let opt_path = function "-" -> None | p -> Some p in
      List.iteri
        (fun i line ->
          let simple h card bsel error path =
            match
              (int_of_string_opt h, int_of_string_opt card,
               float_of_string_opt error)
            with
            | Some h, Some card, Some error ->
              let error = finite i line error in
              let bsel =
                if bsel = "-" then None
                else
                  match float_of_string_opt bsel with
                  | Some b -> Some (clamp01 (finite i line b))
                  | None -> malformed i line
              in
              Het.add_simple t ~hash:h ?path ~card:(max 0 card) ~bsel ~error
            | _ -> malformed i line
          in
          let branching h bsel error path =
            match
              (int_of_string_opt h, float_of_string_opt bsel,
               float_of_string_opt error)
            with
            | Some h, Some bsel, Some error ->
              Het.add_branching t ~hash:h ?path
                ~bsel:(clamp01 (finite i line bsel))
                ~error:(finite i line error)
            | _ -> malformed i line
          in
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] -> ()
          | [ "xseed-het"; ("v1" | "v2") ] when i = 0 -> ()
          | [ "budget"; b ] ->
            (match int_of_string_opt b with
             | Some b -> budget := Some b
             | None -> malformed i line)
          | [ "simple"; h; card; bsel; error ] -> simple h card bsel error None
          | [ "simple"; h; card; bsel; error; path ] ->
            simple h card bsel error (opt_path path)
          | [ "branching"; h; bsel; error ] -> branching h bsel error None
          | [ "branching"; h; bsel; error; path ] ->
            branching h bsel error (opt_path path)
          | _ -> malformed i line)
        (String.split_on_char '\n' s);
      (match !budget with Some b -> Het.set_budget t ~bytes:b | None -> ());
      t)

(* Branching patterns with real hashes and keys, so lookups resolve. *)
let patterns = [ (1, [ 2 ], 3); (1, [ 2; 4 ], 3); (5, [ 6 ], 7) ]

let pattern_hash (parent, predicates, next) =
  Core.Path_hash.branching ~parent ~predicates ~next

let pattern_key (parent, predicates, next) =
  Core.Path_hash.branching_key ~parent ~predicates ~next

(* A handful of hashes, so paths collide under one hash often. *)
let simple_hashes = [ 1; 2; 42; 4294967295 ]
let simple_paths = [ "1/2"; "1/2/3"; "3/4"; "5" ]

(* [noisy] generators also produce spellings the fast paths hand to the
   stdlib parsers, and malformed ones; clean ones yield loadable tables. *)
let w noisy n = if noisy then n else 0

let gen_path ~noisy paths =
  QCheck.Gen.(
    frequency
      [ (6, oneofl paths); (2, return "-");
        (w noisy 1, oneofl [ "a b"; ""; "1/2\t" ]) ])

let gen_int_spelling ~noisy =
  QCheck.Gen.(
    frequency
      [ (8, map string_of_int (int_range (-5) 1000));
        ( 2,
          map string_of_int
            (oneofl [ max_int; min_int; 0; -1; 4294967295; 1 lsl 40 ]) );
        ( w noisy 2,
          oneofl
            [ "0x1f"; "1_000"; "+5"; "-0"; "007"; "99999999999999999999";
              "-"; "12a"; "0b101"; "0o17"; "4611686018427387904";
              "123456789012345678"; "1234567890123456789";
              "-1234567890123456789"; "" ] ) ])

let finite_edges =
  [ 0.0; -0.0; 1.0; 0.5; 1e-310; 5e-324; 2.2250738585072014e-308;
    Float.max_float; 0.1; 3.0; 1.5; 0.999; 2.0; -1.0; 1e-5;
    4503599627370497.0 ]

let gen_float_spelling ~noisy =
  QCheck.Gen.(
    frequency
      [ (4, map (Printf.sprintf "%h") (oneofl finite_edges));
        (3, map (Printf.sprintf "%h") (float_range (-10.0) 10.0));
        ( 2,
          map
            (fun bits ->
              let x = Int64.float_of_bits bits in
              Printf.sprintf "%h" (if noisy || Float.is_finite x then x else 1.0))
            ui64 );
        (* Ties in error make budget selection depend on table order. *)
        (4, oneofl [ "0x1p+0"; "0x1p+1"; "0x0p+0"; "0x1.8p+1" ]);
        ( w noisy 1,
          map (Printf.sprintf "%h") (oneofl [ infinity; neg_infinity; nan; -.nan ])
        );
        ( w noisy 2,
          oneofl
            [ "0.5"; "1e3"; "0x1.8P+1"; "+0x1p+0"; "0x1.p+0"; "0x1p+10000";
              "0x1p-1075"; "0x2p+0"; "0x1.00000000000000p+0";
              "0x1.0000000000001p+0"; "0x1.00000000000001p+0"; "infinity";
              "-infinity"; "nan"; "-nan"; "inf"; "1_0.5"; "0x0.8p-1022";
              "0x0.8p-1021"; "0x1p+1023"; "0x1p+1024"; "0x1p-1022";
              "0x1p-1023"; "-0x0p+0"; "0x0p+7"; "0x1p+00001"; "0x1p+"; "0x1p";
              "0x"; "x"; "0x1.fffffffffffffp+1023"; "0x1_0p+0"; "0X1p+0"; "" ] ) ])

let gen_line ~noisy =
  let int_s = gen_int_spelling ~noisy and float_s = gen_float_spelling ~noisy in
  QCheck.Gen.(
    frequency
      [ ( 10,
          map
            (fun (h, card, bsel, error, path, legacy) ->
              String.concat " "
                ([ "simple"; h; card; bsel; error ]
                @ if legacy then [] else [ path ]))
            (tup6
               (frequency
                  [ (5, map string_of_int (oneofl simple_hashes)); (1, int_s) ])
               int_s
               (frequency [ (1, return "-"); (2, float_s) ])
               float_s (gen_path ~noisy simple_paths)
               (frequency [ (4, return false); (1, return true) ])) );
        ( 5,
          map
            (fun (p, bsel, error, path, legacy) ->
              String.concat " "
                ([ "branching"; p; bsel; error ]
                @ if legacy then [] else [ path ]))
            (tup5
               (frequency
                  [ ( 5,
                      map (fun p -> string_of_int (pattern_hash p)) (oneofl patterns)
                    );
                    (1, int_s) ])
               float_s float_s
               (gen_path ~noisy (List.map pattern_key patterns))
               (frequency [ (4, return false); (1, return true) ])) );
        ( 1,
          map (fun b -> "budget " ^ b)
            (frequency [ (3, map string_of_int (int_range 0 200)); (1, int_s) ]) );
        (1, oneofl [ ""; "   "; "\t" ]);
        (w noisy 1, oneofl [ "xseed-het v2"; "xseed-het v3"; "garbage" ]) ])

(* Blanks around a line, a CRLF ending, and (noisy) a doubled separator. *)
let decorate ~noisy =
  QCheck.Gen.(
    frequency
      [ (12, return Fun.id);
        (1, return (fun l -> "  " ^ l));
        (1, return (fun l -> l ^ " \t"));
        (1, return (fun l -> l ^ "\r"));
        ( w noisy 1,
          return (fun l ->
              match String.index_opt l ' ' with
              | Some i ->
                String.sub l 0 i ^ "  " ^ String.sub l (i + 1) (String.length l - i - 1)
              | None -> l) ) ])

let gen_het_text =
  QCheck.Gen.(
    bool >>= fun noisy ->
    map
      (fun (header, lines, trailing) ->
        String.concat "\n" (header @ lines) ^ if trailing then "\n" else "")
      (triple
         (oneofl [ []; [ "xseed-het v1" ]; [ "xseed-het v2" ] ])
         (list_size (int_range 0 40)
            (map2 (fun f l -> f l) (decorate ~noisy) (gen_line ~noisy)))
         bool))

let mutate st text =
  if text = "" then "x"
  else
    let i = Random.State.int st (String.length text) in
    let c = "  \t\n-_.px0a9f+" in
    let ch = c.[Random.State.int st (String.length c)] in
    match Random.State.int st 3 with
    | 0 -> String.mapi (fun j x -> if j = i then ch else x) text
    | 1 -> String.sub text 0 i ^ String.sub text (i + 1) (String.length text - i - 1)
    | _ -> String.sub text 0 i ^ String.make 1 ch ^ String.sub text i (String.length text - i)

let lookups t =
  List.concat_map
    (fun hash ->
      List.map
        (fun path -> Core.Het.lookup_simple t ?path hash)
        (None :: List.map Option.some simple_paths))
    simple_hashes
  |> List.map (function
       | None -> "-"
       | Some (card, bsel) ->
         Printf.sprintf "%d %s" card
           (match bsel with None -> "-" | Some b -> Printf.sprintf "%h" b))
  |> List.append
       (List.map
          (fun (parent, predicates, next) ->
            match Core.Het.lookup_branching t ~parent ~predicates ~next with
            | None -> "-"
            | Some b -> Printf.sprintf "%h" b)
          patterns)

let describe t =
  let c = Core.Het.counters t in
  String.concat "|"
    [ Core.Het.to_string t;
      string_of_int (Core.Het.active_count t);
      string_of_int (Core.Het.total_count t);
      string_of_int (Core.Het.size_in_bytes t);
      String.concat "," (lookups t);
      Printf.sprintf "%d %d %d %d %d %d" c.simple_lookups c.simple_hits
        c.branching_lookups c.branching_hits c.feedback_inserts c.collisions ]

let outcome = function
  | Ok t -> "ok " ^ describe t
  | Error e ->
    Printf.sprintf "error %s %s %s %s"
      (Core.Error.kind_name (Core.Error.kind e))
      (match Core.Error.position e with Some p -> string_of_int p | None -> "-")
      (Option.value (Core.Error.section e) ~default:"-")
      (Core.Error.message e)

let agree text =
  let got = outcome (Core.Het.of_string_result text)
  and want = outcome (oracle_of_string_result text) in
  if got <> want then
    QCheck.Test.fail_reportf "reader:@.%s@.oracle:@.%s@." got want
  else true

let prop_reader_equivalence =
  QCheck.Test.make ~count:600 ~name:"one-pass reader = line-splitting reader"
    (QCheck.make ~print:String.escaped gen_het_text)
    agree

let prop_reader_mutations =
  QCheck.Test.make ~count:600 ~name:"mutated lines: same error or table"
    (QCheck.make
       ~print:(fun (text, seed) -> Printf.sprintf "%S seed %d" text seed)
       QCheck.Gen.(pair gen_het_text (int_range 0 1_000_000)))
    (fun (text, seed) ->
      let st = Random.State.make [| seed |] in
      agree (mutate st (mutate st text)))

let prop_round_trip =
  QCheck.Test.make ~count:300 ~name:"of_string (to_string t) round-trips"
    (QCheck.make ~print:String.escaped gen_het_text)
    (fun text ->
      match Core.Het.of_string_result text with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
        let dump = Core.Het.to_string t in
        Core.Het.to_string (Core.Het.of_string dump) = dump)

let test_reader_examples () =
  let texts =
    [ "xseed-het v1\nsimple 7 5 - 0x1p+0\nbranching 9 0x1p-1 0x1p+2\n";
      "xseed-het v2\nbudget 16\nsimple 1 5 0x1.8p-1 0x1p+0 1/2\nsimple 1 6 - 0x1p+1 3/4\n";
      "simple 1 5 - 0x1p+0 1/2\nxseed-het v2\n";
      "xseed-het v2\r\n simple 1 5 - 0x1p+0 1/2 \r\n\n";
      "xseed-het v2\nsimple 1 5 nan 0x0p+0 -\n";
      "xseed-het v2\nsimple 4294967295 -3 -0x0p+0 0x0.0000000000001p-1022 -\n" ]
  in
  List.iter
    (fun text ->
      checks (String.escaped text)
        (outcome (oracle_of_string_result text))
        (outcome (Core.Het.of_string_result text)))
    texts;
  (* The line position and text of a malformed line are the oracle's. *)
  match Core.Het.of_string_result "xseed-het v2\n\nsimple 1 x - 0x1p+0 -  \n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
    checkb "position" true (Core.Error.position e = Some 3);
    checks "message" "bad HET line: simple 1 x - 0x1p+0 -" (Core.Error.message e)

(* ------------------------------------------------------------------ *)
(* EPT reuse across branching-only refinements *)

(* 8 'a' children: 4 carry <b/>, 4 carry <c/>. *)
let doc =
  "<r>"
  ^ String.concat ""
      (List.init 8 (fun i -> if i < 4 then "<a><b/></a>" else "<a><c/></a>"))
  ^ "</r>"

let queries = [ "/r/a/b"; "/r/a/c"; "/r/a[b]/c"; "/r/a[c]/b"; "//a"; "//b" ]

(* A kernel over [doc] and an empty HET, optionally budgeted. *)
let fresh_estimator ?budget () =
  let kernel = Core.Builder.of_string doc in
  let het = Core.Het.create () in
  Option.iter (fun bytes -> Core.Het.set_budget het ~bytes) budget;
  Core.Estimator.create ~het kernel

let het_of est = Option.get (Core.Estimator.het est)

(* Estimates of a fresh engine over [est]'s kernel and (refined) HET. *)
let fresh_values est =
  let e =
    Engine.create
      (Core.Estimator.create ~het:(het_of est) (Core.Estimator.kernel est))
  in
  List.map
    (fun q ->
      match Engine.estimate e q with
      | Ok s -> Printf.sprintf "%h" s.Engine.outcome.Core.Estimator.value
      | Error err -> Core.Error.to_string err)
    queries

let engine_values e =
  List.map
    (fun q ->
      match Engine.estimate e q with
      | Ok s -> Printf.sprintf "%h" s.Engine.outcome.Core.Estimator.value
      | Error err -> Core.Error.to_string err)
    queries

let engine_refine e q ~actual =
  match Engine.feedback e q ~actual with
  | Ok (_, o) -> checkb (q ^ " refined") true o.Engine.Feedback.refined
  | Error err -> Alcotest.failf "feedback %s: %s" q (Core.Error.to_string err)

let engine_ept e =
  match Engine.shared_ept e with
  | Some ept -> ept
  | None -> Alcotest.fail "no shared EPT"

let test_engine_reuse () =
  let est = fresh_estimator () in
  let e = Engine.create est in
  ignore (engine_values e : string list);
  let ept = engine_ept e in
  engine_refine e "/r/a[b]/c" ~actual:0;
  checkb "branching-only: EPT physically kept" true (engine_ept e == ept);
  checki "branching-only: cache emptied" 0 (Engine.cache_length e);
  Alcotest.(check (list string))
    "branching-only: estimates = a fresh engine" (fresh_values est)
    (engine_values e);
  checkb "still the same EPT" true (engine_ept e == ept);
  engine_refine e "/r/a/b" ~actual:40;
  checkb "simple refinement drops the EPT" true (Engine.shared_ept e = None);
  Alcotest.(check (list string))
    "simple: estimates = a fresh engine" (fresh_values est) (engine_values e);
  checkb "rebuilt on the next miss" true (engine_ept e != ept);
  Engine.invalidate e;
  checkb "invalidate drops the EPT" true (Engine.shared_ept e = None);
  checki "invalidate empties the cache" 0 (Engine.cache_length e)

(* Under a one-simple-entry budget, a branching feedback insert evicts
   the smaller-error simple entry: the active simple set changed, so the
   EPT must be rebuilt. *)
let test_engine_budget_eviction () =
  let est = fresh_estimator ~budget:Core.Het.simple_entry_bytes () in
  let e = Engine.create est in
  engine_refine e "/r/a/b" ~actual:9;
  ignore (engine_values e : string list);
  let ept = engine_ept e in
  let gen = Core.Het.simple_generation (het_of est) in
  engine_refine e "/r/a[b]/c" ~actual:20;
  checkb "a simple entry was evicted" true
    (Core.Het.simple_generation (het_of est) <> gen);
  checkb "eviction drops the EPT" true (Engine.shared_ept e = None);
  Alcotest.(check (list string))
    "estimates = a fresh engine" (fresh_values est) (engine_values e);
  checkb "rebuilt" true (engine_ept e != ept)

let pool_values p =
  List.map
    (fun q ->
      match Engine.Pool.estimate p q with
      | Ok r -> Printf.sprintf "%h" r.Engine.Serve.value
      | Error err -> Core.Error.to_string err)
    queries

let pool_status p q =
  match Engine.Pool.estimate p q with
  | Ok r -> r.Engine.Serve.status
  | Error err -> Alcotest.failf "estimate %s: %s" q (Core.Error.to_string err)

let pool_refine p q ~actual =
  match Engine.Pool.feedback p q ~actual with
  | Ok o -> checkb (q ^ " refined") true o.Engine.Feedback.refined
  | Error err -> Alcotest.failf "feedback %s: %s" q (Core.Error.to_string err)

let pool_ept p =
  match Engine.Pool.shared_ept p with
  | Some ept -> ept
  | None -> Alcotest.fail "no shared EPT"

let with_pool est f =
  let p = Engine.Pool.create ~workers:2 est in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown p) (fun () -> f p)

let test_pool_reuse () =
  let est = fresh_estimator () in
  with_pool est @@ fun p ->
  ignore (pool_values p : string list);
  let ept = pool_ept p and epoch = Engine.Pool.epoch p in
  pool_refine p "/r/a[b]/c" ~actual:0;
  checkb "branching-only: EPT physically kept" true (pool_ept p == ept);
  checkb "epoch bumped" true (Engine.Pool.epoch p > epoch);
  checkb "caches dropped: the next estimate misses" true
    (pool_status p "//a" = Core.Explain.Miss);
  Alcotest.(check (list string))
    "branching-only: estimates = a fresh engine" (fresh_values est)
    (pool_values p);
  pool_refine p "/r/a/b" ~actual:40;
  checkb "simple refinement rebuilds the EPT" true (pool_ept p != ept);
  Alcotest.(check (list string))
    "simple: estimates = a fresh engine" (fresh_values est) (pool_values p)

let test_pool_budget_eviction () =
  let est = fresh_estimator ~budget:Core.Het.simple_entry_bytes () in
  with_pool est @@ fun p ->
  pool_refine p "/r/a/b" ~actual:9;
  let ept = pool_ept p in
  let gen = Core.Het.simple_generation (het_of est) in
  pool_refine p "/r/a[b]/c" ~actual:20;
  checkb "a simple entry was evicted" true
    (Core.Het.simple_generation (het_of est) <> gen);
  checkb "eviction rebuilds the EPT" true (pool_ept p != ept);
  Alcotest.(check (list string))
    "estimates = a fresh engine" (fresh_values est) (pool_values p)

(* ------------------------------------------------------------------ *)
(* Registry page-in instruments *)

let temp_dir () =
  let path = Filename.temp_file "xseed_page_in" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_registry_instruments () =
  let dir = temp_dir () in
  let path = Filename.concat dir "paper.syn" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Core.Synopsis.to_string (Core.Synopsis.build Datagen.Paper_example.document)));
  let reg = Engine.Registry.create ~journal_dir:dir ~journal_fsync:`Never () in
  Fun.protect ~finally:(fun () -> Engine.Registry.close reg) @@ fun () ->
  (match Engine.Registry.register reg ~name:"paper" ~path with
   | Ok () -> ()
   | Error e -> Alcotest.failf "register: %s" (Core.Error.to_string e));
  let session = Engine.Registry.session reg in
  let req line =
    Option.value ~default:""
      (Engine.Serve.handle_request ~extra:(Engine.Registry.extra session)
         (Engine.Registry.server session) ~read_line:(fun () -> None) line)
  in
  checks "first page-in" "OK paper loaded" (req "USE paper");
  ignore (req "FEEDBACK //author 99" : string);
  checkb "evicted" true (Engine.Registry.evict reg "paper");
  checks "second page-in replays the journal" "OK paper loaded" (req "USE paper");
  checki "one entry replayed" 1 (Engine.Registry.journal_replayed reg);
  let text = Engine.Registry.metrics_text reg in
  List.iter
    (fun series -> checkb series true (contains text series))
    [ "# TYPE xseed_registry_page_in_us histogram";
      "xseed_registry_page_in_us_count 2";
      "# TYPE xseed_registry_replay_us histogram";
      "xseed_registry_replay_us_count 2" ];
  let field name json =
    match json with
    | Obs.Json.Obj kv -> List.assoc name kv
    | _ -> Alcotest.failf "%s: not an object" name
  in
  let registry = field "registry" (Obs.Json.of_string (req "STATS" |> fun r ->
      String.sub r 3 (String.length r - 3)))
  in
  List.iter
    (fun name ->
      let h = field name registry in
      checkb (name ^ " count") true (field "count" h = Obs.Json.Int 2);
      List.iter
        (fun p ->
          match field p h with
          | Obs.Json.Float x -> checkb (name ^ " " ^ p) true (Float.is_finite x && x >= 0.0)
          | Obs.Json.Int x -> checkb (name ^ " " ^ p) true (x >= 0)
          | _ -> Alcotest.failf "%s %s is not a number" name p)
        [ "p50"; "p90" ])
    [ "page_in_us"; "replay_us" ]

let () =
  Alcotest.run "page_in"
    [ ( "crc32",
        [ Alcotest.test_case "slicing-by-8 = bytewise" `Quick test_crc_slicing;
          Alcotest.test_case "of_hex: exactly 8 hex digits" `Quick test_crc_of_hex;
          Alcotest.test_case "header CRC spelling refused" `Quick
            test_crc_header_spelling ] );
      ( "het reader",
        [ Alcotest.test_case "examples" `Quick test_reader_examples;
          QCheck_alcotest.to_alcotest prop_reader_equivalence;
          QCheck_alcotest.to_alcotest prop_reader_mutations;
          QCheck_alcotest.to_alcotest prop_round_trip ] );
      ( "ept reuse",
        [ Alcotest.test_case "engine" `Quick test_engine_reuse;
          Alcotest.test_case "engine budget eviction" `Quick
            test_engine_budget_eviction;
          Alcotest.test_case "pool" `Quick test_pool_reuse;
          Alcotest.test_case "pool budget eviction" `Quick
            test_pool_budget_eviction ] );
      ( "registry",
        [ Alcotest.test_case "page-in instruments" `Quick
            test_registry_instruments ] ) ]
