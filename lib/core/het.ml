type simple_entry = {
  card : int;
  sbsel : float option;
  serror : float;
  spath : string option;  (* canonical path key; None on legacy v1 entries *)
}

type branching_entry = { bbsel : float; berror : float; bpath : string option }

type counters = {
  simple_lookups : int;
  simple_hits : int;
  branching_lookups : int;
  branching_hits : int;
  feedback_inserts : int;
  collisions : int;
}

(* Each 32-bit hash maps to a bucket of entries discriminated by their
   canonical path, so two colliding paths coexist instead of the later
   insert silently overwriting the earlier one. Buckets are almost always
   singletons; collisions only show up on 32-bit hash clashes.

   While [budget = None] every entry is active, and the [*_active] fields
   are the very same tables as [*_all], so an insert lands once.
   [set_budget] gives the active sets tables of their own;
   [unlimited_budget] shares them again. *)
type t = {
  simple_all : (int, simple_entry list) Hashtbl.t;
  branching_all : (int, branching_entry list) Hashtbl.t;
  mutable simple_active : (int, simple_entry list) Hashtbl.t;
  mutable branching_active : (int, branching_entry list) Hashtbl.t;
  mutable budget : int option;  (* None = unlimited *)
  mutable simple_generation : int;
      (* bumped whenever the active simple set may have changed *)
  (* Usage counters (monotonic over the table's lifetime; snapshot and diff
     for per-query numbers). Plain field bumps keep lookups cheap. *)
  mutable n_simple_lookups : int;
  mutable n_simple_hits : int;
  mutable n_branching_lookups : int;
  mutable n_branching_hits : int;
  mutable n_feedback_inserts : int;
  mutable n_collisions : int;
}

let simple_entry_bytes = 16
let branching_entry_bytes = 8

let create () =
  let simple_all = Hashtbl.create 256 and branching_all = Hashtbl.create 256 in
  { simple_all; branching_all; simple_active = simple_all;
    branching_active = branching_all; budget = None; simple_generation = 0;
    n_simple_lookups = 0; n_simple_hits = 0; n_branching_lookups = 0;
    n_branching_hits = 0; n_feedback_inserts = 0; n_collisions = 0 }

let simple_generation t = t.simple_generation
let bump t = t.simple_generation <- t.simple_generation + 1

let counters t =
  { simple_lookups = t.n_simple_lookups; simple_hits = t.n_simple_hits;
    branching_lookups = t.n_branching_lookups;
    branching_hits = t.n_branching_hits;
    feedback_inserts = t.n_feedback_inserts; collisions = t.n_collisions }

let diff_counters ~before ~after =
  { simple_lookups = after.simple_lookups - before.simple_lookups;
    simple_hits = after.simple_hits - before.simple_hits;
    branching_lookups = after.branching_lookups - before.branching_lookups;
    branching_hits = after.branching_hits - before.branching_hits;
    feedback_inserts = after.feedback_inserts - before.feedback_inserts;
    collisions = after.collisions - before.collisions }

let publish_counters ?obs t =
  Obs.add_to ?obs "het.simple_lookups" t.n_simple_lookups;
  Obs.add_to ?obs "het.simple_hits" t.n_simple_hits;
  Obs.add_to ?obs "het.branching_lookups" t.n_branching_lookups;
  Obs.add_to ?obs "het.branching_hits" t.n_branching_hits;
  Obs.add_to ?obs "het.feedback_inserts" t.n_feedback_inserts;
  Obs.add_to ?obs "het.collisions" t.n_collisions

(* Bucket operations. Replacement matches on the canonical path, so the
   final table state does not depend on insertion order: inserting paths A
   then B under one hash leaves the same two bindings as B then A. *)

(* A new hash, the common case, skips the filter and its closure. *)
let bucket_put tbl hash path entry ~path_of =
  match Hashtbl.find_opt tbl hash with
  | None -> Hashtbl.add tbl hash [ entry ]
  | Some bucket ->
    Hashtbl.replace tbl hash
      (entry :: List.filter (fun e -> path_of e <> path) bucket)

let bucket_remove tbl hash path ~path_of =
  match Hashtbl.find_opt tbl hash with
  | None -> ()
  | Some bucket ->
    (match List.filter (fun e -> path_of e <> path) bucket with
     | [] -> Hashtbl.remove tbl hash
     | rest -> Hashtbl.replace tbl hash rest)

(* Resolve a lookup against a bucket. A caller-supplied path only accepts
   its own entry or a legacy path-less one; a pathless lookup prefers the
   deterministically smallest path so the answer is insertion-order
   independent even under collision. *)
let bucket_find t bucket path ~path_of =
  let ambiguous = match bucket with _ :: _ :: _ -> true | _ -> false in
  let found =
    match path with
    | Some _ ->
      (match List.find_opt (fun e -> path_of e = path) bucket with
       | Some _ as hit -> hit
       | None ->
         (match List.find_opt (fun e -> path_of e = None) bucket with
          | Some _ as legacy -> legacy
          | None ->
            (* Only mismatching paths under this hash: a detected
               collision, not a hit. *)
            t.n_collisions <- t.n_collisions + 1;
            None))
    | None ->
      (match bucket with
       | [ e ] -> Some e
       | [] -> None
       | es ->
         Some
           (List.fold_left
              (fun best e -> if path_of e < path_of best then e else best)
              (List.hd es) (List.tl es)))
  in
  if ambiguous && found <> None then t.n_collisions <- t.n_collisions + 1;
  found

let spath e = e.spath
let bpath e = e.bpath

(* Unbudgeted, the shared table makes the entry active too. *)
let add_simple ?path t ~hash ~card ~bsel ~error =
  let e = { card; sbsel = bsel; serror = error; spath = path } in
  bucket_put t.simple_all hash path e ~path_of:spath;
  if Option.is_none t.budget then bump t

let add_branching ?path t ~hash ~bsel ~error =
  let e = { bbsel = bsel; berror = error; bpath = path } in
  bucket_put t.branching_all hash path e ~path_of:bpath

(* All entries, largest error first; simple before branching on ties since a
   simple-path miss also poisons every estimate passing through it. *)
let ranked t =
  let items = ref [] in
  Hashtbl.iter
    (fun h es ->
      List.iter (fun e -> items := (e.serror, 0, `Simple (h, e)) :: !items) es)
    t.simple_all;
  Hashtbl.iter
    (fun h es ->
      List.iter (fun e -> items := (e.berror, 1, `Branching (h, e)) :: !items) es)
    t.branching_all;
  List.sort
    (fun (e1, k1, _) (e2, k2, _) ->
      let c = Float.compare e2 e1 in
      if c <> 0 then c else Int.compare k1 k2)
    !items

let set_budget t ~bytes =
  t.budget <- Some bytes;
  bump t;
  t.simple_active <- Hashtbl.create 256;
  t.branching_active <- Hashtbl.create 256;
  let remaining = ref bytes in
  List.iter
    (fun (_, _, entry) ->
      match entry with
      | `Simple (h, e) ->
        if !remaining >= simple_entry_bytes then begin
          remaining := !remaining - simple_entry_bytes;
          bucket_put t.simple_active h e.spath e ~path_of:spath
        end
      | `Branching (h, e) ->
        if !remaining >= branching_entry_bytes then begin
          remaining := !remaining - branching_entry_bytes;
          bucket_put t.branching_active h e.bpath e ~path_of:bpath
        end)
    (ranked t)

let unlimited_budget t =
  t.budget <- None;
  bump t;
  t.simple_active <- t.simple_all;
  t.branching_active <- t.branching_all

let lookup_simple t ?path hash =
  t.n_simple_lookups <- t.n_simple_lookups + 1;
  match Hashtbl.find_opt t.simple_active hash with
  | None -> None
  | Some bucket ->
    (match bucket_find t bucket path ~path_of:spath with
     | Some e ->
       t.n_simple_hits <- t.n_simple_hits + 1;
       Some (e.card, e.sbsel)
     | None -> None)

(* The matcher probes this at every matching spine node, and almost every
   probe misses: the pattern's key text is only built once its hash has a
   bucket to resolve. *)
let lookup_branching t ~parent ~predicates ~next =
  t.n_branching_lookups <- t.n_branching_lookups + 1;
  match
    Hashtbl.find_opt t.branching_active
      (Path_hash.branching ~parent ~predicates ~next)
  with
  | None -> None
  | Some bucket ->
    let path = Some (Path_hash.branching_key ~parent ~predicates ~next) in
    (match bucket_find t bucket path ~path_of:bpath with
     | Some e ->
       t.n_branching_hits <- t.n_branching_hits + 1;
       Some e.bbsel
     | None -> None)

let active_entries tbl =
  Hashtbl.fold (fun _ es acc -> acc + List.length es) tbl 0

let size_in_bytes t =
  (simple_entry_bytes * active_entries t.simple_active)
  + (branching_entry_bytes * active_entries t.branching_active)

(* Shrink the active set back under [bytes] by dropping smallest-error
   entries, never touching [keep] (the entry whose insertion triggered the
   shrink — feedback always keeps its own observation). *)
let evict_to_fit t ~bytes ~keep =
  let rec evict () =
    if size_in_bytes t > bytes then begin
      let worst =
        ref
          (None
            : ([ `S of int * string option | `B of int * string option ]
              * float)
              option)
      in
      Hashtbl.iter
        (fun h es ->
          List.iter
            (fun e ->
              match !worst with
              | Some (_, we) when we <= e.serror -> ()
              | _ -> worst := Some (`S (h, e.spath), e.serror))
            es)
        t.simple_active;
      Hashtbl.iter
        (fun h es ->
          List.iter
            (fun e ->
              match !worst with
              | Some (_, we) when we <= e.berror -> ()
              | _ -> worst := Some (`B (h, e.bpath), e.berror))
            es)
        t.branching_active;
      match !worst with
      | None -> ()
      | Some (victim, _) when victim = keep ->
        ()  (* the new entry itself is the least useful: keep it *)
      | Some (`S (h, p), _) ->
        bucket_remove t.simple_active h p ~path_of:spath;
        bump t;
        evict ()
      | Some (`B (h, p), _) ->
        bucket_remove t.branching_active h p ~path_of:bpath;
        evict ()
    end
  in
  evict ()

let record_branching_feedback ?path t ~hash ~bsel ~error =
  t.n_feedback_inserts <- t.n_feedback_inserts + 1;
  let e = { bbsel = bsel; berror = error; bpath = path } in
  bucket_put t.branching_all hash path e ~path_of:bpath;
  if t.branching_active != t.branching_all then
    bucket_put t.branching_active hash path e ~path_of:bpath;
  match t.budget with
  | None -> ()
  | Some bytes -> evict_to_fit t ~bytes ~keep:(`B (hash, path))

let record_feedback t ~hash ?path ~card ?bsel ~error () =
  t.n_feedback_inserts <- t.n_feedback_inserts + 1;
  let e = { card; sbsel = bsel; serror = error; spath = path } in
  bucket_put t.simple_all hash path e ~path_of:spath;
  if t.simple_active != t.simple_all then
    bucket_put t.simple_active hash path e ~path_of:spath;
  bump t;
  match t.budget with
  | None -> ()
  | Some bytes -> evict_to_fit t ~bytes ~keep:(`S (hash, path))

let active_count t =
  active_entries t.simple_active + active_entries t.branching_active

let total_count t =
  active_entries t.simple_all + active_entries t.branching_all

(* v2 dump lines append the canonical path ("-" when absent). The v1 reader
   path below still accepts the shorter legacy lines, so pre-existing
   synopsis files load unchanged (their entries just carry no path). *)
let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "xseed-het v2\n";
  (match t.budget with
   | Some b -> Buffer.add_string buf (Printf.sprintf "budget %d\n" b)
   | None -> ());
  let path_str = function None -> "-" | Some p -> p in
  let simples =
    Hashtbl.fold
      (fun h es acc -> List.fold_left (fun acc e -> (h, e) :: acc) acc es)
      t.simple_all []
    |> List.sort (fun (a, ea) (b, eb) ->
           let c = Int.compare a b in
           if c <> 0 then c else Stdlib.compare ea.spath eb.spath)
  in
  List.iter
    (fun (h, e) ->
      Buffer.add_string buf
        (Printf.sprintf "simple %d %d %s %h %s\n" h e.card
           (match e.sbsel with None -> "-" | Some b -> Printf.sprintf "%h" b)
           e.serror (path_str e.spath)))
    simples;
  let branches =
    Hashtbl.fold
      (fun h es acc -> List.fold_left (fun acc e -> (h, e) :: acc) acc es)
      t.branching_all []
    |> List.sort (fun (a, ea) (b, eb) ->
           let c = Int.compare a b in
           if c <> 0 then c else Stdlib.compare ea.bpath eb.bpath)
  in
  List.iter
    (fun (h, e) ->
      Buffer.add_string buf
        (Printf.sprintf "branching %d %h %h %s\n" h e.bbsel e.berror
           (path_str e.bpath)))
    branches;
  Buffer.contents buf

(* The reader: one pass over the text by index. A line is trimmed and
   split on single spaces exactly as [String.trim] and
   [String.split_on_char ' '] would, but fields stay offsets into the
   text; only a retained path is copied out. *)

type line = {
  text : string;
  mutable no : int;  (* 0-based line index *)
  mutable first : int;  (* trimmed bounds *)
  mutable last : int;
  mutable fields : int;
  starts : int array;
  stops : int array;
}

let max_fields = 6

let malformed l =
  Error.raisef ~position:(l.no + 1) ~section:"het" Error.Corrupt_synopsis
    "bad HET line: %s"
    (String.sub l.text l.first (l.last - l.first))

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let add_field l a b =
  if l.fields < max_fields then begin
    l.starts.(l.fields) <- a;
    l.stops.(l.fields) <- b
  end;
  l.fields <- l.fields + 1

(* Trim [a, b) and split what is left on ' '. *)
let trim_split l a b =
  let s = l.text in
  let a = ref a and b = ref b in
  while !a < !b && is_space (String.unsafe_get s !a) do incr a done;
  while !b > !a && is_space (String.unsafe_get s (!b - 1)) do decr b done;
  l.first <- !a;
  l.last <- !b;
  l.fields <- 0;
  if !a < !b then begin
    let start = ref !a in
    for k = !a to !b - 1 do
      if String.unsafe_get s k = ' ' then begin
        add_field l !start k;
        start := k + 1
      end
    done;
    add_field l !start !b
  end

(* Split the line that starts at [pos] into [l]'s fields and return its
   end (its '\n', or the end of the text): one scan, plus a second one
   only for a line with blanks to trim. *)
let split l pos =
  let s = l.text in
  let n = String.length s in
  l.fields <- 0;
  let start = ref pos and k = ref pos in
  while !k < n && String.unsafe_get s !k <> '\n' do
    if String.unsafe_get s !k = ' ' then begin
      add_field l !start !k;
      start := !k + 1
    end;
    incr k
  done;
  let eol = !k in
  if eol > pos
     && (is_space (String.unsafe_get s pos)
        || is_space (String.unsafe_get s (eol - 1)))
  then trim_split l pos eol
  else begin
    l.first <- pos;
    l.last <- eol;
    if eol > pos then add_field l !start eol
  end;
  eol

let field_is l i word =
  let a = l.starts.(i) and n = String.length word in
  l.stops.(i) - a = n
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get l.text (a + !k) = String.unsafe_get word !k do
    incr k
  done;
  !k = n

let int_slow l a b =
  match int_of_string_opt (String.sub l.text a (b - a)) with
  | Some v -> v
  | None -> malformed l

(* Fast path: an optional '-' and 1 to 18 decimal digits, which always fit
   in an OCaml int. Any other spelling [int_of_string] accepts (sign '+',
   base prefixes, '_', longer runs) takes the slow path. *)
let int_field l i =
  let s = l.text and a = l.starts.(i) and b = l.stops.(i) in
  let d = if a < b && String.unsafe_get s a = '-' then a + 1 else a in
  let v = ref 0 and k = ref d in
  while
    !k < b && !k - d < 18
    && match String.unsafe_get s !k with '0' .. '9' -> true | _ -> false
  do
    v := (10 * !v) + Char.code (String.unsafe_get s !k) - Char.code '0';
    incr k
  done;
  if !k = b && b > d then if d > a then - !v else !v else int_slow l a b

let float_slow l a b =
  match float_of_string_opt (String.sub l.text a (b - a)) with
  | Some x -> x
  | None -> malformed l

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> -1

(* Fast path for the spellings [%h] writes for a finite float:
   [-?0x1(.h{1,13})?p[+-]d+] with a normal exponent, and [0x0...] for
   zero and subnormals. The value is the mantissa (at most 53 bits, so
   exact as a float) scaled by [ldexp], which is exact in that range and
   equals what [float_of_string] returns. Anything else takes the slow
   path. *)
let float_field l i =
  let s = l.text and a = l.starts.(i) and b = l.stops.(i) in
  let neg = a < b && String.unsafe_get s a = '-' in
  let p = if neg then a + 1 else a in
  if
    p + 6 <= b
    && String.unsafe_get s p = '0'
    && String.unsafe_get s (p + 1) = 'x'
    && (String.unsafe_get s (p + 2) = '0' || String.unsafe_get s (p + 2) = '1')
  then begin
    let lead = Char.code (String.unsafe_get s (p + 2)) - Char.code '0' in
    let m = ref lead and k = ref (p + 3) and digits = ref 0 in
    if String.unsafe_get s !k = '.' then begin
      incr k;
      while !k < b && !digits < 13 && hex_digit (String.unsafe_get s !k) >= 0 do
        m := (!m lsl 4) lor hex_digit (String.unsafe_get s !k);
        incr digits;
        incr k
      done
    end;
    let m = !m lsl (4 * (13 - !digits)) in
    let frac_ok = !digits > 0 || !k = p + 3 in
    if frac_ok && !k + 2 < b && String.unsafe_get s !k = 'p' then begin
      let esign = String.unsafe_get s (!k + 1) in
      let e = ref 0 and j = ref (!k + 2) in
      while
        !j < b && !j - !k < 6
        && match String.unsafe_get s !j with '0' .. '9' -> true | _ -> false
      do
        e := (10 * !e) + Char.code (String.unsafe_get s !j) - Char.code '0';
        incr j
      done;
      let e = if esign = '-' then - !e else !e in
      let exact =
        !j = b
        && (esign = '+' || esign = '-')
        && if lead = 1 then e >= -1022 && e <= 1023 else m = 0 || e = -1022
      in
      if exact then
        let x = Float.ldexp (float_of_int m) (e - 52) in
        if neg then -.x else x
      else float_slow l a b
    end
    else float_slow l a b
  end
  else float_slow l a b

(* Non-finite statistics are rejected outright: a NaN selectivity would
   silently poison every estimate that touches the entry. *)
let finite_field l i =
  let x = float_field l i in
  if Float.is_finite x then x else malformed l

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let path_field l i =
  if i >= l.fields || field_is l i "-" then None
  else Some (String.sub l.text l.starts.(i) (l.stops.(i) - l.starts.(i)))

let read_line t budget l =
  if l.fields = 0 then ()
  else if field_is l 0 "simple" && (l.fields = 5 || l.fields = 6) then begin
    let hash = int_field l 1 and card = int_field l 2 in
    let error = finite_field l 4 in
    let bsel =
      if field_is l 3 "-" then None else Some (clamp01 (finite_field l 3))
    in
    add_simple t ~hash ?path:(path_field l 5) ~card:(max 0 card) ~bsel ~error
  end
  else if field_is l 0 "branching" && (l.fields = 4 || l.fields = 5) then begin
    let hash = int_field l 1 in
    let bsel = clamp01 (finite_field l 2) and error = finite_field l 3 in
    add_branching t ~hash ?path:(path_field l 4) ~bsel ~error
  end
  else if field_is l 0 "budget" && l.fields = 2 then budget := Some (int_field l 1)
  else if
    l.no = 0 && l.fields = 2
    && field_is l 0 "xseed-het"
    && (field_is l 1 "v1" || field_is l 1 "v2")
  then ()
  else malformed l

let of_string_result s =
  Error.guard (fun () ->
      let t = create () and budget = ref None in
      let l =
        { text = s; no = 0; first = 0; last = 0; fields = 0;
          starts = Array.make max_fields 0; stops = Array.make max_fields 0 }
      in
      let pos = ref 0 in
      while !pos <= String.length s do
        let eol = split l !pos in
        read_line t budget l;
        l.no <- l.no + 1;
        pos := eol + 1
      done;
      (match !budget with Some b -> set_budget t ~bytes:b | None -> ());
      t)

let of_string s =
  match of_string_result s with
  | Ok t -> t
  | Error e -> invalid_arg ("Het.of_string: " ^ Error.message e)

let pp ppf t =
  Format.fprintf ppf "HET: %d entries (%d active, %d bytes)" (total_count t)
    (active_count t) (size_in_bytes t)
