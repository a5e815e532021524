type axis = Child | Descendant

type test = Name of string | Wildcard

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal = Number of float | Text of string

type value_target = Child_text of string | Attribute of string

type value_predicate = { target : value_target; cmp : cmp; literal : literal }

type step = {
  axis : axis;
  test : test;
  predicates : t list;
  value_predicates : value_predicate list;
}

and t = step list

let rec compare_step a b =
  let c = Stdlib.compare a.axis b.axis in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.test b.test in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.value_predicates b.value_predicates in
      if c <> 0 then c else List.compare compare a.predicates b.predicates

and compare a b = List.compare compare_step a b

let equal a b = compare a b = 0

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* The shortest plain decimal (no exponent: the parser reads none) that
   [float_of_string] maps back to [x]. A double's 15-significant-digit
   rounding reads back whenever any spelling of at most 15 digits does
   (DBL_DIG), so the first of 15, 16 or 17 digits that round-trips, with
   trailing zeros stripped, is the shortest. Subnormals hold fewer digits
   and search from one. The digits are then laid out around the decimal
   point. *)
let plain_decimal x =
  if not (Float.is_finite x) then Printf.sprintf "%g" x
  else
    let a = Float.abs x in
    let rec round_trip p =
      let s = Printf.sprintf "%.*e" p a in
      if p >= 16 || float_of_string s = a then s else round_trip (p + 1)
    in
    let s = round_trip (if a < Float.min_float then 0 else 14) in
    let e = String.index s 'e' in
    let exp = int_of_string (String.sub s (e + 1) (String.length s - e - 1)) in
    let digits = String.concat "" (String.split_on_char '.' (String.sub s 0 e)) in
    let rec significant k = if k > 1 && digits.[k - 1] = '0' then significant (k - 1) else k in
    let k = significant (String.length digits) in
    let digits = String.sub digits 0 k in
    let body =
      if exp >= k - 1 then digits ^ String.make (exp - k + 1) '0'
      else if exp >= 0 then
        String.sub digits 0 (exp + 1) ^ "." ^ String.sub digits (exp + 1) (k - exp - 1)
      else "0." ^ String.make (-exp - 1) '0' ^ digits
    in
    if x < 0.0 then "-" ^ body else body

(* The one renderer. [fold_chars f acc path] feeds [f] the bytes of the
   XPath concrete syntax in order without building the text, so the
   canonical cache key can be hashed and compared straight from the AST.
   Explicit recursion rather than [List.fold_left] keeps it closure-free:
   only a non-integer number literal (rendered by [plain_decimal])
   allocates. *)

let rec fold_from f acc s i =
  if i = String.length s then acc
  else fold_from f (f acc (String.unsafe_get s i)) s (i + 1)

let fold_string f acc s = fold_from f acc s 0

let rec fold_digits f acc n =
  let acc = if n >= 10 then fold_digits f acc (n / 10) else acc in
  f acc (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let fold_number f acc x =
  if Float.is_integer x && Float.abs x < 1e15 then
    let n = int_of_float x in
    if n < 0 then fold_digits f (f acc '-') (-n) else fold_digits f acc n
  else fold_string f acc (plain_decimal x)

let fold_test f acc = function
  | Name n -> fold_string f acc n
  | Wildcard -> f acc '*'

let fold_value_predicate f acc { target; cmp; literal } =
  let acc =
    match target with
    | Child_text n -> fold_string f acc n
    | Attribute a -> fold_string f (f acc '@') a
  in
  let acc = fold_string f acc (cmp_to_string cmp) in
  match literal with
  | Number x -> fold_number f acc x
  | Text s -> f (fold_string f (f acc '\'') s) '\''

let rec fold_chars f acc = function
  | [] -> acc
  | { axis; test; predicates; value_predicates } :: rest ->
    let acc =
      match axis with Child -> f acc '/' | Descendant -> f (f acc '/') '/'
    in
    let acc = fold_qualifiers f (fold_test f acc test) predicates value_predicates in
    fold_chars f acc rest

and fold_qualifiers f acc predicates value_predicates =
  match (predicates, value_predicates) with
  | p :: rest, _ ->
    fold_qualifiers f (f (fold_relative f (f acc '[') p) ']') rest value_predicates
  | [], v :: rest ->
    fold_qualifiers f (f (fold_value_predicate f (f acc '[') v) ']') [] rest
  | [], [] -> acc

and fold_relative f acc = function
  | [] -> acc
  | first :: rest ->
    (* Inside a predicate a leading child axis is implicit; a leading
       descendant axis is written [.//], XPath style. *)
    let acc =
      match first.axis with
      | Child -> acc
      | Descendant -> f (f (f acc '.') '/') '/'
    in
    let acc =
      fold_qualifiers f (fold_test f acc first.test) first.predicates
        first.value_predicates
    in
    fold_chars f acc rest

let to_string path =
  let b = Buffer.create 64 in
  fold_chars (fun () c -> Buffer.add_char b c) () path;
  Buffer.contents b

let pp ppf path = Format.pp_print_string ppf (to_string path)

let rec steps path =
  List.fold_left
    (fun acc step -> acc + 1 + List.fold_left (fun a p -> a + steps p) 0 step.predicates)
    0 path

let rec predicate_count path =
  List.fold_left
    (fun acc step ->
      acc
      + List.length step.predicates
      + List.fold_left (fun a p -> a + predicate_count p) 0 step.predicates)
    0 path

let rec value_predicate_count path =
  List.fold_left
    (fun acc step ->
      acc
      + List.length step.value_predicates
      + List.fold_left (fun a p -> a + value_predicate_count p) 0 step.predicates)
    0 path

let has_value_predicates path = value_predicate_count path > 0

let rec strip_value_predicates path =
  List.map
    (fun step ->
      { step with value_predicates = [];
        predicates = List.map strip_value_predicates step.predicates })
    path

let rec max_predicates_per_step path =
  List.fold_left
    (fun acc step ->
      let nested =
        List.fold_left (fun a p -> max a (max_predicates_per_step p)) 0 step.predicates
      in
      max acc (max (List.length step.predicates) nested))
    0 path

let rec has_descendant path =
  List.exists
    (fun step -> step.axis = Descendant || List.exists has_descendant step.predicates)
    path

let rec has_wildcard path =
  List.exists
    (fun step -> step.test = Wildcard || List.exists has_wildcard step.predicates)
    path
