let compare_value_predicate (a : Xpath.Ast.value_predicate)
    (b : Xpath.Ast.value_predicate) =
  Stdlib.compare a b

let rec strictly_increasing cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && strictly_increasing cmp rest
  | _ -> true

(* Already in normal form: the check walks the AST and allocates nothing,
   so a canonical spelling costs no copy. *)
let rec is_canonical (path : Xpath.Ast.t) = List.for_all canonical_step path

and canonical_step (s : Xpath.Ast.step) =
  strictly_increasing Xpath.Ast.compare s.predicates
  && strictly_increasing compare_value_predicate s.value_predicates
  && List.for_all is_canonical s.predicates

let rec canonicalize (path : Xpath.Ast.t) : Xpath.Ast.t =
  if is_canonical path then path else List.map normalize_step path

and normalize_step (s : Xpath.Ast.step) =
  let predicates =
    List.sort_uniq Xpath.Ast.compare (List.map canonicalize s.predicates)
  in
  let value_predicates =
    List.sort_uniq compare_value_predicate s.value_predicates
  in
  { s with predicates; value_predicates }

type key = { hash : int; text : string }

let extend h c = Core.Path_hash.extend h (Char.code c)
let hash_of_text text = String.fold_left extend Core.Path_hash.empty text
let hash cast = Xpath.Ast.fold_chars extend Core.Path_hash.empty cast

(* [i] is how many bytes of [text] the rendering has matched so far, or -1
   once they diverged. *)
let matches cast text =
  let n = String.length text in
  Xpath.Ast.fold_chars
    (fun i c -> if i >= 0 && i < n && String.unsafe_get text i = c then i + 1 else -1)
    0 cast
  = n

let of_ast ast =
  let text = Xpath.Ast.to_string (canonicalize ast) in
  { hash = hash_of_text text; text }

let of_string query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Core.Error.make ~position Core.Error.Malformed_query message)
  | Ok path -> Ok (of_ast path)

let equal a b = String.equal a.text b.text
let pp ppf k = Format.fprintf ppf "%s#%08x" k.text k.hash
