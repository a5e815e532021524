(** Query canonicalization for the serving engine's estimate cache.

    Two spellings of the same query — predicate order, duplicated
    predicates, whitespace, redundant ['.'] self steps (dropped by the
    parser) — must land on the same cache slot. [canonicalize] maps an AST
    to a normal form (predicates recursively canonicalized, then sorted and
    deduplicated; likewise value predicates). The key is that normal form's
    concrete syntax ({!Xpath.Ast.to_string}) and its hash under the
    incremental scheme the HET uses ({!Core.Path_hash.extend} folded over
    the bytes), so it is cheap to compare and stable across runs.

    The serving hot path never builds the text of a query it has seen:
    {!hash} and {!matches} fold over {!Xpath.Ast.fold_chars}, the renderer
    [to_string] itself uses, so they agree with the text byte for byte. *)

val canonicalize : Xpath.Ast.t -> Xpath.Ast.t
(** Normal form; idempotent and estimate-preserving (predicates are
    conjunctive, so order and multiplicity do not matter). An AST already
    in normal form is returned as is (the same physical value); that check
    allocates nothing. *)

type key = {
  hash : int;  (** 32-bit incremental hash of [text] *)
  text : string;  (** the canonical spelling, [Xpath.Ast.to_string] of the
                      canonical AST; the authoritative cache key *)
}

val of_ast : Xpath.Ast.t -> key
val of_string : string -> (key, Core.Error.t) result
(** Parse then {!of_ast}; a syntax error is [Malformed_query]. *)

val hash_of_text : string -> int
(** The key hash of a canonical text: [(of_ast q).hash = hash_of_text
    (of_ast q).text]. *)

val hash : Xpath.Ast.t -> int
(** [hash cast = hash_of_text (Xpath.Ast.to_string cast)], without
    building the text. For a canonical [cast] it is [(of_ast cast).hash]. *)

val matches : Xpath.Ast.t -> string -> bool
(** [matches cast text] iff [Xpath.Ast.to_string cast = text], without
    building the rendering. This is what decides a cache hit. *)

val equal : key -> key -> bool
(** Text equality — the hash is a fast filter, never the verdict. *)

val pp : Format.formatter -> key -> unit
