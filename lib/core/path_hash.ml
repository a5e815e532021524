let mask = 0xFFFFFFFF

let empty = 0x811C9DC5 land mask (* FNV offset basis *)

(* FNV-1a style step over small ints; labels are offset so label 0 is
   distinguishable from structural sentinels. *)
let step h v = (h lxor (v land mask)) * 0x01000193 land mask

let extend h label = step h (label + 16)

let of_labels labels = List.fold_left extend empty labels

let open_bracket = 1
let close_bracket = 2
let slash = 3

let rec is_sorted = function
  | a :: (b :: _ as rest) -> a <= b && is_sorted rest
  | _ -> true

(* Callers on the estimate path pass pre-sorted labels; skip the copy. *)
let sorted labels = if is_sorted labels then labels else List.sort Int.compare labels

let branching ~parent ~predicates ~next =
  let h = extend empty parent in
  let h =
    List.fold_left
      (fun h q -> step (extend (step h open_bracket) q) close_bracket)
      h (sorted predicates)
  in
  extend (step h slash) next

(* Canonical textual keys: the un-hashed spelling of what a hash covers, so
   the HET can tell two colliding paths apart. Space-free by construction
   (label ids and '[,]/' only), so they survive the HET's space-separated
   dump format. *)

let key_of_labels labels = String.concat "/" (List.map string_of_int labels)

let branching_key ~parent ~predicates ~next =
  Printf.sprintf "%d[%s]/%d" parent
    (String.concat ","
       (List.map string_of_int (sorted predicates)))
    next
