(* CRC-32 (IEEE 802.3 / zlib polynomial, reflected), slicing-by-8.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table, and entry [n] of table [k] is the CRC of byte
   [n] followed by [k] zero bytes. One step folds eight input bytes with
   eight independent lookups instead of eight dependent ones; the last
   [len mod 8] bytes go through table 0 one at a time. Every intermediate
   value fits in 32 bits, so plain OCaml ints are exact, and the digest is
   bit-identical to the bytewise algorithm. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let[@inline] tbl k n = Array.unsafe_get tables ((k lsl 8) lor n)

let digest s =
  let len = String.length s in
  let crc = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= len do
    let lo = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    crc :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    crc :=
      tbl 0 ((!crc lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let to_hex crc = Printf.sprintf "%08x" crc

(* Exactly eight hex digits: [int_of_string] alone would also take '_'
   separators, which [to_hex] never writes. *)
let of_hex s =
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length s = 8 && String.for_all hex s then
    Some (int_of_string ("0x" ^ s))
  else None
