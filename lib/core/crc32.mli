(** CRC-32 checksums (IEEE 802.3 polynomial, the zlib/PNG variant) for
    synopsis file integrity. Dependency-free; the 32-bit value is returned
    as a non-negative [int]. *)

val digest : string -> int
(** Checksum of the whole string, in [0, 0xFFFFFFFF]. *)

val to_hex : int -> string
(** Fixed-width lowercase hex (8 digits), the on-disk spelling. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits (no sign,
    base prefix or ['_'] separator). *)
