(** Size-bounded LRU cache for served estimates.

    Hash-indexed and text-verified: an entry's key is a canonical query
    text, indexed under its 32-bit key hash ({!Canonical.hash_of_text}).
    A hash match only selects candidates; a comparison against the stored
    text decides every hit, so colliding texts keep separate entries. The
    value is polymorphic. A lookup refreshes recency; a [put] past capacity
    evicts the least recently used entry. Counters account for every operation —
    [hits + misses = lookups] always — and can be published into an Obs
    context as [engine.cache.*]. *)

type 'v t

val create : capacity:int -> 'v t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'v t -> int
val length : 'v t -> int

val find_hashed : 'v t -> hash:int -> (string -> bool) -> (string * 'v) option
(** [find_hashed t ~hash matches]: the entry indexed under [hash] whose
    stored key text satisfies [matches], as that text and its value.
    Counted: a hit refreshes the entry's recency. The serving path probes
    with {!Canonical.hash} and {!Canonical.matches}, so a hit builds no
    text. *)

val put_hashed : 'v t -> hash:int -> string -> 'v -> unit
(** {!put} with the key text's hash already in hand. [hash] must be the
    text's {!Canonical.hash_of_text} for the string API to find it. *)

val find : 'v t -> string -> 'v option
(** {!find_hashed} on the text's hash, matching it exactly. *)

val mem : 'v t -> string -> bool
(** Uncounted, recency-neutral peek. *)

val put : 'v t -> string -> 'v -> unit
(** Insert (counted, possibly evicting the LRU entry) or refresh the value
    and recency of an existing key (counted as an insertion, never as an
    eviction). *)

val remove : 'v t -> string -> unit
(** Drop one key if present; counted as an invalidation. *)

val clear : 'v t -> unit
(** Drop everything; each dropped entry counts as an invalidation. *)

type counters = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;  (** capacity-forced removals only *)
  invalidations : int;  (** [remove]/[clear] removals *)
}

val counters : 'v t -> counters

val publish_counters : ?obs:Obs.t -> 'v t -> unit
(** Add current totals to [engine.cache.{hits,misses,insertions,evictions,
    invalidations}] counters (and [engine.cache.size] via max). *)
