type 'v node = {
  key : string;
  hash : int;
  mutable value : 'v;
  mutable prev : 'v node option;  (* toward the MRU end *)
  mutable next : 'v node option;  (* toward the LRU end *)
  mutable same_hash : 'v node option;  (* next entry indexed under [hash] *)
}

(* The hash is already mixed; index by it directly. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type 'v t = {
  cap : int;
  table : 'v node Index.t;  (* hash -> first entry of its chain *)
  mutable size : int;
  mutable head : 'v node option;  (* most recently used *)
  mutable tail : 'v node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Lru_cache.create: capacity %d < 1" capacity);
  { cap = capacity;
    table = Index.create (min capacity 64);
    size = 0;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0 }

let capacity t = t.cap
let length t = t.size

(* The entry under [hash] whose key text satisfies [matches]. *)
let rec scan matches node =
  if matches node.key then Some node
  else match node.same_hash with Some n -> scan matches n | None -> None

let lookup t ~hash matches =
  match Index.find t.table hash with
  | head -> scan matches head
  | exception Not_found -> None

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find_hashed t ~hash matches =
  match lookup t ~hash matches with
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some (node.key, node.value)
  | None ->
    t.misses <- t.misses + 1;
    None

let unindex t node =
  let head = Index.find t.table node.hash in
  if head == node then
    match node.same_hash with
    | Some n -> Index.replace t.table node.hash n
    | None -> Index.remove t.table node.hash
  else begin
    let rec cut prev =
      match prev.same_hash with
      | Some n when n == node -> prev.same_hash <- node.same_hash
      | Some n -> cut n
      | None -> ()
    in
    cut head
  end;
  node.same_hash <- None

let drop ?(counter = `Invalidation) t node =
  unlink t node;
  unindex t node;
  t.size <- t.size - 1;
  match counter with
  | `Eviction -> t.evictions <- t.evictions + 1
  | `Invalidation -> t.invalidations <- t.invalidations + 1

let put_hashed t ~hash key value =
  (match lookup t ~hash (String.equal key) with
   | Some node ->
     node.value <- value;
     unlink t node;
     push_front t node
   | None ->
     if t.size >= t.cap then Option.iter (drop ~counter:`Eviction t) t.tail;
     let same_hash = Index.find_opt t.table hash in
     let node = { key; hash; value; prev = None; next = None; same_hash } in
     Index.replace t.table hash node;
     t.size <- t.size + 1;
     push_front t node);
  t.insertions <- t.insertions + 1

(* The string API: the same table, probed with the key text's hash. *)
let hash_of = Canonical.hash_of_text

let find t key =
  Option.map snd (find_hashed t ~hash:(hash_of key) (String.equal key))

let mem t key = Option.is_some (lookup t ~hash:(hash_of key) (String.equal key))
let put t key value = put_hashed t ~hash:(hash_of key) key value

let remove t key =
  match lookup t ~hash:(hash_of key) (String.equal key) with
  | Some node -> drop t node
  | None -> ()

let clear t =
  t.invalidations <- t.invalidations + t.size;
  Index.reset t.table;
  t.size <- 0;
  t.head <- None;
  t.tail <- None

type counters = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  invalidations : int;
}

let counters (t : _ t) =
  { hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    invalidations = t.invalidations }

let publish_counters ?obs (t : _ t) =
  Obs.add_to ?obs "engine.cache.hits" t.hits;
  Obs.add_to ?obs "engine.cache.misses" t.misses;
  Obs.add_to ?obs "engine.cache.insertions" t.insertions;
  Obs.add_to ?obs "engine.cache.evictions" t.evictions;
  Obs.add_to ?obs "engine.cache.invalidations" t.invalidations;
  Obs.max_to ?obs "engine.cache.size" (length t)
