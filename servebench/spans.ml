(* In-memory span recorder for the traced run. One recorder per thread;
   each span has a name, start/stop on the monotonic clock, the span that
   caused it and the request it belongs to. Spans are exported through
   [Obs.Trace] when the benchmark ends. Every layer span is a leaf, so its
   self time is its duration; a request root's self time is the harness's
   own work between the layer calls. *)

type t = {
  tid : int;
  track : string;
  mutable name : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable n : int;
}

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list = ref [||]

(* Interned on the main domain at set-up, before recorders run. *)
let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    name_list := Array.append !name_list [| s |];
    i

let create ~tid ~track =
  let c = 4096 in
  { tid; track; name = Array.make c 0; parent = Array.make c 0;
    req = Array.make c 0; start = Array.make c 0.0; stop = Array.make c 0.0;
    n = 0 }

let grow t =
  let c = 2 * Array.length t.name in
  let gi a = let b = Array.make c 0 in Array.blit a 0 b 0 t.n; b in
  let gf a = let b = Array.make c 0.0 in Array.blit a 0 b 0 t.n; b in
  t.name <- gi t.name;
  t.parent <- gi t.parent;
  t.req <- gi t.req;
  t.start <- gf t.start;
  t.stop <- gf t.stop

(* Open a span; [parent] is -1 for a request root. Returns its index. *)
let enter t ~name ~parent ~req =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.start.(i) <- Obs.now_mono ();
  t.stop.(i) <- nan;
  t.n <- i + 1;
  i

let leave t i = t.stop.(i) <- Obs.now_mono ()
let duration t i = t.stop.(i) -. t.start.(i)

(* Median self time (microseconds) of the spans called [name]: duration
   minus the durations of its children, which run one after another. *)
let self_us ts name =
  let id = intern name in
  let out = Sample.create () in
  List.iter
    (fun t ->
      let self = Array.init t.n (duration t) in
      for i = 0 to t.n - 1 do
        let p = t.parent.(i) in
        if p >= 0 then self.(p) <- self.(p) -. duration t i
      done;
      for i = 0 to t.n - 1 do
        if t.name.(i) = id then Sample.add out (self.(i) *. 1e6)
      done)
    ts;
  Sample.median out

(* Export every recorder as complete slices, one track per recorder, each
   slice carrying its request id. *)
let write ts path =
  let total = List.fold_left (fun a t -> a + t.n) 0 ts in
  let tr = Obs.Trace.create ~capacity:(max 1 total) () in
  let ids = Array.map (Obs.Trace.intern tr) !name_list in
  let origin =
    List.fold_left
      (fun a t -> if t.n > 0 then Float.min a t.start.(0) else a)
      (Obs.now_mono ()) ts
  in
  List.iter
    (fun t ->
      let buf = Obs.Trace.register ~capacity:(max 1 t.n) tr ~tid:t.tid ~name:t.track in
      for i = 0 to t.n - 1 do
        Obs.Trace.complete_seq buf ~name:ids.(t.name.(i))
          ~ts:(t.start.(i) -. origin) ~dur:(duration t i) ~seq:t.req.(i)
      done)
    ts;
  Obs.Trace.write tr path
