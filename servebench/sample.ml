(* Growable sample buffers and order statistics. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let d = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 d 0 t.n;
    t.data <- d
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let last t = t.data.(t.n - 1)
let to_array t = Array.sub t.data 0 t.n

let concat ts =
  let out = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add out t.data.(i) done) ts;
  out

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it. NaN when empty. *)
let quantile t p =
  if t.n = 0 then nan
  else begin
    let a = to_array t in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
    a.(max 0 (min (t.n - 1) (rank - 1)))
  end

let median t = quantile t 0.5
