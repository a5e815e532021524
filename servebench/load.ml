(* Closed-loop load: each client sends its next frame only after the
   previous reply arrived, over its own [Net.Client] connection. *)

type client = {
  mutable port : int;
  mutable conn : Net.Client.t option;
  spans : Spans.t;  (** used only in traced slices *)
  req_lat : Sample.t array;
      (** ESTIMATE/BATCH round trips, microseconds, per slice of the run *)
  mutable attempted : int;  (** operations: batch slots, ESTIMATE, FEEDBACK, USE *)
  mutable failed : int;
  slice_replies : int array;
      (** estimate replies per slice of the run; a batch slot counts as one *)
  mutable slice : int;  (** the slice of the run the current frame began in *)
  mutable hits : int;
  mutable misses : int;
  mutable failures : string list;  (** first few failure descriptions *)
}

(* The run is cut into one-second slices, an even number of them so a
   traced run alternates traced and untraced slices evenly. *)
let slices ~seconds = max 2 (2 * int_of_float (Float.round (seconds /. 2.0)))

let n_request = Spans.intern "request"
let n_net = Spans.intern "net.request"

let connect port =
  match Net.Client.connect ~port () with
  | Ok c -> Some c
  | Error _ -> None

let create ~id ~port ~slices =
  { port; conn = None;
    spans = Spans.create ~tid:(id + 1) ~track:(Printf.sprintf "client %d" id);
    req_lat = Array.init slices (fun _ -> Sample.create ()); attempted = 0;
    failed = 0; slice_replies = Array.make slices 0; slice = 0; hits = 0;
    misses = 0; failures = [] }

let add_req c us = Sample.add c.req_lat.(c.slice) us

let fail c ~ops msg =
  c.failed <- c.failed + ops;
  if List.length c.failures < 5 then c.failures <- msg :: c.failures

(* One timed round trip, connecting first if needed. [Error] means the
   connection dropped; the client reconnects for its next frame. The span
   pair (request root, net child) is recorded only when [traced]. *)
let round_trip c ~traced ~req payload =
  if Option.is_none c.conn then c.conn <- connect c.port;
  match c.conn with
  | None -> Error (Printf.sprintf "cannot connect to port %d" c.port)
  | Some conn ->
    let root = if traced then Spans.enter c.spans ~name:n_request ~parent:(-1) ~req else -1 in
    let net = if traced then Spans.enter c.spans ~name:n_net ~parent:root ~req else -1 in
    let t0 = Obs.now_mono () in
    let r = Net.Client.request conn payload in
    let dt = Obs.now_mono () -. t0 in
    if traced then begin
      Spans.leave c.spans net;
      Spans.leave c.spans root
    end;
    (match r with
     | Ok reply -> Ok (reply, dt)
     | Error e ->
       Net.Client.close conn;
       c.conn <- None;
       Error (Core.Error.to_string e))

let count_status c = function
  | "hit" -> c.hits <- c.hits + 1
  | _ -> c.misses <- c.misses + 1

(* An estimate reply line "OK <value> <hit|miss>": the value text and the
   cache status. *)
let parse_estimate line =
  match String.split_on_char ' ' line with
  | [ "OK"; v; status ] -> Some (v, status)
  | _ -> None

(* Drive [step] on every client until [seconds] have passed, each client
   in its own thread. With [trace], odd slices of the run are traced and
   even slices are not, so both modes see the same phase of the workload.
   [step c ~traced] returns the estimate replies it produced. Clients are
   threads of one domain: they block in socket reads with the runtime lock
   released, so the load generator takes at most one core from the
   server. The calling thread runs [on_slice i] as slice [i] begins ([i]
   = the slice count at the end). *)
let run ~seconds ~trace ~on_slice clients step =
  let n = slices ~seconds in
  let start = Obs.now_mono () in
  let len = seconds /. float_of_int n in
  let stop = start +. seconds in
  let body c () =
    let rec go () =
      let now = Obs.now_mono () in
      if now < stop then begin
        c.slice <- min (n - 1) (int_of_float ((now -. start) /. len));
        let traced = trace && c.slice mod 2 = 1 in
        let r = step c ~traced in
        c.slice_replies.(c.slice) <- c.slice_replies.(c.slice) + r;
        go ()
      end
    in
    go ()
  in
  on_slice 0;
  let ts = List.map (fun c -> Thread.create (body c) ()) clients in
  for i = 1 to n do
    let wait = start +. (float_of_int i *. len) -. Obs.now_mono () in
    if wait > 0.0 then Thread.delay wait;
    on_slice i
  done;
  List.iter Thread.join ts

let close c =
  Option.iter Net.Client.close c.conn;
  c.conn <- None
