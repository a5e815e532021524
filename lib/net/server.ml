(* Run-to-completion TCP front end. One select loop per serving domain, all
   sharing the listener; each loop owns the connections it accepted, and
   sockets are non-blocking with per-connection read/write buffers, so a
   slow or hostile client can stall only itself. Request payloads route
   through Serve.handle_request — the same verb table the stdin transport
   uses — so the two transports cannot drift. *)

type config = {
  host : string;
  port : int;
  max_connections : int;
  idle_timeout_s : float option;
  max_frame_bytes : int;
  queue_capacity : int option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    idle_timeout_s = Some 60.0;
    max_frame_bytes = Frame.default_max_payload;
    queue_capacity = None;
  }

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  wbuf : Buffer.t;  (* encoded response frames awaiting the socket *)
  mutable woff : int;  (* bytes of [wbuf] already written *)
  mutable last_activity : float;
  mutable greeted : bool;  (* HELLO accepted; requests allowed *)
  mutable closing : bool;  (* drain [wbuf], then close *)
  mutable close_deadline : float;  (* give up draining after this *)
  server : Engine.Serve.server;
  extra : string -> string -> string option;
}

(* A decoded frame waiting its turn in its loop's round: a request to
   answer, or a framing violation to report before closing. *)
type job =
  | Request of { conn : conn; payload : string; arrived : float; shed : bool }
  | Violation of { conn : conn; reply : string }

(* One serving loop. Everything but the wake pipe's write end is touched
   only by the loop's own domain. *)
type loop = {
  index : int;
  mutable conns : conn list;
  jobs : job Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;  (* any domain writes a byte to interrupt select *)
  mutable arrived : float;  (* the frame being answered *)
  mutable shed : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  config : config;
  stop_flag : bool Atomic.t;
  accepted : int Atomic.t;
  refused : int Atomic.t;
  live : int Atomic.t;  (* open connections across every loop *)
  mutable loops : loop array;
  mutable loads : int Atomic.t array;  (* open connections per loop *)
}

(* How long a closing connection gets to drain its final ERR/response
   bytes before being dropped, and the select granularity (which bounds
   how quickly a missed wake-up is noticed). *)
let drain_grace_s = 2.0
let select_interval_s = 0.05

let err kind fmt =
  Format.kasprintf
    (fun m -> Printf.sprintf "ERR %s %s" (Core.Error.kind_name kind) m)
    fmt

(* A peer that disappears mid-write must surface as EPIPE (handled per
   connection), not kill the process: both endpoints of this transport
   ignore SIGPIPE. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let create config =
  match
    ignore_sigpipe ();
    let addr = Unix.inet_addr_of_string config.host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, config.port));
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with e ->
       Unix.close fd;
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> config.port
    in
    {
      listen_fd = fd;
      bound_port;
      config;
      stop_flag = Atomic.make false;
      accepted = Atomic.make 0;
      refused = Atomic.make 0;
      live = Atomic.make 0;
      loops = [||];
      loads = [||];
    }
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Core.Error.make Core.Error.Io_error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message e)))
  | exception Failure _ ->
    Error
      (Core.Error.make Core.Error.Io_error
         (Printf.sprintf "invalid bind address %S" config.host))

let port t = t.bound_port
let connections_accepted t = Atomic.get t.accepted
let connections_refused t = Atomic.get t.refused
let frame_arrived t ~domain = t.loops.(domain).arrived
let frame_shed t ~domain = t.loops.(domain).shed

let wake l =
  try ignore (Unix.single_write_substring l.wake_w "w" 0 1 : int)
  with Unix.Unix_error _ -> ()  (* pipe full: a wake-up is already pending *)

let stop t =
  Atomic.set t.stop_flag true;
  Array.iter wake t.loops

let drain_wake l =
  let buf = Bytes.create 64 in
  try
    while Unix.read l.wake_r buf 0 64 > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

(* The loop that accepts next: the lowest-indexed of the least loaded. *)
let designated t =
  let best = ref 0 in
  Array.iteri
    (fun i load -> if Atomic.get load < Atomic.get t.loads.(!best) then best := i)
    t.loads;
  !best

(* After this loop's load changed, make sure the loop now in line to
   accept is watching the listener. *)
let rebalance t l =
  let d = designated t in
  if d <> l.index then wake t.loops.(d)

let enqueue conn payload = Frame.encode conn.wbuf payload

let begin_close conn now =
  if not conn.closing then begin
    conn.closing <- true;
    conn.close_deadline <- now +. drain_grace_s
  end

let close_conn t l conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  l.conns <- List.filter (fun c -> c != conn) l.conns;
  Atomic.decr t.loads.(l.index);
  Atomic.decr t.live;
  rebalance t l

(* One request frame -> one response payload. The frame's own lines feed
   BATCH/PROFILE payload pulls; anything left after the request answered is
   a client framing bug and is named rather than silently dropped. *)
let respond ?max_batch conn payload =
  let lines = ref (String.split_on_char '\n' payload) in
  let read_line () =
    match !lines with
    | [] -> None
    | l :: tl ->
      lines := tl;
      Some l
  in
  let rec first_request () =
    match read_line () with
    | None -> None
    | Some l when String.trim l = "" -> first_request ()
    | Some l -> Some l
  in
  match first_request () with
  | None -> err Core.Error.Malformed_query "empty request frame"
  | Some req ->
    let response =
      Engine.Serve.handle_request ?max_batch ~extra:conn.extra conn.server
        ~read_line req
    in
    let leftover =
      List.length (List.filter (fun l -> String.trim l <> "") !lines)
    in
    if leftover > 0 then
      err Core.Error.Malformed_query
        "frame carries %d line(s) after the request (one request per frame)"
        leftover
    else
      (match response with
       | Some r -> r
       | None -> err Core.Error.Internal "request line vanished")

(* Decode every complete frame out of the connection's read buffer into the
   loop's jobs. The handshake is answered at once (nothing can be queued
   ahead of it); framing violations (oversized length field, CRC failure)
   poison the byte stream — there is no resync point — so they are queued
   to answer in order, and decoding stops. *)
let decode_frames t l conn now =
  let continue = ref true in
  while !continue do
    match
      Frame.decode ~max_payload:t.config.max_frame_bytes conn.rbuf ~off:0
        ~len:conn.rlen
    with
    | Frame.Need_more -> continue := false
    | Frame.Too_large n ->
      Queue.push
        (Violation
           { conn;
             reply =
               err Core.Error.Limit_exceeded
                 "frame length %d exceeds limit=%d (server --max-frame)" n
                 t.config.max_frame_bytes })
        l.jobs;
      continue := false
    | Frame.Crc_mismatch ->
      Queue.push
        (Violation
           { conn;
             reply =
               err Core.Error.Malformed_query
                 "frame CRC-32 mismatch; closing connection" })
        l.jobs;
      continue := false
    | Frame.Frame { payload; consumed } ->
      let rest = conn.rlen - consumed in
      Bytes.blit conn.rbuf consumed conn.rbuf 0 rest;
      conn.rlen <- rest;
      if not conn.greeted then
        (match Frame.parse_hello payload with
         | Ok _ ->
           conn.greeted <- true;
           enqueue conn Frame.hello_ok
         | Error msg ->
           enqueue conn msg;
           begin_close conn (Unix.gettimeofday ());
           continue := false)
      else
        let shed =
          match t.config.queue_capacity with
          | Some cap -> Queue.length l.jobs >= cap
          | None -> false
        in
        Queue.push (Request { conn; payload; arrived = now; shed }) l.jobs
  done

let handle_readable t l conn now =
  (* Grow the read buffer as needed; [decode] rejects oversized length
     fields before the payload accumulates, so residency is bounded by
     max_frame_bytes + one read chunk. *)
  let chunk = 65536 in
  if Bytes.length conn.rbuf - conn.rlen < chunk then begin
    let bigger = Bytes.create ((2 * Bytes.length conn.rbuf) + chunk) in
    Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
    conn.rbuf <- bigger
  end;
  match Unix.read conn.fd conn.rbuf conn.rlen chunk with
  | 0 -> close_conn t l conn (* peer EOF *)
  | n ->
    conn.rlen <- conn.rlen + n;
    conn.last_activity <- now;
    decode_frames t l conn (Obs.now_mono ())
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t l conn

(* Answer the round's decoded frames in order, on this domain. *)
let answer_jobs ?max_batch ?on_request l =
  while not (Queue.is_empty l.jobs) do
    match Queue.pop l.jobs with
    | Violation { conn; reply } ->
      if List.memq conn l.conns then begin
        enqueue conn reply;
        begin_close conn (Unix.gettimeofday ())
      end
    | Request { conn; payload; arrived; shed } ->
      if List.memq conn l.conns && not conn.closing then begin
        l.arrived <- arrived;
        l.shed <- shed;
        enqueue conn (respond ?max_batch conn payload);
        match on_request with None -> () | Some f -> f ()
      end
  done

let pending_bytes conn = Buffer.length conn.wbuf - conn.woff

let handle_writable t l conn =
  let n = pending_bytes conn in
  if n > 0 then
    match
      Unix.write_substring conn.fd (Buffer.sub conn.wbuf conn.woff n) 0 n
    with
    | written ->
      conn.woff <- conn.woff + written;
      if conn.woff = Buffer.length conn.wbuf then begin
        Buffer.clear conn.wbuf;
        conn.woff <- 0
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t l conn

(* Refuse at the door: one best-effort ERR frame naming the cap, then
   close. The fd is still blocking here; a peer that will not read a
   100-byte frame forfeits its diagnostic. *)
let refuse t fd =
  Atomic.incr t.refused;
  let payload =
    err Core.Error.Overloaded
      "connection count %d exceeds limit=%d (server --max-conns)"
      (Atomic.get t.live + 1)
      t.config.max_connections
  in
  let framed = Frame.encode_string payload in
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  (try ignore (Unix.write_substring fd framed 0 (String.length framed))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Reserve a slot under the connection cap, which counts every loop. *)
let rec claim t =
  let n = Atomic.get t.live in
  n < t.config.max_connections
  && (Atomic.compare_and_set t.live n (n + 1) || claim t)

(* One connection per wake-up, so the next one is placed after this
   loop's load has grown. *)
let accept_one t l ~make_session now =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _addr ->
    if not (claim t) then refuse t fd
    else begin
      Atomic.incr t.accepted;
      Atomic.incr t.loads.(l.index);
      Unix.set_nonblock fd;
      let server, extra = make_session ~domain:l.index in
      l.conns <-
        {
          fd;
          rbuf = Bytes.create 65536;
          rlen = 0;
          wbuf = Buffer.create 4096;
          woff = 0;
          last_activity = now;
          greeted = false;
          closing = false;
          close_deadline = 0.0;
          server;
          extra;
        }
        :: l.conns;
      rebalance t l
    end
  | exception Unix.Unix_error (_, _, _) -> ()  (* another loop won the race *)

let sweep_timeouts t l now =
  match t.config.idle_timeout_s with
  | None -> ()
  | Some limit ->
    List.iter
      (fun conn ->
        if (not conn.closing) && now -. conn.last_activity > limit then begin
          enqueue conn
            (err Core.Error.Timeout
               "connection idle past limit=%d ms (server --idle-timeout-ms)"
               (int_of_float (limit *. 1000.0)));
          begin_close conn now
        end)
      l.conns

let sweep_closing t l now =
  List.iter
    (fun conn ->
      if conn.closing && (pending_bytes conn = 0 || now > conn.close_deadline)
      then close_conn t l conn)
    l.conns

let serve_loop ?max_batch ?on_request t l ~make_session =
  while not (Atomic.get t.stop_flag) do
    let accepting = designated t = l.index in
    let conn_fds = List.map (fun c -> c.fd) l.conns in
    let reads =
      l.wake_r :: (if accepting then t.listen_fd :: conn_fds else conn_fds)
    in
    let writes =
      List.filter_map
        (fun c -> if pending_bytes c > 0 then Some c.fd else None)
        l.conns
    in
    match Unix.select reads writes [] select_interval_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      let now = Unix.gettimeofday () in
      if List.memq l.wake_r readable then drain_wake l;
      if accepting && List.memq t.listen_fd readable then
        accept_one t l ~make_session now;
      (* Snapshot: handlers mutate [l.conns] as they close peers. *)
      let snapshot = l.conns in
      List.iter
        (fun conn ->
          if List.memq conn.fd writable && List.memq conn l.conns then
            handle_writable t l conn)
        snapshot;
      List.iter
        (fun conn ->
          if
            List.memq conn.fd readable
            && List.memq conn l.conns
            && not conn.closing
          then handle_readable t l conn now)
        snapshot;
      answer_jobs ?max_batch ?on_request l;
      (* Write the round's replies now rather than a select round later. *)
      List.iter (fun conn -> handle_writable t l conn) l.conns;
      sweep_timeouts t l now;
      sweep_closing t l now
  done

(* A stopping loop answers what it already read, then flushes pending
   response bytes (bounded by the drain grace) so a drain still delivers
   queued replies, and closes everything: no leaked fds across restarts. *)
let finish_loop ?max_batch t l =
  (try answer_jobs ?max_batch l with _ -> Queue.clear l.jobs);
  let deadline = Unix.gettimeofday () +. drain_grace_s in
  let rec flush () =
    let pending = List.filter (fun c -> pending_bytes c > 0) l.conns in
    let left = deadline -. Unix.gettimeofday () in
    if pending <> [] && left > 0.0 then begin
      (match Unix.select [] (List.map (fun c -> c.fd) pending) [] left with
       | _, writable, _ ->
         List.iter
           (fun c -> if List.memq c.fd writable then handle_writable t l c)
           pending
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush ()
    end
  in
  (try flush () with _ -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) l.conns;
  l.conns <- []

let run ?(domains = 1) ?on_request ?max_batch t ~make_session () =
  if domains < 1 then
    invalid_arg (Printf.sprintf "Server.run: domains %d < 1" domains);
  t.loads <- Array.init domains (fun _ -> Atomic.make 0);
  t.loops <-
    Array.init domains (fun index ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        { index; conns = []; jobs = Queue.create (); wake_r; wake_w;
          arrived = 0.0; shed = false });
  (* Each loop, on any exit, stops the others before cleaning up its own
     connections, so one failing loop cannot strand the rest. *)
  let loop l () =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.stop_flag true;
        Array.iter (fun o -> if o != l then wake o) t.loops;
        finish_loop ?max_batch t l)
      (fun () -> serve_loop ?max_batch ?on_request t l ~make_session)
  in
  let spawned =
    Array.init (domains - 1) (fun i -> Domain.spawn (loop t.loops.(i + 1)))
  in
  let main = match loop t.loops.(0) () with () -> None | exception e -> Some e in
  let others =
    Array.map
      (fun d -> match Domain.join d with () -> None | exception e -> Some e)
      spawned
  in
  (* Wake pipes close only once no loop can write to them any more: a late
     wake-up must never land in a reused descriptor. *)
  Array.iter
    (fun l ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ l.wake_r; l.wake_w ])
    t.loops;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match main, Array.find_map Fun.id others with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ()
