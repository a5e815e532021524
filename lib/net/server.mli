(** The TCP edge of [xseed serve]: non-blocking accept/select loops
    speaking {!Frame}s, one loop per serving domain (DESIGN.md §14, §16).

    {!run} starts the calling domain's loop plus [domains - 1] spawned ones
    over one listener. A loop owns the connections it accepted and answers
    every frame inline through the generic {!Engine.Serve} layer, so a
    request never changes domain. Each connection gets a fresh session
    from [make_session] (a pool shard binding, or a registry session whose
    [USE] is per-client state). Only the lowest-indexed least-loaded loop
    watches the listener, one accept per wake-up, so k ≤ n clients land on
    k distinct loops.

    {b Failure model} (DESIGN.md §13, §14). An oversized or CRC-failing
    frame is answered with one [ERR] naming the limit ([limit=<n>]) and
    the connection closes; a connection beyond [max_connections] (counted
    across loops) is refused the same way at accept; one idle past
    [idle_timeout_s] gets [ERR timeout] and closes. Partial reads and
    writes never block a loop, and a closing connection that cannot drain
    within a grace period is dropped. Each round decodes every complete
    frame first, stamping its arrival ({!frame_arrived}), then answers
    them in order; with [queue_capacity = Some n], a frame decoded while
    [n] earlier ones of its loop still wait is marked over capacity
    ({!frame_shed}). *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral; read the bound port with {!port} *)
  max_connections : int;
  idle_timeout_s : float option;  (** [None] = never time out *)
  max_frame_bytes : int;  (** per-frame payload cap *)
  queue_capacity : int option;
      (** decoded-but-unstarted frames a loop holds before marking new
          ones over capacity; [None] = no limit *)
}

val default_config : config
(** loopback, port 0, 64 connections, 60 s idle timeout, 1 MiB frames, no
    queue limit. *)

type t

val create : config -> (t, Core.Error.t) result
(** Bind and listen (non-blocking). [Error Io_error] when the address is
    unavailable. *)

val port : t -> int
(** The bound port — the OS's pick when the config said 0. *)

val stop : t -> unit
(** Ask every loop of {!run} to exit after its current round. Domain-safe
    and safe in a signal handler. *)

val run :
  ?domains:int ->
  ?on_request:(unit -> unit) ->
  ?max_batch:int ->
  t ->
  make_session:
    (domain:int -> Engine.Serve.server * (string -> string -> string option)) ->
  unit ->
  unit
(** Serve on [domains] (default 1) loops until {!stop}. Every exit path
    stops all loops, answers the frames each had already read, flushes
    pending response bytes (bounded by a grace period), closes every
    connection and joins the spawned domains before closing the listener,
    so a drain closes connections cleanly rather than leaking them. An
    exception escaping any loop is re-raised here after that cleanup.
    [make_session ~domain] is called once per accepted connection, on the
    accepting loop's domain, and returns the serve vtable plus the
    extra-verb handler ({!Engine.Serve.run}'s [?extra]);
    [on_request]/[max_batch] as in {!Engine.Serve.run}, except that
    [on_request] runs on whichever domain answered the request.
    @raise Invalid_argument when [domains] < 1. *)

val frame_arrived : t -> domain:int -> float
(** The decode instant ({!Obs.now_mono}) of the frame loop [domain] is
    answering; meaningful only on that loop's domain, during the
    request. *)

val frame_shed : t -> domain:int -> bool
(** Whether the frame loop [domain] is answering was decoded over
    [queue_capacity]; same caveats as {!frame_arrived}. *)

val connections_accepted : t -> int
val connections_refused : t -> int
(** Accept-time refusals under the connection cap. *)
