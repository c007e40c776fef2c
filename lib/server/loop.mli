(** The event loop behind [redf serve] and [redf admit]: one
    [select]-driven thread multiplexing any number of concurrent
    connections over any number of listeners (stdio, Unix-domain and
    TCP), with the request evaluation itself fanned out over the
    engine's worker pool.  It is the only request loop: stdio is one
    more connection kind.

    Shape: each connection carries a read fd and a write fd (the same
    socket, or an inherited stdin/stdout pair), a {!Framing.t} (so the
    byte-cap / timeout / order contracts are per connection), an
    ordered queue of pending steps ({!Engine.step}), and an output
    buffer drained through its write fd.  Each tick, the loop accepts,
    reads whatever is available, frames it, and evaluates the ready
    request lines of {e all} connections as one {!Engine.handle_lines}
    pool batch, stitching the responses back per connection in arrival
    order.

    Determinism contract: per connection, the response stream is
    byte-identical to one in-process {!Engine.handle_lines} batch of
    the same request lines — batching across connections changes
    wall-clock only, never bytes.  ([redf bench serve] checks exactly
    this.)

    Backpressure and load shedding:
    - a connection whose pending-step queue reaches [max_pending], or
      whose unsent output exceeds [max_buffered_bytes], stops being
      read until it drains — per-client flow control that costs the
      other clients nothing;
    - once [max_inflight] request lines are admitted globally, further
      lines are {e shed}: answered immediately (in order) with
      {!Protocol.shed_response} instead of being queued.  Shedding
      keeps the one-response-per-request contract — an overloaded
      server degrades loudly, it does not stall or drop silently.

    Graceful drain: after {!Engine.request_stop}, every request line
    already received is answered and flushed (bounded by a few
    seconds for unresponsive clients), partial lines are dropped, all
    owned fds are closed and socket files removed.  If the service
    raises, it is not called again: the connections are closed
    unanswered, the listeners cleaned up, and the exception re-raised. *)

type limits = {
  max_pending : int;
      (** Per-connection bound on queued steps before the connection
          stops being read (also the per-tick evaluation allowance per
          connection).  Default 1024. *)
  max_inflight : int;
      (** Global bound on admitted-but-unanswered request lines; lines
          beyond it are shed.  Default 4096. *)
  max_buffered_bytes : int;
      (** Per-connection bound on unsent response bytes before the
          connection stops being read.  Default 8 MiB. *)
}

val default_limits : limits

type listener

val unix_listener : path:string -> listener
(** Bind and listen on a Unix-domain socket.  A stale socket file at
    [path] is replaced; any other kind of file is an error.  The socket
    file is removed when {!serve} returns.
    @raise Unix.Unix_error / Failure on bind/listen problems. *)

val tcp_listener : host:string -> port:int -> listener
(** Bind and listen on TCP [host:port].  [host] is a numeric IPv4/IPv6
    address or ["localhost"]; [port = 0] picks an ephemeral port
    (recover it with {!bound_port}).
    @raise Unix.Unix_error / Failure on resolve/bind/listen problems. *)

val stdio_listener : input:Unix.file_descr -> output:Unix.file_descr -> listener
(** Exactly one connection, reading [input] and writing [output] —
    typically [Unix.stdin] / [Unix.stdout].  The fds are inherited from
    (and shared with) the parent, so the loop never makes them
    non-blocking and never closes them. *)

val bound_port : listener -> int
(** The actually bound TCP port (useful after [port = 0]).
    @raise Invalid_argument on a Unix-domain or stdio listener. *)

type service = {
  handle_lines : string array -> string array;
      (** One response per request line, in request order.  Called on
          the loop's own domain; a service wanting parallelism brings
          its own pool (as {!Engine.handle_lines} does). *)
  stop_requested : unit -> bool;
  shed_response : string -> string;
  is_mutation : string -> bool;
      (** Lines for which shedding is deferred to [2 * max_inflight]:
          under overload the admission daemon keeps accepting
          mutations while read-only traffic is shed first. *)
}
(** What the loop needs to know about the thing it serves — the
    analysis engine ([redf serve]) and the admission daemon
    ([redf admit]) both fit. *)

val engine_service : Engine.t -> service

val serve_service :
  service -> ?timeout:float -> ?idle_timeout:float -> ?limits:limits -> listener list -> unit
(** Run the event loop over [listeners] until [stop_requested] (then
    drain), or until no listener can accept and no connection is left
    — so a stdio-only run returns once input EOF is reached and the
    last reply is flushed.  Listeners are cleaned up either way, and
    on exception.  [timeout] (seconds) bounds the wait for the rest of
    a {e partially} received request line, measured from when the
    partial started ({!Framing}); on expiry the partial is dropped and
    an error response emitted.  [idle_timeout] (seconds; default: off)
    closes a connection that stayed completely idle — nothing read,
    queued or unwritten — for longer than the limit (granularity: one
    loop tick, up to 0.5 s).  SIGPIPE is ignored for the process: a client that
    vanishes mid-write costs its connection, never the loop. *)

val serve : Engine.t -> ?timeout:float -> ?idle_timeout:float -> ?limits:limits -> listener list -> unit
(** [serve_service (engine_service engine) …]. *)
