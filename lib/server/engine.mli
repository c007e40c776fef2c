(** The request-serving engine behind [redf serve] and [redf batch].

    One engine owns the process-wide verdict cache ({!Cache.Verdicts},
    sharded — see [shards] below) and a {!Parallel.Pool} of worker
    domains; every front end — the event loop ({!Loop}, over stdio,
    Unix-domain and TCP connections) and an in-process batch — funnels
    through {!handle_lines}, so they all share the cache and return
    identical bytes for identical requests.

    Contracts:
    - {e isolation}: {!handle_lines} never raises — a malformed or
      crashing request yields an error-response line, the process (and
      the other requests of the batch) continue;
    - {e determinism}: responses are in request order and their bytes
      are independent of the batching, the worker count, the shard
      count and cache state (cached answers are remapped to the
      request's task order, see {!Cache.Verdicts});
    - {e framing}: request framing — the line-byte cap, the
      partial-line timeout, and the rule that framing errors never
      swallow the well-formed requests around them — is {!Framing}'s;
      the loop consumes its items through {!plan};
    - {e graceful drain}: after {!request_stop} (or SIGINT/SIGTERM once
      {!install_stop_signals} ran) the loop finishes answering every
      complete request line already received, then returns, so a
      supervisor's TERM never loses an in-flight answer. *)

type t

val create : ?cache_size:int -> ?shards:int -> jobs:int -> unit -> t
(** [cache_size] (default 4096 entries; 0 disables caching) bounds the
    verdict LRU, split over [shards] (default 8) independently locked
    shards so worker domains don't serialize on one cache mutex; [jobs]
    follows the CLI convention (resolved via {!Parallel.resolve_jobs}:
    0 = one worker per core).
    @raise Invalid_argument when [cache_size < 0] or [shards < 1]. *)

val shutdown : t -> unit
(** Join the worker domains.  The engine must not be used afterwards. *)

val with_engine : ?cache_size:int -> ?shards:int -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val cache_stats : t -> Cache.Lru.stats

val request_stop : t -> unit
val stop_requested : t -> bool

val install_stop_signals : t -> unit
(** Route SIGINT and SIGTERM to {!request_stop} and ignore SIGPIPE (a
    vanished client must not kill the server). *)

val handle_lines : t -> string array -> string array
(** Fan a batch out over the pool; one response line (no newline) per
    request line, in request order, and each byte-identical to what a
    batch of that line alone returns.  Internally the batch is
    parsed in parallel, grouped by (analyzer, version, device area) and
    decided through {!Cache.Verdicts.decide_all}, so duplicate tasksets
    in a batch cost one decision and the columnar analyzers amortize
    their per-taskset setup. *)

(** {2 Framing items to responses}

    The loop maps every connection's items through this, so a dropped
    request is answered with byte-identical error lines whether it
    arrived over stdio, a Unix socket or TCP. *)

val too_large_message : string
val timeout_message : string

type step =
  | Eval of string  (** a request line, to be answered by {!handle_lines} *)
  | Emit of string  (** a pre-formed response line (framing error, shed) *)

val plan : Framing.item list -> step list
(** Map framed items to steps, in order: [Line] → [Eval]; [Too_large] /
    [Timed_out] → the matching [Emit] error response (and the matching
    counters).  Order is the response-order contract: an [Emit] for a
    dropped line sits exactly where that line sat in the request
    stream. *)

val client_roundtrip_addr :
  addr:Unix.sockaddr -> string array -> (string array, string) result
(** Connect to a server at [addr] (Unix-domain or TCP; TCP connections
    set [TCP_NODELAY]), pipeline all request lines, half-close the send
    side, and collect the response lines (request order) until the
    server closes.  Writing and reading interleave over a non-blocking
    socket, so arbitrarily large batches cannot deadlock on socket
    buffers or on the server's backpressure.  A connection cut short
    returns the responses that did arrive. *)

val client_roundtrip_retry :
  addr:Unix.sockaddr ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  string array ->
  (string array, string) result
(** {!client_roundtrip_addr} with resume-on-reconnect: responses come
    back one per request in order, so after a lost connection (connect
    refused, or fewer responses than requests) only the unanswered
    {e suffix} is re-sent — up to [retries] times, with exponential
    backoff from [backoff_ms] and deterministic jitter ([seed]).
    Requests already answered are never repeated on the wire; re-sent
    mutations rely on the admission daemon's request-id dedup for
    exactly-once effect. *)

val client_hold :
  addr:Unix.sockaddr ->
  hold:float ->
  string array ->
  (string array * [ `Closed_by_server | `Hold_expired ], string) result
(** {!client_roundtrip_addr}'s pump, except that once [lines] are sent
    the connection stays open and idle (send side deliberately {e not}
    shut down) until the server closes it or [hold] seconds pass — the
    probe for [serve --idle-timeout]. *)
