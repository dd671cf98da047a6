(** Blocking client for the installed-query service.

    One connection, synchronous by default: {!call} assigns a fresh
    correlation id, sends, and reads until that id's response arrives
    (buffering any out-of-order responses from earlier pipelined sends).
    {!send}/{!recv} expose the pipelined layer directly for load drivers
    and tests.

    {!invoke} optionally retries the transient failure class —
    [overloaded] responses and transport errors (broken socket, receive
    timeout) — with capped exponential backoff and deterministic jitter,
    reconnecting to the remembered endpoint as needed.  When the server
    attaches a [retry_after_ms] hint (quota exhaustion, tenant backlog)
    the client sleeps exactly that long instead of guessing.  The two
    shed classes stay distinct: [overloaded] (queue pressure — retry
    soon) is always transient, while [resource_limit] is transient only
    {e with} a hint (a quota that refills); a governor budget blown
    mid-execution has no hint and is final — replaying it burns the same
    budget for the same outcome.  Timeouts and execution errors are
    never retried. *)

type t

exception Error of string
(** Transport failure: refused/oversized frame, unparsable response, a
    connection closed or reset mid-call, or a receive timeout.  No
    [Unix.Unix_error] escapes {!call}, {!send} or {!recv}. *)

val connect : ?recv_timeout_ms:int -> Server.endpoint -> t
(** Raises [Unix.Unix_error] when nothing listens there.
    [recv_timeout_ms] bounds the wait for each response frame to start
    (raising {!Error}[ "receive timeout"]) — without it a lost response
    frame blocks forever. *)

val connect_any : ?recv_timeout_ms:int -> Server.endpoint list -> t
(** Replica-set client: dials the endpoints in order and connects to the
    first that answers (raising the last [Unix.Unix_error] when all
    refuse).  {!invoke} retries rotate through the ring on transport
    failure and on [read_only]/[not_leader]/[fenced]/[stale] refusals; a
    [not_leader] redirect that names an endpoint not in the ring adds
    it. *)

val endpoint : t -> Server.endpoint
(** The endpoint currently connected (moves on failover). *)

val close : t -> unit

val call : t -> Protocol.request -> Protocol.response

val send : t -> Protocol.request -> int
(** Fire without waiting; returns the assigned correlation id. *)

val recv : t -> int * Protocol.response
(** Next response off the wire (or from the reorder buffer), in arrival
    order. *)

(** {1 Convenience wrappers (raise {!Error} on transport failure only —
    protocol-level errors come back as [Protocol.Error])} *)

val install : t -> string -> Protocol.response

val invoke :
  t -> ?timeout_ms:int -> ?no_cache:bool -> ?tenant:string -> ?retries:int ->
  ?backoff_ms:int -> ?max_backoff_ms:int ->
  query:string -> params:(string * Pgraph.Value.t) list -> unit -> Protocol.response
(** Up to [1 + retries] attempts (default [retries = 0]: exactly the old
    single-shot behavior).  [tenant] stamps the invocation's tenant
    identity (omitted = the connection's anonymous tenant).  Attempt
    [k]'s delay is the server's [retry_after_ms] hint when the response
    carried one (capped at 10 s), otherwise
    [min (backoff_ms * 2^k) max_backoff_ms] scaled by a deterministic
    jitter in [0.5, 1.0) (defaults: 25 ms base, 2 s cap).  After the cap,
    the last transient response is returned (or the last transport
    {!Error} re-raised). *)

val last_attempts : t -> int
(** Attempts consumed by the most recent {!invoke} (1 = no retry). *)

val last_hint_ms : t -> int option
(** The [retry_after_ms] hint on the most recent {!invoke}'s last
    transient response; [None] when the server sent none. *)

val stats : t -> Protocol.response
val ping : t -> Protocol.response

val status : t -> Protocol.response
(** Health check: a [Protocol.Status] with role/epoch/version/lag. *)

val shutdown : t -> Protocol.response
