(** The concurrent GSQL service: a single-threaded event loop that speaks
    the length-prefixed protocol over a Unix-domain or TCP socket and runs
    invocations on a {!Pool} of worker domains.

    The loop owns every socket; workers execute query thunks and may
    record {!Obs} metrics and spans freely (the registries are
    domain-safe).  The loop wakes when a socket is readable, when a worker
    retires a job (the pool's [on_complete] writes a self-pipe in the
    select set), at the nearest request deadline, and at least every
    20 ms for replication heartbeats.  A request whose
    deadline passes gets a [timeout] error on the deadline and its job is
    {e cancelled} — the server flips the execution budget's cancel flag
    ({!Interrupt}), the worker unwinds at its next governor checkpoint,
    and the job is tracked in a reclaim list until it does
    ([workers_leaked] in the stats response, 0 when every cancelled
    worker is back in rotation; [service/cancellations] counter and
    [service/reclaim_ms] histogram under tracing).  Client disconnects
    cancel that connection's in-flight jobs the same way.

    Fault injection ({!Faults}, [GSQL_FAULTS]) is wired into the worker
    entry (delay/crash), the outbound frame path (drop-frame) and the
    socket read path (slow-read) — see docs/SERVICE.md.

    Pipelining is allowed: a client may send several requests on one
    connection (up to [max_inflight] concurrent invocations); invocation
    responses come back in completion order, correlated by envelope id.

    Mutating invocations ({!Engine.prepared.pr_mutating}) are routed
    through a {e single-writer lane}: at most one runs at a time, the rest
    wait in a bounded FIFO ([writer_waiting] in stats) while read-only
    invocations keep flowing against the current snapshot.  Frame-level
    protocol errors (oversized length header, undecodable payload) are
    answered with [Bad_request] and close the connection, because the
    stream can no longer be re-synchronized; a bad envelope inside a
    well-formed frame only fails that request.

    {b Multi-tenancy} (docs/SERVICE.md): every invocation belongs to a
    tenant — the frame's [tenant] field, or an anonymous per-connection
    identity.  Admission is weighted-fair ({!Pool}'s deficit round robin
    over per-tenant bounded sub-queues, weights from [tenant_weights]);
    per-tenant token-bucket quotas ([quota_steps]/[quota_rows], {!Tenant})
    gate admission, cap each execution's {!Interrupt} budget, and are
    charged actual consumption when the job retires — exhaustion answers
    [Error (Resource_limit, _, Some retry_after_ms)].  Under saturation
    the degradation order is by cost: cache hits are answered inline and
    spend no quota, so a flooded or exhausted tenant's cheap reads keep
    flowing while its expensive executions shed first.  The stats
    response carries a ["tenants"] object (admitted / ready / shed /
    quota_denials / completed / remaining allowance / live queue depth
    and deficit per tenant). *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : endpoint;
  workers : int option;        (** [None] = {!Accum.Parallel.default_workers} *)
  queue_capacity : int;        (** global admission bound (queued, not running);
                                   also bounds the writer-lane FIFO *)
  per_tenant_queue : int;      (** per-tenant sub-queue bound: a flooding
                                   tenant sheds its own backlog at this depth
                                   while others keep queuing *)
  default_timeout_ms : int;    (** per-request deadline when the client sets none *)
  max_connections : int;
  max_inflight : int;          (** per-connection in-flight invocation cap; the
                                   overflow is refused with [Overloaded] (a
                                   retryable code) so one pipelining client
                                   cannot monopolize the pool *)
  max_frame_bytes : int;       (** inbound frames above this are a protocol
                                   error and close the connection (capped by
                                   {!Protocol.max_frame_bytes}) *)
  tenant_weights : (string * int) list;
                               (** DRR admission weights; unlisted tenants
                                   weigh 1 (floored at 1) *)
  quota_steps : int;           (** per-tenant step tokens per second (burst =
                                   one second's worth); 0 = no step quota *)
  quota_rows : int;            (** per-tenant row tokens per second; 0 = no
                                   row quota *)
  faults : Faults.t;           (** injection knobs; {!Faults.none} in production *)
  replica_of : string option;  (** follow this leader endpoint from boot
                                   ({!Protocol.endpoint_of_string} form):
                                   the node starts as a read replica and
                                   redirects mutations with [not_leader] *)
  sync_replicas : int;         (** follower acks required before a commit is
                                   acknowledged; 0 = asynchronous replication.
                                   A quorum miss (timeout, or no live
                                   followers at all — e.g. a restarted stale
                                   leader) answers [repl_lag]: the commit
                                   stands locally but is not confirmed
                                   replicated *)
  sync_timeout_ms : int;       (** quorum wait bound (default 1000) *)
  max_staleness_ms : int;      (** follower read bound: reads are refused
                                   with [stale] when the leader has not been
                                   heard from within this window; 0 = serve
                                   any age *)
}

val default_config : endpoint -> config
(** workers = cores, queue 64 (16 per tenant), timeout 30s, 64
    connections, 32 in-flight per connection, frames up to
    {!Protocol.max_frame_bytes}, no weights, no quotas, faults from
    [GSQL_FAULTS] (none when unset), no replication (standalone
    leader, async, no staleness bound). *)

type t

val create : config -> Engine.t -> t
(** Binds and listens (unlinking a stale Unix-socket path first).  The
    worker pool starts here, so clients may connect as soon as [create]
    returns even if {!run} starts later.  Raises [Unix.Unix_error] on bind
    failure. *)

val endpoint : t -> endpoint
(** The bound address — for [`Tcp] with port 0, the actual port. *)

val run : t -> unit
(** Blocks in the event loop until {!stop} is called or a [shutdown]
    request arrives, then closes every connection and joins the pool. *)

val stop : t -> unit
(** Thread/signal-safe: flips an atomic flag and wakes the loop, which
    exits at once.  Idempotent, and harmless after {!run} returned. *)
