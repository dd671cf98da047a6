(** Domain worker pool with weighted fair admission and cooperative
    cancellation.

    [create] spawns the worker domains up front (sized by
    {!Accum.Parallel.default_workers} when [?workers] is omitted); [submit]
    either enqueues a job or refuses immediately — the queues are the
    admission-control bound, so an overloaded server sheds load instead of
    accumulating latency.  Jobs are plain thunks; their completion is
    observed through the [?on_complete] callback (the server's event loop
    uses it to wake its [select]) followed by {!state}, or by blocking in
    {!await}.

    {b Tenant fairness.}  Each job belongs to a tenant ([submit ?tenant],
    default [""]).  Tenants get their own bounded sub-queues — a flooding
    tenant fills and sheds its {e own} backlog ([`Tenant_overloaded])
    while others keep queuing — and workers dispatch by deficit round
    robin with unit job cost: a ring of backlogged tenants, each visit
    granting [weight] deficit and serving that many jobs before rotating.
    With weights a=2, b=1 and both backlogged, completion order is
    A A B A A B…  A heavy tenant saturates its own share but never
    starves a light one; single-tenant workloads behave exactly like the
    old FIFO queue.

    Every job carries a cancel token ([submit ?cancel] shares one the
    caller already holds, e.g. an {!Interrupt} budget's flag).  Flipping
    it via {!cancel} makes a still-queued job complete immediately as
    [Failed] without occupying a worker; a running job is interrupted at
    its next governor checkpoint, provided its thunk runs under an
    [Interrupt] budget built on the same token — the server arranges
    this, which is how a timed-out worker is {e reclaimed} rather than
    leaked.  {!shutdown} is graceful: no new admissions, optional drain
    of the queued backlog, then joins every worker. *)

type 'a t
type 'a job

type 'a state =
  | Queued
  | Running
  | Done of 'a
  | Failed of string  (** uncaught exception, rendered *)

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?per_tenant_capacity:int ->
  ?on_complete:(unit -> unit) ->
  unit ->
  'a t
(** [queue_capacity] (default 64) bounds total queued jobs across all
    tenants; [per_tenant_capacity] (default = [queue_capacity]) bounds
    each tenant's sub-queue.  [on_complete] (default: nothing) runs on the
    worker domain once per job the worker retires — [Done], [Failed], or
    cancelled before start — after the job's terminal state is set, so
    a {!state} read triggered by it sees the final state.  It must be
    cheap and must not raise.  Jobs dropped by [shutdown ~drain:false]
    are not reported. *)

val submit :
  ?cancel:bool Atomic.t ->
  ?tenant:string ->
  ?weight:int ->
  'a t ->
  (unit -> 'a) ->
  ('a job, [ `Overloaded | `Tenant_overloaded | `Shutdown ]) result
(** [cancel] shares an existing cancel flag with the job (defaults to a
    fresh one).  [tenant] (default [""]) selects the sub-queue; [weight]
    (default 1, floored at 1) is the tenant's DRR quantum — it sticks for
    the sub-queue's current backlogged episode.  [`Overloaded] = global
    bound hit; [`Tenant_overloaded] = this tenant's own bound hit. *)

val state : 'a job -> 'a state

val cancel : 'a job -> unit
(** Flip the job's cancel token.  Queued jobs complete as [Failed
    "cancelled before start"] without running; running jobs stop at
    their next checkpoint if their thunk observes the token. *)

val cancel_token : 'a job -> bool Atomic.t

val await : ?timeout_ms:int -> 'a job -> 'a state
(** Blocks until the job completes or the timeout passes (returns the
    last-seen state — [Queued]/[Running] on timeout).  Without a timeout
    this waits on the job's condvar (no polling); with one it sleeps
    with exponential backoff (1 ms doubling, 50 ms cap) because the
    stdlib has no timed condition wait.  Either way wakeups are counted
    ({!await_wakeups}, `service/await_wakeups`) so tests can assert the
    old 1 ms poll-spin stays dead. *)

val await_wakeups : unit -> int
(** Process-wide count of awaiter wakeups (condvar signals + backoff
    sleep expiries). *)

val queue_depth : 'a t -> int
(** Jobs admitted but not yet picked up by a worker, across all tenants. *)

val tenant_stats : 'a t -> (string * int * int) list
(** Per-tenant [(name, queued, deficit)] for currently backlogged
    tenants, sorted by name.  Drained tenants drop out. *)

val running : 'a t -> int
val workers : 'a t -> int

val shutdown : ?drain:bool -> 'a t -> unit
(** Stops admission and joins the workers.  With [drain] (default [true])
    queued jobs run first; without it they are marked [Failed "pool
    shutdown"] and dropped.  Idempotent. *)
