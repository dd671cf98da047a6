(** The service engine: a prepared-query catalog bound to a graph, with a
    result cache in front of execution.

    Mirrors the paper system's install-then-call workflow at service
    granularity: {!install} parses and typechecks once ({!Gsql.Catalog}),
    after which {!prepare_invoke} resolves a named invocation into either a
    cached result or a self-contained thunk the worker pool can run — the
    thunk captures the query AST, parameters and graph version at dispatch
    time, so it never touches the catalog from a worker domain.

    Catalog entry points ([install]/[drop]/[reload]) must be called from a
    single coordinating thread (the server's event loop); the cache and the
    request counters are internally locked, and invoke thunks are safe to
    run on any number of worker domains.  Queries classified {e mutating}
    at install time ({!Gsql.Analyze.info.mutating}) run under MVCC-lite
    write isolation: the thunk snapshots the published graph, evaluates
    against the private clone under the engine's single-writer mutex,
    durably logs the batch (when a {!Store.Persist.t} is attached), then
    atomically publishes the new version — concurrent readers keep the old
    snapshot and never block or tear (docs/DURABILITY.md). *)

type t

val create :
  ?cache_capacity:int ->
  ?semantics:Pathsem.Semantics.t ->
  ?limits:Interrupt.limits ->
  ?persist:Store.Persist.t ->
  ?version:int ->
  graph:Pgraph.Graph.t -> unit -> t
(** [limits] are the governor defaults for every execution (default
    {!Interrupt.no_limits}): [l_timeout_ms] is the deadline when the
    invoke carries none, [l_max_steps]/[l_max_rows] always apply.
    [persist] attaches a durability layer: every commit is WAL-logged
    before publication.  [version] seeds the graph version — pass the recovered
    {!Store.Persist.recovery.r_version} so post-restart commits
    continue the on-disk sequence. *)

val graph : t -> Pgraph.Graph.t
val graph_version : t -> int

val published : t -> Pgraph.Graph.t * int
(** The published graph and its version as one consistent read (a
    concurrent commit cannot tear the pair). *)

val read_only : t -> string option
(** [Some reason] once a WAL I/O failure has degraded the engine: mutating
    invocations are refused with [Error (Read_only, _)]; reads still flow. *)

val persistent : t -> bool

val persist_dir : t -> string option
(** The attached durability layer's data directory, when persistent. *)

(** {1 Replication hooks}

    The engine stays below {!Repl} in the module graph: replication
    drives it through a role, a publisher callback, and two apply
    entry points (docs/DURABILITY.md). *)

type role = [ `Leader | `Follower of string | `Fenced of int ]
(** [`Leader] accepts writes; [`Follower addr] refuses them with
    [Error (Not_leader, _, leader_hint addr)]; [`Fenced e] refuses them
    with [Error (Fenced, _)] — this node observed epoch [e] above its own
    and stood down. *)

val role : t -> role
val set_role : t -> role -> unit

val set_publisher :
  t -> (Store.Codec.batch -> [ `Acked | `Lagging of string ]) option -> unit
(** Called under the write lock after each committed batch is published
    locally.  [`Lagging msg] downgrades the client's answer to
    [Error (Repl_lag, msg, _)]: the commit stands locally but the
    synchronous-replication quorum did not confirm it. *)

val apply_batch :
  t -> Store.Codec.batch -> [ `Applied | `Dup | `Gap of int ]
(** Follower write path: applies one leader batch through the
    single-writer lane, WAL-logging it when persistent (a WAL failure
    degrades to sticky read-only but keeps following in memory) and
    publishing atomically.  [`Dup] = at or below the published version
    (idempotent redelivery, dropped); [`Gap v] = skips ahead of local
    version [v], or is inapplicable to the local base — the replica must
    re-bootstrap from a snapshot. *)

val batches_for_catchup : t -> version:int -> Store.Codec.batch list option
(** {!Store.Persist.batches_since} through the attached store: the
    committed batches above [version], or [None] when there is no store
    or the log no longer reaches back that far. *)

val install_snapshot : t -> Pgraph.Graph.t -> version:int -> unit
(** Full-state bootstrap from a shipped snapshot at an explicit version:
    replaces the graph (discarding any divergent local tail), recompiles
    the catalog, clears the cache, and compacts the local store when
    persistent. *)

val reload : t -> Pgraph.Graph.t -> unit
(** Swaps the graph, bumps the version, re-lowers every installed plan
    against the new schema ({!Gsql.Catalog.recompile}) and clears the
    cache.  An administrative operation outside the write lane: not
    WAL-logged, and not safe to race against an in-flight mutating
    invocation. *)

(** {1 Catalog operations (coordinator thread only)} *)

val install : t -> string -> Protocol.response
(** [Installed names] or [Error (Exec_error, _)].  Reinstalling an existing
    name replaces it and invalidates its cached results. *)

val list_queries : t -> Protocol.response
val describe : t -> string -> Protocol.response
val drop : t -> string -> Protocol.response

(** {1 Invocation} *)

type prepared = {
  pr_budget : Interrupt.budget;
      (** the execution's governor budget — flip with {!Interrupt.cancel}
          (or share [Interrupt.cancel_token] with {!Pool.submit}) to stop
          the run at its next checkpoint *)
  pr_mutating : bool;
      (** classified at install time; the server routes [true] through its
          single-writer lane so mutating jobs queue instead of stacking up
          workers on the engine's write mutex *)
  pr_thunk : unit -> Protocol.response;
}

val prepare_invoke :
  ?tenant_limits:Interrupt.limits ->
  t -> Protocol.invoke -> [ `Ready of Protocol.response | `Run of prepared ]
(** [tenant_limits] (from {!Tenant.limits}) is min-merged into the
    execution's budget ({!Interrupt.min_limits}) so an invocation can
    never spend past its tenant's remaining quota — exhaustion surfaces
    as [Error (Resource_limit, _, _)], which the server decorates with
    the tenant's [retry_after_ms].

    [`Ready] carries a cache hit or an immediate error (unknown query,
    missing/unknown parameters, or a mutating invoke while {!read_only});
    [`Run] is the execution thunk — it runs the query under its budget,
    stores the result in the cache (read-only queries; a cache hit is only
    possible for those, since mutating invocations bypass the cache on
    both read and write) and returns the [Result] response.  Safe to run
    on a worker domain.  An interrupted execution caches nothing, commits
    nothing, and maps to [Error (Timeout, _)] (cancelled / deadline) or
    [Error (Resource_limit, _)] (step/row budget).  A mutating thunk that
    completes commits atomically: version bump + cache purge + WAL append
    (see the module preamble); a WAL failure returns
    [Error (Read_only, _)] and flips the engine read-only. *)

val invoke : t -> Protocol.invoke -> Protocol.response
(** [prepare_invoke] collapsed for synchronous callers (tests, the bench
    driver's in-process mode). *)

(** {1 Introspection} *)

val stats : t -> extra:(string * Obs.Json.t) list -> Protocol.response
(** Engine counters, catalog names, plan and cache stats; [extra] fields are appended by the server (connections, queue
    depth, ...). *)
