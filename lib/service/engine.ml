(* Service engine: catalog + graph + result cache.

   The division of labor with Server: the engine owns everything about
   *what* a request means (catalog lookup, parameter validation, cache
   policy, execution); the server owns *when* it runs (admission, timeouts,
   connection lifecycle).  prepare_invoke is the seam: resolution happens on
   the coordinator thread, execution in the returned thunk wherever the
   caller likes. *)

module J = Obs.Json
module P = Protocol

(* Replication role (docs/DURABILITY.md).  [`Leader] accepts writes and
   (when a publisher hook is set) streams committed batches to followers.
   [`Follower addr] applies the leader's stream via {!apply_batch} and
   refuses client mutations with a redirect to [addr].  [`Fenced e] is a
   deposed leader: it observed epoch [e] above its own and stood down —
   writes are refused until an operator re-points it ([Follow]) or
   promotes it afresh. *)
type role = [ `Leader | `Follower of string | `Fenced of int ]

type t = {
  catalog : Gsql.Catalog.t;
  cache : P.exec_result Cache.t;
  semantics : Pathsem.Semantics.t option;
  limits : Interrupt.limits;  (* governor defaults; iv_timeout_ms overrides the deadline *)
  lock : Mutex.t;  (* guards graph/version swaps and the counters *)
  write_lock : Mutex.t;
  (* The single-writer lane's backstop: at most one mutating execution
     prepares a new graph version at a time.  The server keeps mutating
     jobs queued so workers don't pile up here, but correctness never
     depends on that routing. *)
  persist : Store.Persist.t option;  (* durability; None = memory-only *)
  mutable graph : Pgraph.Graph.t;
  mutable version : int;
  mutable read_only : string option;  (* Some reason => mutations refused *)
  mutable role : role;
  mutable publisher : (Store.Codec.batch -> [ `Acked | `Lagging of string ]) option;
  (* Replication hook: called under the write lock after every committed
     batch is published locally.  [`Lagging msg] means the synchronous-
     replication quorum did not confirm — the commit stands locally but
     the client is answered [Repl_lag] instead of success. *)
  mutable n_invocations : int;
  mutable n_executed : int;
  mutable n_errors : int;
  mutable n_interrupted : int;
  mutable n_commits : int;
  mutable n_wal_errors : int;
}

type prepared = {
  pr_budget : Interrupt.budget;
  pr_mutating : bool;
  pr_thunk : unit -> P.response;
}

let create ?(cache_capacity = 128) ?semantics ?(limits = Interrupt.no_limits) ?persist
    ?(version = 0) ~graph () =
  { catalog = Gsql.Catalog.create ();
    cache = Cache.create ~capacity:cache_capacity ();
    semantics;
    limits;
    lock = Mutex.create ();
    write_lock = Mutex.create ();
    persist;
    graph;
    version;
    read_only = None;
    role = `Leader;
    publisher = None;
    n_invocations = 0;
    n_executed = 0;
    n_errors = 0;
    n_interrupted = 0;
    n_commits = 0;
    n_wal_errors = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let graph t = locked t (fun () -> t.graph)
let graph_version t = locked t (fun () -> t.version)
let published t = locked t (fun () -> (t.graph, t.version))
let read_only t = locked t (fun () -> t.read_only)
let persistent t = t.persist <> None

let role t = locked t (fun () -> t.role)
let set_role t r = locked t (fun () -> t.role <- r)
let set_publisher t f = locked t (fun () -> t.publisher <- f)
let persist_dir t = Option.map Store.Persist.dir t.persist

(* Replication catch-up straight off the durable WAL: [None] when there
   is no store or the log no longer reaches back to [version] (the
   snapshot advanced past it) — the caller ships a full snapshot. *)
let batches_for_catchup t ~version =
  match t.persist with
  | None -> None
  | Some p -> Store.Persist.batches_since p ~version

(* Machine-readable refusal for a mutation arriving at a non-leader. *)
let role_refusal = function
  | `Leader -> None
  | `Follower addr ->
    Some (P.Error (P.Not_leader, "not the leader; redirect to " ^ addr, P.leader_hint addr))
  | `Fenced e ->
    Some
      (P.Error
         ( P.Fenced,
           Printf.sprintf "stood down: observed epoch %d above this node's; writes here would split-brain" e,
           P.no_hint ))

(* Runs one installed query's compiled plan, on the worker domain,
   against whatever graph the caller pinned. *)
let execute t (e : Gsql.Catalog.installed) g params =
  Gsql.Compile.run e.Gsql.Catalog.i_plan ?semantics:t.semantics ~params g

let reload t g =
  let old = locked t (fun () ->
      let old = t.graph in
      t.graph <- g;
      t.version <- t.version + 1;
      old)
  in
  (* Re-specialize every plan's CSR segment symbols against the new
     schema; the generation bumps orphan all old cached results. *)
  Gsql.Catalog.recompile ~schema:(Pgraph.Graph.schema g) t.catalog;
  Cache.clear t.cache;
  Pgraph.Csr.invalidate old

let ty_to_string : Gsql.Ast.param_ty -> string = function
  | Gsql.Ast.Ty_int -> "int"
  | Gsql.Ast.Ty_float -> "float"
  | Gsql.Ast.Ty_string -> "string"
  | Gsql.Ast.Ty_bool -> "bool"
  | Gsql.Ast.Ty_datetime -> "datetime"
  | Gsql.Ast.Ty_vertex None -> "vertex"
  | Gsql.Ast.Ty_vertex (Some ty) -> "vertex<" ^ ty ^ ">"

let info_of t name =
  { P.qi_name = name;
    qi_params =
      List.map (fun (n, ty) -> (n, ty_to_string ty)) (Gsql.Catalog.signature_of t.catalog name) }

let install t source =
  (* Parse first so a reinstall only replaces the old definitions once the
     new source is known to be loadable as a program.  replace_query swaps
     plan and generation atomically, so no invoke can pair the new plan
     with a cache key minted for the old one; the old generation's cached
     results become unreachable the instant the swap lands (the eager
     invalidation afterwards is memory hygiene, not correctness). *)
  match Gsql.Parser.parse_program source with
  | exception Gsql.Parser.Error msg -> P.Error (P.Exec_error, msg, P.no_hint)
  | queries ->
    let schema = Pgraph.Graph.schema (graph t) in
    (match
       List.map
         (fun (q : Gsql.Ast.query) ->
           let fresh = not (Gsql.Catalog.mem t.catalog q.Gsql.Ast.q_name) in
           Gsql.Catalog.replace_query ~schema t.catalog q;
           if not fresh then Cache.invalidate_query t.cache q.Gsql.Ast.q_name;
           q.Gsql.Ast.q_name)
         queries
     with
     | [] -> P.Error (P.Exec_error, "no CREATE QUERY definitions in source", P.no_hint)
     | names -> P.Installed names
     | exception Gsql.Catalog.Error msg -> P.Error (P.Exec_error, msg, P.no_hint))

let list_queries t = P.Queries (List.map (info_of t) (Gsql.Catalog.names t.catalog))

let describe t name =
  if Gsql.Catalog.mem t.catalog name then
    P.Described (info_of t name, Gsql.Catalog.source_of t.catalog name)
  else P.Error (P.Unknown_query, "not installed: " ^ name, P.no_hint)

let drop t name =
  if Gsql.Catalog.mem t.catalog name then begin
    Gsql.Catalog.drop t.catalog name;
    Cache.invalidate_query t.cache name;
    P.Dropped name
  end
  else P.Error (P.Unknown_query, "not installed: " ^ name, P.no_hint)

(* Parameter names must match the declared signature exactly; shape/type
   errors inside the values surface from the evaluator as Exec_error. *)
let check_params (q : Gsql.Ast.query) (params : (string * Pgraph.Value.t) list) =
  let declared = List.map (fun p -> p.Gsql.Ast.p_name) q.Gsql.Ast.q_params in
  let given = List.map fst params in
  let missing = List.filter (fun n -> not (List.mem n given)) declared in
  let unknown = List.filter (fun n -> not (List.mem n declared)) given in
  match (missing, unknown) with
  | [], [] -> Ok ()
  | m :: _, _ -> Error ("missing parameter: " ^ m)
  | _, u :: _ -> Error ("unknown parameter: " ^ u)

let interrupted_response t ~query reason =
  locked t (fun () -> t.n_interrupted <- t.n_interrupted + 1);
  let msg =
    Printf.sprintf "%s interrupted (%s)" query (Interrupt.reason_to_string reason)
  in
  match reason with
  | Interrupt.Cancelled | Interrupt.Deadline -> P.Error (P.Timeout, msg, P.no_hint)
  | Interrupt.Steps | Interrupt.Rows -> P.Error (P.Resource_limit, msg, P.no_hint)

(* The write path: runs on a worker under the single-writer mutex.
   Commit protocol (docs/DURABILITY.md):
     1. snapshot the published graph — readers keep the old version pinned;
     2. evaluate against the clone, the journal capturing logical ops;
     3. append the batch to the WAL and fsync (when persistent);
     4. swap the published graph pointer and bump the version;
     5. clear the cache (old-version entries are already orphaned by the
        version-in-key scheme; clearing frees them eagerly).
   Any failure before step 4 discards the clone, so no partial mutation is
   ever visible to anyone.  A WAL failure additionally flips the engine
   read-only: the commit was not acknowledged and nothing after it will be
   either, which beats silently diverging from the log. *)
let mutate t (iv : P.invoke) entry budget () =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.write_lock)
    (fun () ->
      (* Re-check role and read-only under the write lock: both can flip
         between prepare and execution (a higher epoch fenced us, a
         concurrent commit broke the WAL). *)
      match role_refusal (locked t (fun () -> t.role)) with
      | Some refusal ->
        locked t (fun () -> t.n_errors <- t.n_errors + 1);
        refusal
      | None ->
      match locked t (fun () -> t.read_only) with
      | Some why ->
        locked t (fun () -> t.n_errors <- t.n_errors + 1);
        P.Error (P.Read_only, "server is read-only: " ^ why, P.no_hint)
      | None ->
        let base, version = locked t (fun () -> (t.graph, t.version)) in
        let next = Pgraph.Graph.snapshot base in
        let ops = ref [] in
        Pgraph.Graph.set_journal next (Some (fun m -> ops := m :: !ops));
        (match
           Interrupt.with_budget budget (fun () ->
               execute t entry next iv.P.iv_params)
         with
         | result ->
           Pgraph.Graph.set_journal next None;
           let ops = List.rev !ops in
           let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
           let r = P.of_eval_result result in
           if ops = [] then begin
             (* Ran to completion but wrote nothing: no commit, no version
                bump.  (Mutating results are never cached either way — the
                next invocation must re-execute its writes.) *)
             locked t (fun () -> t.n_executed <- t.n_executed + 1);
             P.Result { rs_cached = false; rs_ms = ms; rs_result = r }
           end
           else begin
             let commit_version = version + 1 in
             match
               (match t.persist with
                | Some p -> Store.Persist.commit p next ~version:commit_version ~ops
                | None -> ())
             with
             | () ->
               locked t (fun () ->
                   t.graph <- next;
                   t.version <- commit_version;
                   t.n_executed <- t.n_executed + 1;
                   t.n_commits <- t.n_commits + 1);
               Cache.clear t.cache;
               (* The superseded version's frozen CSR index goes with its
                  result-cache entries; in-flight readers pinning [base]
                  simply rebuild on demand.  (The memo key is version-
                  aware either way — this is eager memory hygiene, not a
                  correctness requirement; see lib/graph/csr.mli.) *)
               Pgraph.Csr.invalidate base;
               (* Stream the batch to subscribed followers.  Under sync
                  replication a quorum miss downgrades the answer to
                  [Repl_lag]: the commit stands locally (it is in the WAL
                  and published) but was NOT confirmed replicated, so the
                  client must not count on it surviving a failover. *)
               (match locked t (fun () -> t.publisher) with
                | None -> P.Result { rs_cached = false; rs_ms = ms; rs_result = r }
                | Some publish ->
                  (match publish { Store.Codec.b_version = commit_version; b_ops = ops } with
                   | `Acked -> P.Result { rs_cached = false; rs_ms = ms; rs_result = r }
                   | `Lagging msg -> P.Error (P.Repl_lag, msg, P.no_hint)))
             | exception Store.Wal.Io_error msg ->
               (* The clone is discarded: the published graph never saw the
                  batch, matching the WAL (which truncated or poisoned it). *)
               locked t (fun () ->
                   t.n_wal_errors <- t.n_wal_errors + 1;
                   t.n_errors <- t.n_errors + 1;
                   t.read_only <- Some msg);
               P.Error
                 ( P.Read_only,
                   Printf.sprintf "commit failed (%s); server is now read-only" msg,
                   P.no_hint )
           end
         | exception Gsql.Eval.Runtime_error msg ->
           locked t (fun () -> t.n_errors <- t.n_errors + 1);
           P.Error (P.Exec_error, msg, P.no_hint)
         | exception Interrupt.Interrupted reason ->
           interrupted_response t ~query:iv.P.iv_query reason))

(* The follower's write path: apply one leader batch through the same
   single-writer lane client mutations use, so replication and local
   reads never race.  Versions are the idempotency key: a batch at or
   below the published version is a duplicate (safe to drop — redelivery
   after a resubscribe), one that skips ahead is a gap (the caller must
   re-bootstrap, e.g. request a snapshot).  A WAL failure while logging
   the batch degrades durability (sticky read-only) but the in-memory
   replica keeps following — serving slightly-stale reads beats dropping
   off the replica set. *)
let apply_batch t (batch : Store.Codec.batch) =
  Mutex.lock t.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.write_lock)
    (fun () ->
      let base, version = locked t (fun () -> (t.graph, t.version)) in
      if batch.Store.Codec.b_version <= version then `Dup
      else if batch.Store.Codec.b_version <> version + 1 then `Gap version
      else
        let next = Pgraph.Graph.snapshot base in
        match List.iter (Pgraph.Graph.apply_mutation next) batch.Store.Codec.b_ops with
        | exception Invalid_argument _ ->
          (* Checksum-valid but inapplicable: the replica diverged from
             the leader's base.  Treat as a gap — re-bootstrapping from a
             snapshot is the only safe continuation. *)
          `Gap version
        | () ->
          (match t.persist with
           | Some p ->
             (try
                Store.Persist.commit p next ~version:batch.Store.Codec.b_version
                  ~ops:batch.Store.Codec.b_ops
              with Store.Wal.Io_error msg ->
                locked t (fun () ->
                    t.n_wal_errors <- t.n_wal_errors + 1;
                    t.read_only <- Some msg))
           | None -> ());
          locked t (fun () ->
              t.graph <- next;
              t.version <- batch.Store.Codec.b_version;
              t.n_commits <- t.n_commits + 1);
          Cache.clear t.cache;
          Pgraph.Csr.invalidate base;
          `Applied)

(* Full-state bootstrap: replace the replica wholesale with the leader's
   shipped snapshot at an explicit version (unlike {!reload}, which bumps).
   Discards any divergent local tail — exactly the point when a deposed
   leader rejoins — and compacts the local store so the on-disk state
   matches what is being served. *)
let install_snapshot t g ~version =
  Mutex.lock t.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.write_lock)
    (fun () ->
      let old = locked t (fun () ->
          let old = t.graph in
          t.graph <- g;
          t.version <- version;
          old)
      in
      Gsql.Catalog.recompile ~schema:(Pgraph.Graph.schema g) t.catalog;
      Cache.clear t.cache;
      Pgraph.Csr.invalidate old;
      match t.persist with
      | Some p ->
        (try Store.Persist.compact p g ~version
         with Store.Wal.Io_error msg ->
           locked t (fun () ->
               t.n_wal_errors <- t.n_wal_errors + 1;
               t.read_only <- Some msg))
      | None -> ())

let prepare_invoke ?tenant_limits t (iv : P.invoke) =
  locked t (fun () -> t.n_invocations <- t.n_invocations + 1);
  (* One catalog lookup: query, plan and generation arrive as a consistent
     snapshot, so a concurrent reinstall can't hand us a new plan with an
     old generation's cache key (or vice versa). *)
  match Gsql.Catalog.lookup t.catalog iv.P.iv_query with
  | None ->
    locked t (fun () -> t.n_errors <- t.n_errors + 1);
    `Ready (P.Error (P.Unknown_query, "not installed: " ^ iv.P.iv_query, P.no_hint))
  | Some entry ->
    let q = entry.Gsql.Catalog.i_query in
    (match check_params q iv.P.iv_params with
     | Error msg ->
       locked t (fun () -> t.n_errors <- t.n_errors + 1);
       `Ready (P.Error (P.Bad_params, msg, P.no_hint))
     | Ok () ->
       let mutating = entry.Gsql.Catalog.i_info.Gsql.Analyze.mutating in
       (* Governor budget for this execution: the per-invoke timeout
          overrides the engine default; step/row ceilings always come
          from the engine limits.  Built at prepare time so queue wait
          counts against the deadline (matching the server's own
          bookkeeping), and exposed so the server can flip its cancel
          flag to reclaim the worker. *)
       let budget_limits =
         { t.limits with
           Interrupt.l_timeout_ms =
             (match iv.P.iv_timeout_ms with
              | Some ms when ms > 0 -> Some ms
              | _ -> t.limits.Interrupt.l_timeout_ms) }
       in
       (* Tenant quota: cap the budget at the tenant's remaining
          allowance, so one invocation can never spend past its bucket
          (the server charges actual consumption when the job retires). *)
       let budget_limits =
         match tenant_limits with
         | None -> budget_limits
         | Some tl -> Interrupt.min_limits budget_limits tl
       in
       if mutating then begin
         match role_refusal (locked t (fun () -> t.role)) with
         | Some refusal ->
           locked t (fun () -> t.n_errors <- t.n_errors + 1);
           `Ready refusal
         | None ->
         match locked t (fun () -> t.read_only) with
         | Some why ->
           locked t (fun () -> t.n_errors <- t.n_errors + 1);
           `Ready (P.Error (P.Read_only, "server is read-only: " ^ why, P.no_hint))
         | None ->
           let budget = Interrupt.of_limits budget_limits in
           `Run { pr_budget = budget; pr_mutating = true; pr_thunk = mutate t iv entry budget }
       end
       else begin
         let g, version = locked t (fun () -> (t.graph, t.version)) in
         let key =
           Cache.key ~query:iv.P.iv_query ~params:iv.P.iv_params ~graph_version:version
             ~plan_gen:entry.Gsql.Catalog.i_generation
         in
         let hit = if iv.P.iv_no_cache then None else Cache.find t.cache key in
         match hit with
         | Some r -> `Ready (P.Result { rs_cached = true; rs_ms = 0.0; rs_result = r })
         | None ->
           let budget = Interrupt.of_limits budget_limits in
           let thunk () =
             let t0 = Unix.gettimeofday () in
             match
               Interrupt.with_budget budget (fun () ->
                   execute t entry g iv.P.iv_params)
             with
             | result ->
               let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
               let r = P.of_eval_result result in
               Cache.store t.cache key r;
               locked t (fun () -> t.n_executed <- t.n_executed + 1);
               P.Result { rs_cached = false; rs_ms = ms; rs_result = r }
             | exception Gsql.Eval.Runtime_error msg ->
               locked t (fun () -> t.n_errors <- t.n_errors + 1);
               P.Error (P.Exec_error, msg, P.no_hint)
             | exception Interrupt.Interrupted reason ->
               (* Nothing is cached: the execution's private store and its
                  uncommitted phases die with the unwind. *)
               interrupted_response t ~query:iv.P.iv_query reason
           in
           `Run { pr_budget = budget; pr_mutating = false; pr_thunk = thunk }
       end)

let invoke t iv =
  match prepare_invoke t iv with `Ready r -> r | `Run p -> p.pr_thunk ()

let stats t ~extra =
  let invocations, executed, errors, interrupted, version, commits, wal_errors, read_only =
    locked t (fun () ->
        ( t.n_invocations, t.n_executed, t.n_errors, t.n_interrupted, t.version,
          t.n_commits, t.n_wal_errors, t.read_only ))
  in
  let plan_stats =
    List.filter_map
      (fun name ->
        Option.map
          (fun (e : Gsql.Catalog.installed) ->
            let p = e.Gsql.Catalog.i_plan in
            ( name,
              J.Obj
                [ ("compile_ms", J.Float (Gsql.Compile.compile_ms p));
                  ("plan_ops", J.Int (Gsql.Compile.plan_ops p));
                  ("generation", J.Int e.Gsql.Catalog.i_generation) ] ))
          (Gsql.Catalog.lookup t.catalog name))
      (Gsql.Catalog.names t.catalog)
  in
  P.Stats_snapshot
    (J.Obj
       ([ ("graph_version", J.Int version);
          ("queries", J.List (List.map (fun n -> J.Str n) (Gsql.Catalog.names t.catalog)));
          ("plans", J.Obj plan_stats);
          ("invocations", J.Int invocations);
          ("executed", J.Int executed);
          ("errors", J.Int errors);
          ("interrupted", J.Int interrupted);
          ("commits", J.Int commits);
          ("wal_errors", J.Int wal_errors);
          ("persistent", J.Bool (t.persist <> None));
          ( "role",
            J.Str
              (match role t with
               | `Leader -> "leader"
               | `Follower _ -> "follower"
               | `Fenced _ -> "fenced") );
          ( "read_only",
            match read_only with None -> J.Bool false | Some why -> J.Str why );
          ("cache", Cache.stats t.cache);
          ("csr", Pgraph.Csr.cache_stats ()) ]
       @ extra))
