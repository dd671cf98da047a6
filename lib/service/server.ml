(* The service event loop.

   Single-threaded select loop: accepts connections, pops protocol frames
   out of per-connection buffers, answers control requests inline and hands
   invocations to the worker pool, then sweeps pending jobs for
   completions and blown deadlines, pumps the single-writer lane and
   retires reclaimed workers on every pass.  A pass starts when a socket
   turns readable, when a worker retires a job (it writes the completion
   wakeup pipe, which sits in the select set), at the nearest request
   deadline, or after at most [max_wait] (replication heartbeats).
   Obs.Metrics / Obs.Trace are domain-safe (mutexed registry, domain-local
   span stacks), so workers may record too.

   Multi-tenancy (docs/SERVICE.md): every invocation belongs to a tenant
   — the frame's [tenant] field, or the connection's anonymous per-
   connection tenant.  Admission is weighted-fair (Pool's deficit round
   robin over per-tenant bounded sub-queues), quotas are token buckets
   (Tenant) that cap each execution's Interrupt budget and are charged
   with actual consumption when the job retires, and degradation under
   saturation is by cost: cache hits are answered inline on the loop and
   never queue, never spend quota — the cheap reads that keep flowing
   while expensive executions shed. *)

module J = Obs.Json
module P = Protocol

type endpoint = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : endpoint;
  workers : int option;
  queue_capacity : int;
  per_tenant_queue : int;  (* per-tenant sub-queue bound *)
  default_timeout_ms : int;
  max_connections : int;
  max_inflight : int;  (* per-connection in-flight invocation cap *)
  max_frame_bytes : int;  (* inbound frame acceptance cap *)
  tenant_weights : (string * int) list;  (* DRR weights; unlisted = 1 *)
  quota_steps : int;  (* per-tenant step tokens per second; 0 = off *)
  quota_rows : int;  (* per-tenant row tokens per second; 0 = off *)
  faults : Faults.t;
  replica_of : string option;  (* follow this leader endpoint from boot *)
  sync_replicas : int;  (* follower acks required per commit; 0 = async *)
  sync_timeout_ms : int;  (* quorum wait bound before answering repl_lag *)
  max_staleness_ms : int;  (* follower read bound; 0 = serve any age *)
}

let default_config listen =
  { listen; workers = None; queue_capacity = 64; per_tenant_queue = 16;
    default_timeout_ms = 30_000; max_connections = 64; max_inflight = 32;
    max_frame_bytes = P.max_frame_bytes; tenant_weights = []; quota_steps = 0;
    quota_rows = 0; faults = Faults.from_env (); replica_of = None;
    sync_replicas = 0; sync_timeout_ms = 1_000; max_staleness_ms = 0 }

(* Instrument handles are registered once; recording is a no-op unless the
   caller (serve --trace, BENCH_JSON) enabled the registry. *)
let m_requests = Obs.Metrics.counter "service/requests"
let m_cache_hits = Obs.Metrics.counter "service/cache_hits"
let m_cache_misses = Obs.Metrics.counter "service/cache_misses"
let m_timeouts = Obs.Metrics.counter "service/timeouts"
let m_overloaded = Obs.Metrics.counter "service/overloaded"
let m_errors = Obs.Metrics.counter "service/errors"
let m_queue_depth = Obs.Metrics.gauge "service/queue_depth"
let m_connections = Obs.Metrics.gauge "service/connections"
let m_latency = Obs.Metrics.histogram "service/latency_ms"
let m_cancellations = Obs.Metrics.counter "service/cancellations"
let m_reclaim = Obs.Metrics.histogram "service/reclaim_ms"
let m_quota_denials = Obs.Metrics.counter "service/quota_denials"
let m_inflight_shed = Obs.Metrics.counter "service/inflight_shed"

(* Per-tenant queue-depth gauges, memoized by tenant name and capped so a
   churn of anonymous tenants cannot grow the metrics registry without
   bound — named tenants register first and win the slots. *)
let tenant_gauges : (string, Obs.Metrics.gauge) Hashtbl.t = Hashtbl.create 8
let max_tenant_gauges = 32

let tenant_gauge name =
  match Hashtbl.find_opt tenant_gauges name with
  | Some g -> Some g
  | None ->
    if Hashtbl.length tenant_gauges >= max_tenant_gauges then None
    else begin
      let g = Obs.Metrics.gauge ("service/tenant_queue_depth/" ^ name) in
      Hashtbl.add tenant_gauges name g;
      Some g
    end

type conn = {
  fd : Unix.file_descr;
  c_tenant : string;       (* anonymous per-connection tenant identity *)
  mutable rbuf : string;   (* unconsumed input *)
  mutable alive : bool;
  mutable closed : bool;   (* fd released; set exactly once *)
}

type pending = {
  p_conn : conn;
  p_id : int;
  p_query : string;
  p_tenant : string;
  p_job : P.response Pool.job;
  p_budget : Interrupt.budget;
  p_deadline : float;
  p_start : float;
  p_mutating : bool;       (* occupies the single-writer lane until retired *)
}

(* A mutating invocation parked behind the single-writer lane: already
   admitted and classified, but not submitted to the pool until the
   current writer's pending entry retires.  Readers are never parked. *)
type waiting = {
  w_conn : conn;
  w_id : int;
  w_query : string;
  w_tenant : string;
  w_prepared : Engine.prepared;
  w_deadline : float;
  w_start : float;
}

(* A cancelled job whose worker has not yet unwound: still counted
   against the pool until its state turns Done/Failed, at which point the
   worker is back in rotation and the reclaim latency is recorded — and
   the tenant is charged the execution's final consumption. *)
type reclaiming = {
  r_job : P.response Pool.job;
  r_query : string;
  r_tenant : string;
  r_budget : Interrupt.budget;
  r_since : float;
}

type t = {
  engine : Engine.t;
  cfg : config;
  repl : Repl.t;
  pool : P.response Pool.t;
  tenants : Tenant.t;
  listen_fd : Unix.file_descr;
  wake : Wake.t;  (* completion wakeup; its read end sits in the select set *)
  bound : endpoint;
  stop_flag : bool Atomic.t;
  mutable anon_seq : int;              (* anonymous-tenant name counter *)
  mutable conns : conn list;
  mutable pending : pending list;
  mutable reclaiming : reclaiming list;
  mutable writer_busy : bool;          (* a mutating job is in flight *)
  mutable writer_waiting : waiting list;  (* FIFO; bounded by queue_capacity *)
  mutable n_timeouts : int;
  mutable n_overloaded : int;
  mutable n_cancellations : int;
  mutable n_reclaimed : int;
  mutable n_quota_denied : int;
  mutable n_inflight_shed : int;
}

let create cfg engine =
  let domain, addr =
    match cfg.listen with
    | `Unix path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  (* A peer that disconnects with a response in flight must surface as
     EPIPE on the write (handled in [send]), not as a fatal SIGPIPE. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match cfg.listen with
   | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
   | `Unix _ -> ());
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound =
    match (cfg.listen, Unix.getsockname fd) with
    | `Tcp (host, _), Unix.ADDR_INET (_, port) -> `Tcp (host, port)
    | ep, _ -> ep
  in
  let wake = Wake.create () in
  let pool =
    Pool.create ?workers:cfg.workers ~queue_capacity:cfg.queue_capacity
      ~per_tenant_capacity:(max 1 cfg.per_tenant_queue)
      ~on_complete:(fun () -> Wake.signal wake) ()
  in
  let tenants =
    Tenant.create ~now:(Faults.quota_now cfg.faults) ~weights:cfg.tenant_weights
      ~quota_steps:cfg.quota_steps ~quota_rows:cfg.quota_rows ()
  in
  let repl =
    Repl.create ~engine ~faults:cfg.faults ~replica_of:cfg.replica_of
      ~sync_replicas:cfg.sync_replicas ~sync_timeout_ms:cfg.sync_timeout_ms
      ~max_staleness_ms:cfg.max_staleness_ms ()
  in
  { engine; cfg; repl; pool; tenants; listen_fd = fd; wake; bound; stop_flag = Atomic.make false;
    anon_seq = 0; conns = []; pending = []; reclaiming = []; writer_busy = false;
    writer_waiting = []; n_timeouts = 0; n_overloaded = 0;
    n_cancellations = 0; n_reclaimed = 0; n_quota_denied = 0; n_inflight_shed = 0 }

let endpoint t = t.bound
let stop t =
  Atomic.set t.stop_flag true;
  Wake.signal t.wake

let now () = Unix.gettimeofday ()

(* The invocation's tenant: the frame's claim, else the connection's
   anonymous identity — so an unmodified client still lands in its own
   sub-queue rather than sharing one global bucket with every stranger. *)
let tenant_of conn (iv : P.invoke) =
  match iv.P.iv_tenant with Some s when s <> "" -> s | _ -> conn.c_tenant

(* Charge the tenant the execution's actual consumption, read from the
   retired budget's cumulative counters.  No-op when quotas are off. *)
let charge_budget t ~tenant budget =
  Tenant.charge t.tenants tenant ~steps:(Interrupt.steps budget) ~rows:(Interrupt.rows budget)

(* Quota-governed resource_limit responses carry the tenant's refill ETA
   so clients wait precisely instead of guessing a backoff.  Called after
   the charge, so the ETA reflects the spend that triggered it. *)
let decorate_quota t ~tenant resp =
  match resp with
  | P.Error (P.Resource_limit, msg, h) when h.P.h_retry_ms = None && Tenant.quota_active t.tenants ->
    P.Error (P.Resource_limit, msg, P.retry_hint (Tenant.retry_after_ms t.tenants tenant))
  | r -> r

let send t conn ~id resp =
  if conn.alive then
    if Faults.drop_frame t.cfg.faults then ()  (* injected: frame lost on the wire *)
    else
      try P.write_frame conn.fd (P.response_to_json ~id resp)
      with
      | Unix.Unix_error _ | Sys_error _ -> conn.alive <- false
      | Invalid_argument _ ->
        (* The result does not fit in a frame: substitute an error so the
           client is answered instead of stalled on a missing response. *)
        (try
           P.write_frame conn.fd
             (P.response_to_json ~id
                (P.Error (P.Internal, "response exceeds the frame size limit", P.no_hint)))
         with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false)

(* Cancel an in-flight job and track it until its worker unwinds — the
   cooperative-cancellation half of the deadline/disconnect paths. *)
let cancel_pending t (p : pending) ~at =
  t.n_cancellations <- t.n_cancellations + 1;
  Obs.Metrics.incr m_cancellations 1;
  Interrupt.cancel p.p_budget;
  t.reclaiming <-
    { r_job = p.p_job; r_query = p.p_query; r_tenant = p.p_tenant;
      r_budget = p.p_budget; r_since = at }
    :: t.reclaiming

(* Retire reclaiming entries whose job completed: the worker is back in
   rotation and the tenant is charged the final consumption.  The result
   (if any) is discarded — the requester was already answered when the
   cancellation was issued. *)
let sweep_reclaiming t =
  let tick_now = now () in
  t.reclaiming <-
    List.filter
      (fun r ->
        match Pool.state r.r_job with
        | Pool.Done _ | Pool.Failed _ ->
          t.n_reclaimed <- t.n_reclaimed + 1;
          Obs.Metrics.observe m_reclaim ((tick_now -. r.r_since) *. 1000.0);
          charge_budget t ~tenant:r.r_tenant r.r_budget;
          false
        | Pool.Queued | Pool.Running -> true)
      t.reclaiming

(* Release the fd exactly once.  [alive] and [closed] are distinct on
   purpose: a failed send marks the connection dead ([alive = false]) from
   wherever it happens, and the event loop later destroys it here. *)
let destroy_conn conn =
  conn.alive <- false;
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end

let close_conn t conn =
  destroy_conn conn;
  (* Cancel this connection's in-flight jobs: nobody is left to answer,
     so reclaim the workers instead of letting them finish for nothing.
     Parked writers are simply dropped — they never reached the pool. *)
  let gone, still = List.partition (fun p -> p.p_conn == conn) t.pending in
  let at = now () in
  List.iter
    (fun p ->
      Tenant.record t.tenants p.p_tenant `Completed;
      cancel_pending t p ~at)
    gone;
  t.pending <- still;
  let parked, rest = List.partition (fun w -> w.w_conn == conn) t.writer_waiting in
  List.iter (fun w -> Tenant.record t.tenants w.w_tenant `Completed) parked;
  t.writer_waiting <- rest

let record_outcome ~query ~ms resp =
  Obs.Metrics.incr m_requests 1;
  (match resp with
   | P.Result { rs_cached = true; _ } -> Obs.Metrics.incr m_cache_hits 1
   | P.Result _ -> Obs.Metrics.incr m_cache_misses 1
   | P.Error (P.Timeout, _, _) -> Obs.Metrics.incr m_timeouts 1
   | P.Error (P.Overloaded, _, _) -> Obs.Metrics.incr m_overloaded 1
   | P.Error _ -> Obs.Metrics.incr m_errors 1
   | _ -> ());
  Obs.Metrics.observe m_latency ms;
  if Obs.Trace.enabled () then
    Obs.Trace.event "service/request"
      [ ("query", J.Str query);
        ("ms", J.Float ms);
        ( "outcome",
          J.Str
            (match resp with
             | P.Result { rs_cached; _ } -> if rs_cached then "hit" else "executed"
             | P.Error (code, _, _) -> P.err_code_to_string code
             | _ -> "ok") ) ]

let server_stats t =
  (* Per-tenant accounting merged with the pool's live queue state.  The
     identity every tenant satisfies: requests seen = admitted + ready +
     shed + quota_denials, and admitted = completed + in flight. *)
  let pool_rows = Pool.tenant_stats t.pool in
  let tenant_objs =
    List.map
      (fun (name, snap) ->
        let queued, deficit =
          match List.find_opt (fun (n, _, _) -> n = name) pool_rows with
          | Some (_, q, d) -> (q, d)
          | None -> (0, 0)
        in
        ( name,
          Tenant.snap_to_json
            ~extra:[ ("queued", J.Int queued); ("deficit", J.Int deficit) ]
            snap ))
      (Tenant.snapshot t.tenants)
  in
  [ ("connections", J.Int (List.length t.conns));
    ("pending", J.Int (List.length t.pending));
    ("queue_depth", J.Int (Pool.queue_depth t.pool));
    ("running", J.Int (Pool.running t.pool));
    ("workers", J.Int (Pool.workers t.pool));
    ("timeouts", J.Int t.n_timeouts);
    ("overloaded", J.Int t.n_overloaded);
    ("cancellations", J.Int t.n_cancellations);
    ("reclaimed", J.Int t.n_reclaimed);
    (* Cancelled jobs whose worker has not unwound yet; a healthy governor
       drives this back to 0 shortly after every cancellation. *)
    ("workers_leaked", J.Int (List.length t.reclaiming));
    (* Single-writer lane: at most one mutating job runs at a time; the
       rest wait here in FIFO order. *)
    ("writer_busy", J.Bool t.writer_busy);
    ("writer_waiting", J.Int (List.length t.writer_waiting));
    ("max_inflight", J.Int t.cfg.max_inflight);
    ("inflight_shed", J.Int t.n_inflight_shed);
    ("quota_denials", J.Int t.n_quota_denied);
    ("per_tenant_queue", J.Int t.cfg.per_tenant_queue);
    ("tenants", J.Obj tenant_objs);
    ("default_timeout_ms", J.Int t.cfg.default_timeout_ms) ]

(* Hand a prepared invocation to the pool and start tracking it.  Both the
   read path (directly from [handle_request]) and the writer lane (via
   [pump_writers]) land here; a mutating submission occupies the lane.
   [via_lane] marks a parked writer already counted admitted — a refusal
   now retires it (answered) rather than double-counting a shed. *)
let submit_job t conn ~id ~query ~tenant ~via_lane ~(prepared : Engine.prepared) ~deadline
    ~start =
  let faults = t.cfg.faults in
  let thunk () =
    Faults.tenant_entry faults ~tenant;
    Faults.worker_entry faults;
    prepared.Engine.pr_thunk ()
  in
  let refuse resp =
    t.n_overloaded <- t.n_overloaded + 1;
    Tenant.record t.tenants tenant (if via_lane then `Completed else `Shed);
    record_outcome ~query ~ms:0.0 resp;
    send t conn ~id resp
  in
  (* The job shares the budget's cancel flag, so flipping either stops
     both the queued job and the running execution. *)
  match
    Pool.submit
      ~cancel:(Interrupt.cancel_token prepared.Engine.pr_budget)
      ~tenant ~weight:(Tenant.weight t.tenants tenant) t.pool thunk
  with
  | Ok job ->
    if not via_lane then Tenant.record t.tenants tenant `Admitted;
    if prepared.Engine.pr_mutating then t.writer_busy <- true;
    t.pending <-
      { p_conn = conn; p_id = id; p_query = query; p_tenant = tenant; p_job = job;
        p_budget = prepared.Engine.pr_budget; p_deadline = deadline;
        p_start = start; p_mutating = prepared.Engine.pr_mutating }
      :: t.pending
  | Error `Overloaded -> refuse (P.Error (P.Overloaded, "admission queue full", P.no_hint))
  | Error `Tenant_overloaded ->
    (* The flooding tenant sheds its own backlog; other tenants' queues
       are untouched. *)
    refuse
      (P.Error
         ( P.Overloaded,
           Printf.sprintf "tenant %s queue full (%d)" tenant t.cfg.per_tenant_queue,
           P.no_hint ))
  | Error `Shutdown ->
    Tenant.record t.tenants tenant (if via_lane then `Completed else `Shed);
    send t conn ~id (P.Error (P.Shutting_down, "server stopping", P.no_hint))

(* Answer parked writers whose deadline passed — even while the lane is
   busy, so the [timeout] arrives on the deadline — and drop dead ones;
   then, once the in-flight writer has retired, submit the head. *)
let pump_writers t =
  let tick_now = now () in
  t.writer_waiting <-
    List.filter
      (fun w ->
        if not w.w_conn.alive then begin
          Tenant.record t.tenants w.w_tenant `Completed;
          false
        end
        else if tick_now >= w.w_deadline then begin
          t.n_timeouts <- t.n_timeouts + 1;
          Tenant.record t.tenants w.w_tenant `Completed;
          let resp =
            P.Error
              ( P.Timeout,
                Printf.sprintf "%s exceeded its deadline in the writer queue" w.w_query,
                P.no_hint )
          in
          record_outcome ~query:w.w_query ~ms:((tick_now -. w.w_start) *. 1000.0) resp;
          send t w.w_conn ~id:w.w_id resp;
          false
        end
        else true)
      t.writer_waiting;
  let rec submit_head () =
    if not t.writer_busy then
      match t.writer_waiting with
      | [] -> ()
      | w :: rest ->
        t.writer_waiting <- rest;
        submit_job t w.w_conn ~id:w.w_id ~query:w.w_query ~tenant:w.w_tenant
          ~via_lane:true ~prepared:w.w_prepared ~deadline:w.w_deadline ~start:w.w_start;
        (* A failed submission (overloaded/shutdown) was answered inside
           [submit_job] and leaves the lane free: keep pumping. *)
        submit_head ()
  in
  submit_head ()

(* A follower's [Subscribe]: the hub takes the socket over.  Detach from
   the event loop first — [alive <- false] stops the frame-drain loop,
   [closed <- true] keeps the loop's close path off the fd — so that ack
   frames arriving on it are read by the hub, never by [on_readable].
   The fd goes back to blocking: the hub writes whole frames. *)
let handle_subscribe t conn ~id ~sub_version ~sub_epoch =
  conn.alive <- false;
  conn.closed <- true;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  (try Unix.clear_nonblock conn.fd with Unix.Unix_error _ -> ());
  let refuse resp =
    (try P.write_frame conn.fd (P.response_to_json ~id resp)
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  match
    Repl.handle_subscribe t.repl ~fd:conn.fd ~id ~version:sub_version ~epoch:sub_epoch
  with
  | `Subscribed -> ()
  | `Fenced e ->
    refuse
      (P.Error
         ( P.Fenced,
           Printf.sprintf "cannot serve the stream: this node stood down at epoch %d" e,
           P.no_hint ))
  | `Not_leader addr ->
    refuse (P.Error (P.Not_leader, "not the leader; subscribe to " ^ addr, P.leader_hint addr))

let handle_request t conn ~id (req : P.request) =
  match req with
  | P.Ping -> send t conn ~id P.Pong
  | P.Status_req -> send t conn ~id (P.Status (Repl.status t.repl))
  | P.Subscribe { sub_version; sub_epoch } -> handle_subscribe t conn ~id ~sub_version ~sub_epoch
  | P.Rep_ack _ ->
    (* Only meaningful on a subscribed (detached) connection, where the
       hub reads it — here it is a protocol misuse. *)
    send t conn ~id (P.Error (P.Bad_request, "rep-ack outside a subscription", P.no_hint))
  | P.Promote ->
    let ep, v = Repl.promote t.repl in
    send t conn ~id (P.Promoted { pm_epoch = ep; pm_version = v })
  | P.Follow addr -> (
    match Repl.follow t.repl addr with
    | Ok () -> send t conn ~id (P.Following addr)
    | Error msg -> send t conn ~id (P.Error (P.Bad_request, "follow: " ^ msg, P.no_hint)))
  | P.Install source -> send t conn ~id (Engine.install t.engine source)
  | P.List_queries -> send t conn ~id (Engine.list_queries t.engine)
  | P.Describe name -> send t conn ~id (Engine.describe t.engine name)
  | P.Drop name -> send t conn ~id (Engine.drop t.engine name)
  | P.Stats -> send t conn ~id (Engine.stats t.engine ~extra:(server_stats t))
  | P.Shutdown ->
    send t conn ~id P.Bye;
    stop t
  | P.Invoke iv ->
    let tenant = tenant_of conn iv in
    (* Fairness stopgap: one pipelining connection cannot occupy every
       worker (and the writer queue) while others starve. *)
    let inflight =
      List.fold_left (fun n p -> if p.p_conn == conn then n + 1 else n) 0 t.pending
      + List.fold_left (fun n w -> if w.w_conn == conn then n + 1 else n) 0
          t.writer_waiting
    in
    if inflight >= t.cfg.max_inflight then begin
      t.n_overloaded <- t.n_overloaded + 1;
      t.n_inflight_shed <- t.n_inflight_shed + 1;
      Obs.Metrics.incr m_inflight_shed 1;
      Tenant.record t.tenants tenant `Shed;
      let resp =
        P.Error
          ( P.Overloaded,
            Printf.sprintf "per-connection in-flight cap reached (%d)"
              t.cfg.max_inflight,
            P.no_hint )
      in
      record_outcome ~query:iv.P.iv_query ~ms:0.0 resp;
      send t conn ~id resp
    end
    else begin
      let t0 = now () in
      let tenant_limits =
        if Tenant.quota_active t.tenants then Some (Tenant.limits t.tenants tenant)
        else None
      in
      (* Staleness bound: a follower that has not heard from its leader
         within [max_staleness_ms] refuses reads with [stale] — a
         machine-readable cue the client's failover rotates on — rather
         than serve data of unknowable age.  Mutations are not gated
         here; they already get the [not_leader] redirect. *)
      let stale = Repl.stale_for_reads t.repl in
      let stale_resp () =
        P.Error
          ( P.Stale,
            Printf.sprintf "replica is stale: no leader contact within %dms"
              t.cfg.max_staleness_ms,
            P.no_hint )
      in
      match Engine.prepare_invoke ?tenant_limits t.engine iv with
      | `Ready (P.Result _) when stale ->
        let resp = stale_resp () in
        Tenant.record t.tenants tenant `Ready;
        record_outcome ~query:iv.P.iv_query ~ms:((now () -. t0) *. 1000.0) resp;
        send t conn ~id resp
      | `Ready resp ->
        (* Cache hits and immediate errors are answered inline: they never
           queue and never spend quota.  This is the degradation order —
           cheap reads keep flowing for a saturated or quota-exhausted
           tenant while its expensive executions shed. *)
        Tenant.record t.tenants tenant `Ready;
        record_outcome ~query:iv.P.iv_query ~ms:((now () -. t0) *. 1000.0) resp;
        send t conn ~id resp
      | `Run prepared when (not prepared.Engine.pr_mutating) && stale ->
        let resp = stale_resp () in
        Tenant.record t.tenants tenant `Ready;
        record_outcome ~query:iv.P.iv_query ~ms:((now () -. t0) *. 1000.0) resp;
        send t conn ~id resp
      | `Run prepared -> (
        match Tenant.admit t.tenants tenant with
        | `Denied retry_ms ->
          t.n_quota_denied <- t.n_quota_denied + 1;
          Obs.Metrics.incr m_quota_denials 1;
          Tenant.record t.tenants tenant `Quota_denied;
          let resp =
            P.Error
              ( P.Resource_limit,
                Printf.sprintf "tenant %s quota exhausted" tenant,
                P.retry_hint retry_ms )
          in
          record_outcome ~query:iv.P.iv_query ~ms:0.0 resp;
          send t conn ~id resp
        | `Ok ->
          let timeout_ms =
            match iv.P.iv_timeout_ms with
            | Some ms when ms > 0 -> ms
            | _ -> t.cfg.default_timeout_ms
          in
          let deadline = t0 +. (float_of_int timeout_ms /. 1000.0) in
          if prepared.Engine.pr_mutating
             && (t.writer_busy || t.writer_waiting <> []) then begin
            (* Lane occupied: park in FIFO order behind the in-flight writer
               (the non-empty-queue check keeps admission order fair). *)
            if List.length t.writer_waiting >= t.cfg.queue_capacity then begin
              t.n_overloaded <- t.n_overloaded + 1;
              Tenant.record t.tenants tenant `Shed;
              let resp = P.Error (P.Overloaded, "writer queue full", P.no_hint) in
              record_outcome ~query:iv.P.iv_query ~ms:0.0 resp;
              send t conn ~id resp
            end
            else begin
              Tenant.record t.tenants tenant `Admitted;
              t.writer_waiting <-
                t.writer_waiting
                @ [ { w_conn = conn; w_id = id; w_query = iv.P.iv_query;
                      w_tenant = tenant; w_prepared = prepared;
                      w_deadline = deadline; w_start = t0 } ]
            end
          end
          else
            submit_job t conn ~id ~query:iv.P.iv_query ~tenant ~via_lane:false
              ~prepared ~deadline ~start:t0)
    end

let handle_frame t conn = function
  | Result.Error msg ->
    (* A frame-level error — oversized length header or undecodable
       payload — leaves the stream unsynchronized (the next frame boundary
       cannot be trusted), so answer with a protocol error and close. *)
    send t conn ~id:0 (P.Error (P.Bad_request, msg, P.no_hint));
    close_conn t conn
  | Ok payload ->
    (match P.request_of_json payload with
     | Result.Error msg ->
       (* Bad envelope inside a well-delimited frame: the stream is still
          framed correctly, so the connection survives. *)
       send t conn ~id:0 (P.Error (P.Bad_request, msg, P.no_hint))
     | Ok (id, req) -> handle_request t conn ~id req)

let drain_conn_buffer t conn =
  let rec go pos =
    if not conn.alive then ()
    else
      match P.decode_frame conn.rbuf ~pos ~max_bytes:t.cfg.max_frame_bytes with
      | `Need_more ->
        if pos > 0 then conn.rbuf <- String.sub conn.rbuf pos (String.length conn.rbuf - pos)
      | `Frame (frame, next) ->
        handle_frame t conn frame;
        go next
  in
  go 0

let read_chunk_size = 65536

let on_readable t conn =
  Faults.before_read t.cfg.faults;
  let b = Bytes.create read_chunk_size in
  match Unix.read conn.fd b 0 read_chunk_size with
  | 0 -> close_conn t conn
  | n ->
    conn.rbuf <- conn.rbuf ^ Bytes.sub_string b 0 n;
    drain_conn_buffer t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if List.length t.conns >= t.cfg.max_connections then begin
        (* Shed the connection with an explanation rather than a raw close. *)
        (try
           P.write_frame fd
             (P.response_to_json ~id:0 (P.Error (P.Overloaded, "connection limit", P.no_hint)))
         with Unix.Unix_error _ | Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        t.anon_seq <- t.anon_seq + 1;
        t.conns <-
          { fd; c_tenant = Printf.sprintf "anon#%d" t.anon_seq; rbuf = "";
            alive = true; closed = false }
          :: t.conns;
        go ()
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Retire one answered pending entry: tenant accounting first (charge the
   budget's actual consumption), then the response — decorated with the
   tenant's refill ETA when a quota drove it into Resource_limit. *)
let retire_pending t (p : pending) resp ~at =
  charge_budget t ~tenant:p.p_tenant p.p_budget;
  Tenant.record t.tenants p.p_tenant `Completed;
  let resp = decorate_quota t ~tenant:p.p_tenant resp in
  let ms = (at -. p.p_start) *. 1000.0 in
  record_outcome ~query:p.p_query ~ms resp;
  send t p.p_conn ~id:p.p_id resp

let sweep_pending t =
  let tick_now = now () in
  let still =
    List.filter
      (fun p ->
        if not p.p_conn.alive then begin
          (* Writer noticed the peer is gone (failed send): reclaim. *)
          Tenant.record t.tenants p.p_tenant `Completed;
          cancel_pending t p ~at:tick_now;
          false
        end
        else
          match Pool.state p.p_job with
          | Pool.Done resp ->
            retire_pending t p resp ~at:tick_now;
            false
          | Pool.Failed msg ->
            retire_pending t p (P.Error (P.Internal, msg, P.no_hint)) ~at:tick_now;
            false
          | Pool.Queued | Pool.Running ->
            if tick_now >= p.p_deadline then begin
              t.n_timeouts <- t.n_timeouts + 1;
              Tenant.record t.tenants p.p_tenant `Completed;
              let resp =
                P.Error
                  (P.Timeout, Printf.sprintf "%s exceeded its deadline" p.p_query, P.no_hint)
              in
              record_outcome ~query:p.p_query ~ms:((tick_now -. p.p_start) *. 1000.0) resp;
              send t p.p_conn ~id:p.p_id resp;
              (* Cancelled, not abandoned: the budget's flag is flipped and
                 the worker unwinds at its next checkpoint (tracked in
                 t.reclaiming until it does, then charged to the tenant). *)
              cancel_pending t p ~at:tick_now;
              false
            end
            else true)
      t.pending
  in
  t.pending <- still;
  (* Recomputing (rather than clearing on each retire branch) keeps the
     lane state correct no matter which path removed the mutating job. *)
  t.writer_busy <- List.exists (fun p -> p.p_mutating) t.pending

let set_tenant_gauges t =
  let rows = Pool.tenant_stats t.pool in
  List.iter
    (fun (name, depth, _) ->
      match tenant_gauge name with
      | Some g -> Obs.Metrics.set_gauge g (float_of_int depth)
      | None -> ())
    rows;
  (* Drained tenants' gauges drop back to zero. *)
  Hashtbl.iter
    (fun name g ->
      if not (List.exists (fun (n, _, _) -> n = name) rows) then
        Obs.Metrics.set_gauge g 0.0)
    tenant_gauges

(* Upper bound on one select wait: it paces [Repl.tick]'s heartbeats.
   Completions and deadlines do not wait for it. *)
let max_wait = 0.02

(* Sleep until the nearest deadline the sweeps enforce, at most
   [max_wait].  After the sweeps every remaining deadline lies ahead, so
   a 0 here is one more pass, never a spin. *)
let select_timeout t =
  let nearest = List.fold_left (fun d p -> Float.min d p.p_deadline) infinity t.pending in
  let nearest = List.fold_left (fun d w -> Float.min d w.w_deadline) nearest t.writer_waiting in
  Float.max 0.0 (Float.min max_wait (nearest -. now ()))

let run t =
  while not (Atomic.get t.stop_flag) do
    (* A send failure only marks the connection dead; release its fd and
       cancel its work here, on the loop, exactly once. *)
    List.iter (fun c -> if not c.alive then close_conn t c) t.conns;
    t.conns <- List.filter (fun c -> not c.closed) t.conns;
    Obs.Metrics.set_gauge m_connections (float_of_int (List.length t.conns));
    Obs.Metrics.set_gauge m_queue_depth (float_of_int (Pool.queue_depth t.pool));
    set_tenant_gauges t;
    let wake_fd = Wake.fd t.wake in
    let fds = wake_fd :: t.listen_fd :: List.map (fun c -> c.fd) t.conns in
    let readable, _, _ =
      try Unix.select fds [] [] (select_timeout t)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq wake_fd readable then Wake.drain t.wake;
    if List.memq t.listen_fd readable then accept_ready t;
    List.iter
      (fun conn -> if conn.alive && List.memq conn.fd readable then on_readable t conn)
      t.conns;
    sweep_pending t;
    pump_writers t;
    sweep_reclaiming t;
    Repl.tick t.repl
  done;
  (* Drain: stop accepting, answer what the pool still finishes quickly,
     fail the rest, then join the workers. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.listen with
   | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | `Tcp _ -> ());
  (* Parked writers never reached the pool: answer and forget. *)
  List.iter
    (fun w ->
      Tenant.record t.tenants w.w_tenant `Completed;
      send t w.w_conn ~id:w.w_id (P.Error (P.Shutting_down, "server stopping", P.no_hint)))
    t.writer_waiting;
  t.writer_waiting <- [];
  List.iter
    (fun p ->
      Tenant.record t.tenants p.p_tenant `Completed;
      match Pool.state p.p_job with
      | Pool.Done resp -> send t p.p_conn ~id:p.p_id resp
      | _ ->
        send t p.p_conn ~id:p.p_id (P.Error (P.Shutting_down, "server stopping", P.no_hint));
        (* Cancel so Pool.shutdown's worker join is bounded by one
           checkpoint interval, not by the query's natural runtime. *)
        Interrupt.cancel p.p_budget)
    t.pending;
  t.pending <- [];
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  Repl.stop t.repl;
  Pool.shutdown ~drain:false t.pool;
  (* After the join: no worker can signal any more, only a late [stop]. *)
  Wake.close t.wake
