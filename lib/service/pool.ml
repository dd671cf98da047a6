(* Domain worker pool with deficit-round-robin tenant fairness.

   One mutex/condvar pair guards the tenant queues and lifecycle flags;
   each job carries its own mutex/condvar so state reads and awaits never
   contend with the queue lock.  Workers are real OCaml 5 domains — the
   same machinery Accum.Parallel uses for intra-query parallelism, here
   applied across requests.

   Admission is two-level: every tenant gets its own bounded sub-queue
   (so a flooding tenant fills and sheds its OWN backlog), and a global
   bound backstops total memory.  Dispatch is deficit round-robin with
   unit job cost: a ring of backlogged tenants, each visit granting the
   tenant's weight in deficit and serving that many jobs before rotating.
   With weights a=2,b=1 and both backlogged, completion order is
   A A B A A B … — a heavy tenant can saturate its own share but never
   starve a light one. *)

type 'a state =
  | Queued
  | Running
  | Done of 'a
  | Failed of string

type 'a job = {
  jm : Mutex.t;
  jc : Condition.t;  (* signalled on every state change *)
  j_cancel : bool Atomic.t;
  mutable jstate : 'a state;
}

(* Per-tenant sub-queue.  Exists only while backlogged: created on the
   first queued job, removed when the last one is served, so idle
   anonymous tenants cost nothing. *)
type 'a tq = {
  tq_jobs : ('a job * (unit -> 'a)) Queue.t;
  tq_weight : int;
  mutable tq_deficit : int;
}

type 'a t = {
  m : Mutex.t;
  nonempty : Condition.t;
  tenants : (string, 'a tq) Hashtbl.t;
  ring : string Queue.t;  (* backlogged tenants awaiting a DRR visit *)
  mutable current : string option;  (* tenant being served this visit *)
  mutable total_queued : int;
  capacity : int;  (* global bound across all tenants *)
  per_tenant_capacity : int;
  n_workers : int;
  mutable stopping : bool;
  mutable drain : bool;
  mutable n_running : int;
  mutable domains : unit Domain.t list;
  on_complete : unit -> unit;  (* called after every terminal set_state *)
}

(* Awaiter observability: every wakeup (condvar signal or backoff sleep
   expiry) is counted, so tests can assert the old poll-loop spin — one
   wakeup per millisecond — is gone. *)
let wakeups = Atomic.make 0
let await_wakeups () = Atomic.get wakeups
let m_wakeups = Obs.Metrics.counter "service/await_wakeups"

let set_state job st =
  Mutex.lock job.jm;
  job.jstate <- st;
  Condition.broadcast job.jc;
  Mutex.unlock job.jm

let state job =
  Mutex.lock job.jm;
  let st = job.jstate in
  Mutex.unlock job.jm;
  st

let cancel job = Atomic.set job.j_cancel true
let cancel_token job = job.j_cancel

(* DRR pop.  Caller holds t.m and has checked total_queued > 0.
   Invariant: a backlogged tenant's name is either in the ring or is
   [t.current], never both; tenants leave the table when they drain. *)
let rec drr_pop t =
  match t.current with
  | Some name -> (
    match Hashtbl.find_opt t.tenants name with
    | None ->
      t.current <- None;
      drr_pop t
    | Some q ->
      let item = Queue.pop q.tq_jobs in
      t.total_queued <- t.total_queued - 1;
      q.tq_deficit <- q.tq_deficit - 1;
      if Queue.is_empty q.tq_jobs then begin
        (* Drained: drop the tenant; deficit does not carry over. *)
        t.current <- None;
        Hashtbl.remove t.tenants name
      end
      else if q.tq_deficit < 1 then begin
        (* Visit's share spent: rotate to the ring tail. *)
        t.current <- None;
        q.tq_deficit <- 0;
        Queue.push name t.ring
      end;
      item)
  | None ->
    let name = Queue.pop t.ring in
    (match Hashtbl.find_opt t.tenants name with
    | None -> ()  (* drained under a previous visit; skip *)
    | Some q ->
      q.tq_deficit <- q.tq_deficit + q.tq_weight;
      t.current <- Some name);
    drr_pop t

let rec worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    if t.stopping && ((not t.drain) || t.total_queued = 0) then None
    else if t.total_queued = 0 then begin
      Condition.wait t.nonempty t.m;
      next ()
    end
    else Some (drr_pop t)
  in
  match next () with
  | None -> Mutex.unlock t.m
  | Some (job, thunk) ->
    t.n_running <- t.n_running + 1;
    Mutex.unlock t.m;
    (* A job cancelled while still queued never runs — the submitter has
       already been answered; don't burn a worker on it. *)
    if Atomic.get job.j_cancel then set_state job (Failed "cancelled before start")
    else begin
      set_state job Running;
      let result = try Done (thunk ()) with e -> Failed (Printexc.to_string e) in
      set_state job result
    end;
    (* After the terminal set_state, never before: a listener woken here
       must already see Done/Failed. *)
    t.on_complete ();
    Mutex.lock t.m;
    t.n_running <- t.n_running - 1;
    Mutex.unlock t.m;
    worker_loop t

let create ?workers ?(queue_capacity = 64) ?per_tenant_capacity ?(on_complete = ignore) () =
  let n_workers =
    match workers with
    | Some w -> max 1 w
    | None -> Accum.Parallel.default_workers max_int
  in
  let capacity = max 1 queue_capacity in
  let t =
    { m = Mutex.create ();
      nonempty = Condition.create ();
      tenants = Hashtbl.create 16;
      ring = Queue.create ();
      current = None;
      total_queued = 0;
      capacity;
      per_tenant_capacity =
        (match per_tenant_capacity with Some c -> max 1 c | None -> capacity);
      n_workers;
      stopping = false;
      drain = true;
      n_running = 0;
      domains = [];
      on_complete }
  in
  t.domains <- List.init n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit ?cancel ?(tenant = "") ?(weight = 1) t thunk =
  Mutex.lock t.m;
  let r =
    if t.stopping then Error `Shutdown
    else if t.total_queued >= t.capacity then Error `Overloaded
    else begin
      let q =
        match Hashtbl.find_opt t.tenants tenant with
        | Some q -> Some q
        | None ->
          if t.total_queued = 0 && t.current = None && not (Queue.is_empty t.ring) then
            (* All queues drained: stale ring names carry no state; start
               the round fresh so a returning tenant isn't skipped. *)
            Queue.clear t.ring;
          let q = { tq_jobs = Queue.create (); tq_weight = max 1 weight; tq_deficit = 0 } in
          Hashtbl.add t.tenants tenant q;
          Queue.push tenant t.ring;
          Some q
      in
      match q with
      | Some q when Queue.length q.tq_jobs >= t.per_tenant_capacity ->
        (* The tenant sheds its own backlog; others are unaffected. *)
        Error `Tenant_overloaded
      | Some q ->
        let job =
          { jm = Mutex.create ();
            jc = Condition.create ();
            j_cancel = (match cancel with Some c -> c | None -> Atomic.make false);
            jstate = Queued }
        in
        Queue.push (job, thunk) q.tq_jobs;
        t.total_queued <- t.total_queued + 1;
        Condition.signal t.nonempty;
        Ok job
      | None -> assert false
    end
  in
  Mutex.unlock t.m;
  r

(* No busy-wait: the no-deadline path blocks on the job's condvar (woken
   only by set_state); the deadline path — the stdlib has no timed
   condition wait — sleeps with exponential backoff, 1 ms doubling to
   50 ms, never exceeding the remaining time.  Either way the wakeup
   count is O(log timeout), not O(timeout / 1 ms). *)
let await ?timeout_ms job =
  let count () =
    Atomic.incr wakeups;
    Obs.Metrics.incr m_wakeups 1
  in
  match timeout_ms with
  | None ->
    Mutex.lock job.jm;
    while (match job.jstate with Done _ | Failed _ -> false | _ -> true) do
      Condition.wait job.jc job.jm;
      count ()
    done;
    let st = job.jstate in
    Mutex.unlock job.jm;
    st
  | Some ms ->
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
    let rec go backoff =
      match state job with
      | (Done _ | Failed _) as st -> st
      | st ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then st
        else begin
          Unix.sleepf (Float.min backoff remaining);
          count ();
          go (Float.min (backoff *. 2.0) 0.05)
        end
    in
    go 0.001

let queue_depth t =
  Mutex.lock t.m;
  let n = t.total_queued in
  Mutex.unlock t.m;
  n

let tenant_stats t =
  Mutex.lock t.m;
  let rows =
    Hashtbl.fold
      (fun name q acc -> (name, Queue.length q.tq_jobs, q.tq_deficit) :: acc)
      t.tenants []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Mutex.unlock t.m;
  rows

let running t =
  Mutex.lock t.m;
  let n = t.n_running in
  Mutex.unlock t.m;
  n

let workers t = t.n_workers

let shutdown ?(drain = true) t =
  Mutex.lock t.m;
  let already = t.stopping in
  t.stopping <- true;
  t.drain <- drain;
  let orphans =
    if drain then []
    else begin
      let js =
        Hashtbl.fold
          (fun _ q acc -> Queue.fold (fun acc (job, _) -> job :: acc) acc q.tq_jobs)
          t.tenants []
      in
      Hashtbl.reset t.tenants;
      Queue.clear t.ring;
      t.current <- None;
      t.total_queued <- 0;
      js
    end
  in
  Condition.broadcast t.nonempty;
  let domains = t.domains in
  if not already then t.domains <- [];
  Mutex.unlock t.m;
  List.iter (fun job -> set_state job (Failed "pool shutdown")) orphans;
  if not already then List.iter Domain.join domains
