(* WAL-streaming replication (docs/DURABILITY.md).

   One [t] per server process, wrapping its engine with the leader and
   follower halves of the protocol:

   Leader hub — followers arrive as ordinary connections that send
   [Subscribe]; the server detaches the socket and hands it here.  The
   hub answers [Sub_ok], catches the follower up (WAL batches straight
   off the store when the log reaches back far enough, a full snapshot
   otherwise), then streams every committed batch through the engine's
   publisher hook — called under the write lock, so the stream is in
   commit order by construction.  With [sync_replicas > 0] the hook also
   waits for that many follower acks before letting the commit be
   acknowledged; a quorum miss downgrades the client's answer to
   [repl_lag].  An idle leader heartbeats so followers can measure
   staleness.

   Follower — a dedicated domain dials the leader, subscribes with its
   current version and history epoch, and applies whatever arrives:
   batches through {!Engine.apply_batch} (the same single-writer lane
   client mutations use), snapshots through {!Engine.install_snapshot}.
   Version gaps, divergence and silence all funnel into one recovery
   path: drop the connection and resubscribe — the leader decides
   between batch catch-up and a fresh snapshot.

   Epochs — [epoch] is the {e history} epoch: the leadership era the
   node's state belongs to, persisted in [<dir>/epoch].  [seen] is the
   highest epoch ever observed ([>= epoch]).  A [Subscribe] carrying an
   epoch above [seen] fences a leader: it stands down ([`Fenced]) rather
   than risk accepting writes concurrently with a newer leader.  A
   deposed leader that rejoins as a follower still subscribes with its
   {e history} epoch, which is below the new leader's — forcing the
   snapshot path and discarding its divergent tail (e.g. commits that
   were never acknowledged past the quorum).  {!promote} starts era
   [seen + 1]. *)

module P = Protocol

type sub = {
  s_fd : Unix.file_descr;
  mutable s_version : int;  (* last version sent (believed held) *)
  mutable s_acked : int;    (* last version the follower confirmed *)
  mutable s_alive : bool;
}

type follower = {
  f_addr : string;                  (* leader endpoint, endpoint_of_string form *)
  f_stop : bool Atomic.t;
  f_last_contact : float Atomic.t;  (* Unix time of the last leader frame *)
  f_leader_version : int Atomic.t;  (* leader's version per the last frame *)
  mutable f_fd : Unix.file_descr option;  (* current leader socket, for shutdown *)
  mutable f_domain : unit Domain.t option;
}

type t = {
  engine : Engine.t;
  faults : Faults.t;
  sync_replicas : int;
  sync_timeout_ms : int;
  max_staleness_ms : int;
  lock : Mutex.t;  (* guards epoch/seen/subs/follower AND all sub-fd I/O *)
  mutable epoch : int;  (* history epoch of the local state *)
  mutable seen : int;   (* max epoch ever observed; >= epoch *)
  mutable subs : sub list;
  mutable follower : follower option;
  mutable last_heartbeat : float;
}

let heartbeat_every_s = 1.0

(* Follower-side silence threshold before it redials: generous enough
   that one lost heartbeat doesn't churn, short enough that a dead
   leader is noticed promptly. *)
let silence_limit_s = 4.0

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let persist_epoch t =
  match Engine.persist_dir t.engine with
  | Some dir -> (try Store.Persist.write_epoch dir t.epoch with Store.Wal.Io_error _ -> ())
  | None -> ()

(* ---------- leader side ---------- *)

(* All writes to subscriber sockets happen with [t.lock] held, so frames
   from the publisher (worker domain) and heartbeats (event loop) never
   interleave mid-frame. *)
let send_sub ?stream t sub resp =
  if sub.s_alive then
    if Faults.repl_send_dropped ?stream t.faults then ()  (* injected: lost on the wire *)
    else
      try P.write_frame sub.s_fd (P.response_to_json ~id:0 resp)
      with Unix.Unix_error _ | Sys_error _ | Invalid_argument _ -> sub.s_alive <- false

let close_sub sub =
  sub.s_alive <- false;
  try Unix.close sub.s_fd with Unix.Unix_error _ -> ()

let prune_subs t = t.subs <- List.filter (fun s -> s.s_alive || (close_sub s; false)) t.subs

let snapshot_resp t =
  let g, v = Engine.published t.engine in
  ( v,
    P.Rep_snapshot
      { sn_epoch = t.epoch; sn_version = v; sn_graph = Store.Codec.graph_to_json ~version:v g } )

(* Catch a fresh subscriber up to the leader's published version.
   Batch catch-up requires the on-disk WAL to reach back to the
   follower's version {e and} the follower's history to be this era's —
   a lower-epoch subscriber may hold same-numbered versions from a
   different timeline, so it always gets the full snapshot. *)
let catch_up t ~sub ~sub_version ~sub_epoch =
  let v = Engine.graph_version t.engine in
  let send_snapshot () =
    let v, resp = snapshot_resp t in
    send_sub t sub resp;
    sub.s_version <- v
  in
  if sub_epoch < t.epoch || sub_version > v then send_snapshot ()
  else if sub_version = v then sub.s_version <- v
  else
    match Engine.batches_for_catchup t.engine ~version:sub_version with
    | Some batches ->
      List.iter
        (fun (b : Store.Codec.batch) ->
          send_sub t sub (P.Rep_batch { rb_epoch = t.epoch; rb_batch = b });
          sub.s_version <- b.Store.Codec.b_version)
        batches;
      (* The WAL can trail the published version only by a torn tail the
         store refused — top up with a snapshot rather than leave a gap. *)
      if sub.s_version < v then send_snapshot ()
    | None -> send_snapshot ()

let handle_subscribe t ~fd ~id ~version:sub_version ~epoch:sub_epoch =
  locked t (fun () ->
      if sub_epoch > t.seen then begin
        (* A newer era exists: stand down before answering, so no commit
           can be acknowledged from this node after the new leader has
           started accepting writes. *)
        t.seen <- sub_epoch;
        Engine.set_role t.engine (`Fenced sub_epoch);
        List.iter close_sub t.subs;
        t.subs <- [];
        `Fenced sub_epoch
      end
      else
        match Engine.role t.engine with
        | `Follower addr -> `Not_leader addr
        | `Fenced e -> `Fenced e
        | `Leader ->
          let sub = { s_fd = fd; s_version = 0; s_acked = sub_version; s_alive = true } in
          (try
             P.write_frame fd
               (P.response_to_json ~id
                  (P.Sub_ok
                     { so_epoch = t.epoch;
                       so_version = Engine.graph_version t.engine;
                       so_ack = t.sync_replicas > 0 }))
           with Unix.Unix_error _ | Sys_error _ -> sub.s_alive <- false);
          if sub.s_alive then catch_up t ~sub ~sub_version ~sub_epoch;
          if sub.s_alive then begin
            t.subs <- t.subs @ [ sub ];
            `Subscribed
          end
          else begin
            close_sub sub;
            `Subscribed  (* fd is ours either way; it is already closed *)
          end)

(* Drain one follower->leader frame during the sync-ack wait. *)
let read_ack sub =
  match P.read_frame sub.s_fd with
  | Result.Error (`Eof | `Err _) -> sub.s_alive <- false
  | Ok j -> (
    match P.request_of_json j with
    | Ok (_, P.Rep_ack v) -> sub.s_acked <- max sub.s_acked v
    | Ok _ | Result.Error _ -> ())

let wait_acks t b_version =
  let deadline = Unix.gettimeofday () +. (float_of_int t.sync_timeout_ms /. 1000.0) in
  let acked () =
    List.length (List.filter (fun s -> s.s_alive && s.s_acked >= b_version) t.subs)
  in
  let rec loop () =
    if acked () >= t.sync_replicas then `Acked
    else
      let timeout = deadline -. Unix.gettimeofday () in
      if timeout <= 0.0 then
        `Lagging
          (Printf.sprintf
             "replication quorum not reached: %d/%d follower acks for version %d within %dms"
             (acked ()) t.sync_replicas b_version t.sync_timeout_ms)
      else
        let fds = List.filter_map (fun s -> if s.s_alive then Some s.s_fd else None) t.subs in
        if fds = [] then
          `Lagging
            (Printf.sprintf
               "replication quorum not reached: no live followers for version %d (need %d acks)"
               b_version t.sync_replicas)
        else begin
          (match Unix.select fds [] [] timeout with
           | readable, _, _ ->
             List.iter
               (fun s -> if s.s_alive && List.mem s.s_fd readable then read_ack s)
               t.subs
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
  in
  loop ()

(* The engine's publisher hook: runs on the committing worker, under the
   engine write lock (stream order = commit order). *)
let publish t (batch : Store.Codec.batch) =
  locked t (fun () ->
      prune_subs t;
      List.iter
        (fun sub ->
          if sub.s_version < batch.Store.Codec.b_version then begin
            send_sub ~stream:true t sub
              (P.Rep_batch { rb_epoch = t.epoch; rb_batch = batch });
            (* Even a dropped frame counts as sent: the leader believes
               the wire delivered it, and the follower's gap detection +
               resubscribe carries the recovery. *)
            sub.s_version <- batch.Store.Codec.b_version
          end)
        t.subs;
      if t.sync_replicas <= 0 then `Acked else wait_acks t batch.Store.Codec.b_version)

let heartbeat t =
  let now = Unix.gettimeofday () in
  if now -. t.last_heartbeat >= heartbeat_every_s then begin
    t.last_heartbeat <- now;
    let v = Engine.graph_version t.engine in
    List.iter (fun sub -> send_sub t sub (P.Rep_heartbeat { hb_epoch = t.epoch; hb_version = v })) t.subs;
    prune_subs t
  end

(* ---------- follower side ---------- *)

let connect_fd addr =
  match P.endpoint_of_string addr with
  | Result.Error msg -> Result.Error msg
  | Ok ep -> (
    let domain, sockaddr =
      match ep with
      | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | `Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Result.Error (Unix.error_message e))

(* Adopt the leader's era for the state we just installed from it. *)
let note_epoch t e =
  locked t (fun () ->
      if e > t.seen then t.seen <- e;
      if e <> t.epoch then begin
        t.epoch <- e;
        persist_epoch t
      end)

let follower_ack fd version =
  try
    P.write_frame fd (P.request_to_json ~id:0 (P.Rep_ack version));
    true
  with Unix.Unix_error _ | Sys_error _ -> false

(* One subscribed session: apply the stream until stop, error, or
   silence.  Returns [`Again] to redial. *)
let follow_session t (fo : follower) fd =
  let id = 1 in
  P.write_frame fd
    (P.request_to_json ~id
       (P.Subscribe
          { sub_version = Engine.graph_version t.engine;
            sub_epoch = locked t (fun () -> t.epoch) }));
  let touch version =
    Atomic.set fo.f_last_contact (Unix.gettimeofday ());
    Atomic.set fo.f_leader_version version
  in
  let rec pump want_ack =
    if Atomic.get fo.f_stop then `Stop
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump want_ack
      | [], _, _ ->
        if Unix.gettimeofday () -. Atomic.get fo.f_last_contact > silence_limit_s then `Again
        else pump want_ack
      | _ -> (
        match P.read_frame fd with
        | Result.Error (`Eof | `Err _) -> `Again
        | Ok j -> (
          match P.response_of_json j with
          | Result.Error _ -> `Again
          | Ok (_, resp) -> (
            match resp with
            | P.Sub_ok { so_epoch; so_version; so_ack } ->
              locked t (fun () -> if so_epoch > t.seen then t.seen <- so_epoch);
              touch so_version;
              pump so_ack
            | P.Rep_heartbeat { hb_epoch = _; hb_version } ->
              touch hb_version;
              (* A heartbeat advertising commits we never received means
                 the stream dropped our tail (e.g. the last batch before
                 an idle period): resubscribe for catch-up rather than
                 wait for a future batch to expose the gap. *)
              if hb_version > Engine.graph_version t.engine then `Again
              else pump want_ack
            | P.Rep_batch { rb_epoch; rb_batch } -> (
              touch rb_batch.Store.Codec.b_version;
              Faults.follower_stall t.faults;
              match Engine.apply_batch t.engine rb_batch with
              | `Applied | `Dup ->
                note_epoch t rb_epoch;
                if want_ack && not (follower_ack fd (Engine.graph_version t.engine)) then `Again
                else pump want_ack
              | `Gap _ -> `Again  (* lost a frame or diverged: resubscribe *))
            | P.Rep_snapshot { sn_epoch; sn_version; sn_graph } -> (
              touch sn_version;
              Faults.follower_stall t.faults;
              match Store.Codec.graph_of_string (Obs.Json.to_string sn_graph) with
              | Result.Error _ -> `Again
              | Ok (g, v) ->
                Engine.install_snapshot t.engine g ~version:(max v sn_version);
                note_epoch t sn_epoch;
                if want_ack && not (follower_ack fd (Engine.graph_version t.engine)) then `Again
                else pump want_ack)
            | P.Error _ ->
              (* The leader refused the subscription (fenced, not the
                 leader, ...): back off and redial — an operator may be
                 re-pointing the topology around us. *)
              `Again
            | _ -> pump want_ack)))
  in
  pump false

let follower_loop t (fo : follower) =
  let rec go () =
    if not (Atomic.get fo.f_stop) then begin
      (match connect_fd fo.f_addr with
       | Result.Error _ -> Unix.sleepf 0.3
       | Ok fd ->
         fo.f_fd <- Some fd;
         let outcome = try follow_session t fo fd with Unix.Unix_error _ | Sys_error _ -> `Again in
         fo.f_fd <- None;
         (try Unix.close fd with Unix.Unix_error _ -> ());
         (match outcome with `Stop -> () | `Again -> Unix.sleepf 0.2));
      go ()
    end
  in
  go ()

let stop_follower t =
  match t.follower with
  | None -> ()
  | Some fo ->
    Atomic.set fo.f_stop true;
    (* Unblock a read parked in select/read_frame. *)
    (match fo.f_fd with
     | Some fd -> (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
     | None -> ());
    (match fo.f_domain with Some d -> Domain.join d | None -> ());
    t.follower <- None

let start_follower t addr =
  let fo =
    { f_addr = addr;
      f_stop = Atomic.make false;
      f_last_contact = Atomic.make (Unix.gettimeofday ());
      f_leader_version = Atomic.make 0;
      f_fd = None;
      f_domain = None }
  in
  t.follower <- Some fo;
  Engine.set_role t.engine (`Follower addr);
  fo.f_domain <- Some (Domain.spawn (fun () -> follower_loop t fo))

(* ---------- lifecycle and operator commands ---------- *)

let create ~engine ~faults ?(replica_of = None) ?(sync_replicas = 0)
    ?(sync_timeout_ms = 1_000) ?(max_staleness_ms = 0) () =
  let epoch =
    match Engine.persist_dir engine with
    | Some dir -> Option.value (Store.Persist.read_epoch dir) ~default:1
    | None -> 1
  in
  let t =
    { engine;
      faults;
      sync_replicas;
      sync_timeout_ms;
      max_staleness_ms;
      lock = Mutex.create ();
      epoch;
      seen = epoch;
      subs = [];
      follower = None;
      last_heartbeat = 0.0 }
  in
  Engine.set_publisher engine (Some (publish t));
  (match replica_of with Some addr -> start_follower t addr | None -> ());
  t

let epoch t = locked t (fun () -> t.epoch)

let promote t =
  stop_follower t;
  locked t (fun () ->
      t.epoch <- t.seen + 1;
      t.seen <- t.epoch;
      persist_epoch t;
      Engine.set_role t.engine `Leader;
      (t.epoch, Engine.graph_version t.engine))

let follow t addr =
  match P.endpoint_of_string addr with
  | Result.Error msg -> Result.Error msg
  | Ok _ ->
    stop_follower t;
    (* Any local subscribers belong to a leadership we no longer hold. *)
    locked t (fun () ->
        List.iter close_sub t.subs;
        t.subs <- []);
    start_follower t addr;
    Ok ()

let lag_ms t =
  match t.follower with
  | None -> None
  | Some fo -> Some ((Unix.gettimeofday () -. Atomic.get fo.f_last_contact) *. 1000.0)

let stale_for_reads t =
  t.max_staleness_ms > 0
  &&
  match (Engine.role t.engine, lag_ms t) with
  | `Follower _, Some lag -> lag > float_of_int t.max_staleness_ms
  | _ -> false

let status t =
  let role = Engine.role t.engine in
  { P.st_role =
      (match role with `Leader -> "leader" | `Follower _ -> "follower" | `Fenced _ -> "fenced");
    st_epoch = locked t (fun () -> t.epoch);
    st_version = Engine.graph_version t.engine;
    st_read_only = Engine.read_only t.engine;
    st_lag_ms = lag_ms t;
    st_leader = (match role with `Follower addr -> Some addr | _ -> None);
    st_replicas = locked t (fun () -> List.length (List.filter (fun s -> s.s_alive) t.subs)) }

let tick t = locked t (fun () -> heartbeat t)

let stop t =
  stop_follower t;
  Engine.set_publisher t.engine None;
  locked t (fun () ->
      List.iter close_sub t.subs;
      t.subs <- [])
