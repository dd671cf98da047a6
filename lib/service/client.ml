(* Blocking protocol client: a connected socket, an id counter, and a
   reorder buffer for pipelined use.  The endpoint {e list} is retained so
   the retry path can reconnect after a transport failure — and fail over
   to a sibling replica when the current node refuses service
   (connection refused, [read_only], [not_leader], [fenced], [stale]). *)

module P = Protocol

exception Error of string

type t = {
  mutable eps : Server.endpoint list;  (* known replicas; never empty *)
  mutable ep_idx : int;                (* index of the connected endpoint *)
  recv_timeout_ms : int option;
  mutable fd : Unix.file_descr;
  mutable next_id : int;
  mutable stash : (int * P.response) list;  (* received, not yet claimed *)
  mutable open_ : bool;
  mutable rng : int;  (* deterministic jitter state (LCG) *)
  mutable last_attempts : int;
  mutable last_hint_ms : int option;  (* retry_after_ms from the last error *)
}

let endpoint t = List.nth t.eps t.ep_idx

let connect_fd (ep : Server.endpoint) =
  let domain, addr =
    match ep with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* Dial the endpoints in order starting at [start]; the first one that
   answers wins.  Raises the last [Unix.Unix_error] when all refuse. *)
let connect_around eps start =
  let n = List.length eps in
  let rec try_at k last_exn =
    if k >= n then raise last_exn
    else
      let idx = (start + k) mod n in
      match connect_fd (List.nth eps idx) with
      | fd -> (idx, fd)
      | exception (Unix.Unix_error _ as e) -> try_at (k + 1) e
  in
  try_at 0 (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "no endpoints"))

let connect_any ?recv_timeout_ms (eps : Server.endpoint list) =
  if eps = [] then invalid_arg "Client.connect_any: empty endpoint list";
  (* Writes to a server that vanished mid-call must raise EPIPE (mapped
     to {!Error} below, retryable) rather than kill the process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ep_idx, fd = connect_around eps 0 in
  { eps; ep_idx; recv_timeout_ms; fd; next_id = 1; stash = []; open_ = true;
    rng = 0x2545F49; last_attempts = 0; last_hint_ms = None }

let connect ?recv_timeout_ms (ep : Server.endpoint) =
  connect_any ?recv_timeout_ms [ ep ]

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Drop the broken socket and dial again, starting from endpoint [from]
   and rotating through the rest.  In-flight correlation state dies with
   the old connection; ids keep increasing so stale frames (there can be
   none — the fd is closed) never collide. *)
let reconnect_from t from =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.stash <- [];
  t.open_ <- false;
  let idx, fd = connect_around t.eps from in
  t.ep_idx <- idx;
  t.fd <- fd;
  t.open_ <- true

(* Move to the next endpoint in the ring: the current node answered but
   refused service (read-only, not the leader, fenced, stale replica). *)
let rotate t = reconnect_from t ((t.ep_idx + 1) mod List.length t.eps)

(* A [not_leader] redirect names the leader's endpoint: adopt it (adding
   it to the ring if new) and reconnect there directly. *)
let adopt_leader t addr =
  match P.endpoint_of_string addr with
  | Result.Error _ -> rotate t
  | Ok ep ->
    let rec index i = function
      | [] ->
        t.eps <- t.eps @ [ ep ];
        List.length t.eps - 1
      | e :: rest -> if e = ep then i else index (i + 1) rest
    in
    reconnect_from t (index 0 t.eps)

let send t req =
  if not t.open_ then raise (Error "client closed");
  let id = t.next_id in
  t.next_id <- id + 1;
  (try P.write_frame t.fd (P.request_to_json ~id req)
   with Unix.Unix_error (e, _, _) -> raise (Error (Unix.error_message e)));
  id

let read_one t =
  (match t.recv_timeout_ms with
   | None -> ()
   | Some ms ->
     (* Bound the wait for the *start* of a response frame — the guard
        that turns a dropped frame (Faults.drop_frame, dead server) into
        a retryable Error instead of a hang. *)
     let timeout = float_of_int ms /. 1000.0 in
     (match Unix.select [ t.fd ] [] [] timeout with
      | [], _, _ -> raise (Error "receive timeout")
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> raise (Error "receive timeout")
      | exception Unix.Unix_error (e, _, _) -> raise (Error (Unix.error_message e))));
  (* A peer reset (e.g. right after a connection-limit refusal) is a
     transport failure like EOF, so it surfaces as [Error], not as a raw
     [Unix.Unix_error] that [invoke]'s retry would never see. *)
  match P.read_frame t.fd with
  | exception Unix.Unix_error (e, _, _) -> raise (Error (Unix.error_message e))
  | Result.Error `Eof -> raise (Error "connection closed by server")
  | Result.Error (`Err msg) -> raise (Error msg)
  | Ok payload ->
    (match P.response_of_json payload with
     | Ok pair -> pair
     | Result.Error msg -> raise (Error ("bad response: " ^ msg)))

let recv t =
  if not t.open_ then raise (Error "client closed");
  match t.stash with
  | r :: rest ->
    t.stash <- rest;
    r
  | [] -> read_one t

let call t req =
  let id = send t req in
  match List.assoc_opt id t.stash with
  | Some resp ->
    t.stash <- List.filter (fun (i, _) -> i <> id) t.stash;
    resp
  | None ->
    let rec wait () =
      let rid, resp = read_one t in
      if rid = id then resp
      else begin
        t.stash <- t.stash @ [ (rid, resp) ];
        wait ()
      end
    in
    wait ()

let install t source = call t (P.Install source)

(* Deterministic uniform in [0.5, 1.0): jitter that spreads retriers
   without making tests flaky. *)
let jitter t =
  t.rng <- (t.rng * 1103515245) + 12345;
  let u = float_of_int (abs (t.rng lsr 7) mod 1024) /. 1024.0 in
  0.5 +. (0.5 *. u)

let last_attempts t = t.last_attempts
let last_hint_ms t = t.last_hint_ms

(* Server-directed retries wait exactly what the server asked for (capped
   so a bogus hint cannot park the client), not a guessed backoff. *)
let max_hint_sleep_s = 10.0

let invoke t ?timeout_ms ?(no_cache = false) ?tenant ?(retries = 0) ?(backoff_ms = 25)
    ?(max_backoff_ms = 2_000) ~query ~params () =
  let req =
    P.Invoke
      { P.iv_query = query; iv_params = params; iv_timeout_ms = timeout_ms;
        iv_no_cache = no_cache; iv_tenant = tenant }
  in
  let backoff_of attempt =
    let base = float_of_int backoff_ms *. Float.pow 2.0 (float_of_int attempt) in
    Float.min base (float_of_int max_backoff_ms) *. jitter t /. 1000.0
  in
  t.last_hint_ms <- None;
  let rec go attempt =
    t.last_attempts <- attempt + 1;
    let outcome =
      (* Transient class: [overloaded] responses (the server shed load)
         and transport failures (the connection broke).  A
         [resource_limit] is transient ONLY when the server attached a
         [retry_after_ms] hint — quota exhaustion heals by waiting for
         the refill, whereas a governor budget blown mid-execution would
         burn the same budget again and is final.  Timeouts and exec
         errors are never retried. *)
      match call t req with
      | P.Error (P.Overloaded, _, h) as resp ->
        t.last_hint_ms <- h.P.h_retry_ms;
        `Transient (resp, h.P.h_retry_ms)
      | P.Error (P.Resource_limit, _, h) as resp when h.P.h_retry_ms <> None ->
        t.last_hint_ms <- h.P.h_retry_ms;
        `Transient (resp, h.P.h_retry_ms)
      | P.Error ((P.Read_only | P.Not_leader | P.Fenced | P.Stale), _, h) as resp ->
        `Failover (resp, h.P.h_leader)
      | resp -> `Final resp
      | exception Error msg -> `Broken msg
    in
    match outcome with
    | `Final resp -> resp
    | `Transient (resp, hint) ->
      if attempt >= retries then resp
      else begin
        (match hint with
         | Some ms when ms > 0 ->
           Unix.sleepf (Float.min (float_of_int ms /. 1000.0) max_hint_sleep_s)
         | _ -> Unix.sleepf (backoff_of attempt));
        go (attempt + 1)
      end
    | `Failover (resp, leader) ->
      (* This node is up but cannot serve the request: a sibling replica
         (or the leader it named) may.  Migrate the connection and retry
         there.  With a single known endpoint and no redirect there is
         nowhere to go — return the refusal as-is. *)
      if attempt >= retries || (leader = None && List.length t.eps < 2)
      then resp
      else begin
        (try match leader with
           | Some addr -> adopt_leader t addr
           | None -> rotate t
         with _ -> ());
        Unix.sleepf (backoff_of attempt);
        go (attempt + 1)
      end
    | `Broken msg ->
      if attempt >= retries then raise (Error msg)
      else begin
        Unix.sleepf (backoff_of attempt);
        (* Endpoint may still be down: leave the client closed and let
           the next attempt reconnect again from the Broken branch —
           rotation there also covers a leader that died outright. *)
        (try rotate t with _ -> ());
        go (attempt + 1)
      end
  in
  go 0

let stats t = call t P.Stats
let ping t = call t P.Ping
let status t = call t P.Status_req
let shutdown t = call t P.Shutdown
