(* The server under test and the load that drives it: one process, one
   thread, two Unix-socket connections, raw Service.Protocol frames
   multiplexed with select. *)

module P = Service.Protocol
module J = Obs.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

type server = { pid : int; log : string }

let live : int list ref = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

(* No server outlives the benchmark, whether it ends normally, on an
   exception, or on SIGINT/SIGTERM. *)
let () =
  at_exit kill_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigint; Sys.sigterm ]

let spawn ~exe ~sock ~data ~installs ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  (* --graph g1 is only the base the data dir would fall back to; the
     snapshot in [data] is what gets served. *)
  let argv =
    [ exe; "serve"; "--graph"; "g1"; "--data-dir"; data; "--socket"; sock; "--workers"; "2" ]
    @ List.concat_map (fun f -> [ "--install"; f ]) installs
  in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list argv) devnull logfd logfd in
  Unix.close logfd;
  Unix.close devnull;
  live := pid :: !live;
  { pid; log }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> live := List.filter (( <> ) pid) !live; true
  | exception Unix.Unix_error _ -> true

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Blocking request/response on an otherwise idle socket. *)
let call_fd fd ~id req =
  write_all fd (P.encode_frame (P.request_to_json ~id req));
  let rec wait () =
    match P.read_frame fd with
    | Error `Eof -> failwith "server closed the connection"
    | Error (`Err msg) -> failwith ("bad frame: " ^ msg)
    | Ok j ->
      (match P.response_of_json j with
       | Ok (rid, resp) when rid = id -> resp
       | Ok _ -> wait ()
       | Error msg -> failwith ("bad response: " ^ msg))
  in
  wait ()

(* Seconds from [spawn_t] until the server answers a ping — snapshot
   recovery and query install included. *)
let wait_ready srv ~sock ~spawn_t =
  let deadline = spawn_t +. 120.0 in
  let rec go () =
    if exited srv.pid then failwith ("server exited during start-up; see " ^ srv.log);
    if now () > deadline then failwith ("server did not come up; see " ^ srv.log);
    match connect sock with
    | fd ->
      let resp = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> call_fd fd ~id:1 P.Ping) in
      if resp <> P.Pong then failwith "ping: unexpected response";
      now () -. spawn_t
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Graceful stop: a shutdown frame, then wait for the process to exit. *)
let stop srv ~sock =
  (try
     let fd = connect sock in
     Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> ignore (call_fd fd ~id:1 P.Shutdown))
   with _ -> ());
  let deadline = now () +. 30.0 in
  while (not (exited srv.pid)) && now () < deadline do
    Unix.sleepf 0.01
  done;
  if List.mem srv.pid !live then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap srv.pid;
    failwith "server did not stop within 30 s"
  end

(* Peak resident set of a live process, in MiB (Linux VmHWM). *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> find ()
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

type phase = Warm | Open | Sat

type outcome = Pending | Answered | Failed of string

type record = {
  req : Workload.req;
  phase : phase;
  sched : float;        (* open loop: when it was due; closed loop: send time *)
  sent : float;
  traced : bool;
  conn : int;
  mutable encode_s : float;  (* request_to_json + encode_frame; traced only *)
  mutable decode_s : float;  (* decode_frame + response_of_json; traced only *)
  mutable resp_bytes : int;
  mutable done_t : float;
  mutable outcome : outcome;
  mutable rs_ms : float;
  mutable cached : bool;
}

let latency_ms r = (r.done_t -. r.sched) *. 1000.0
let codec_ms r = (r.encode_s +. r.decode_s) *. 1000.0

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable inflight : int }

type plan = {
  rate : float;
  warm_s : float;
  open_s : float;
  sat_s : float;
  window : int;  (* closed-loop requests in flight per connection *)
}

type result = {
  records : record list;        (* every load request, in send order *)
  stats_before : J.t;           (* stats frame at the end of warm-up *)
  stats_after : J.t;            (* stats frame after the load drained *)
  t_open : float;               (* open-loop start (end of warm-up) *)
  t_sat : float;                (* saturation start *)
  t_end : float;                (* saturation end *)
}

let chunk = Bytes.create (1 lsl 20)

let frame_len buf =
  let b i = Char.code (Buffer.nth buf i) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* Runs warm-up, open loop and saturation against [sock].  [next] yields
   the workload's requests; [on_response] sees every answered request
   (gates).  [trace] times the client codec on every other request.  Once
   the load has drained, [after] gets a blocking call on the first
   connection and the final stats frame. *)
let run ~sock ~(plan : plan) ~next ~trace ~on_response ~after =
  let conns =
    Array.init 2 (fun _ -> { fd = connect sock; buf = Buffer.create 65536; inflight = 0 })
  in
  let pending : (int, record) Hashtbl.t = Hashtbl.create 1024 in
  let records = ref [] in
  let stats_before = ref None in
  let stats_id = ref (-1) in
  let next_id = ref 1 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let send_req c ~phase ~sched ~traced (req : Workload.req) =
    let id = fresh_id () in
    let wire =
      P.Invoke
        { P.iv_query = req.Workload.query; iv_params = req.Workload.params;
          iv_timeout_ms = None; iv_no_cache = req.Workload.no_cache; iv_tenant = None }
    in
    let t0 = if traced then now () else 0.0 in
    let frame = P.encode_frame (P.request_to_json ~id wire) in
    let encode_s = if traced then now () -. t0 else 0.0 in
    let sent = now () in
    write_all conns.(c).fd frame;
    conns.(c).inflight <- conns.(c).inflight + 1;
    let r =
      { req; phase; sched; sent; traced; conn = c; encode_s; decode_s = 0.0; resp_bytes = 0;
        done_t = Float.nan; outcome = Pending; rs_ms = 0.0; cached = false }
    in
    Hashtbl.replace pending id r;
    records := r :: !records
  in
  let handle_frame c s =
    let t0 = now () in
    let decoded =
      match P.decode_frame s ~pos:0 with
      | `Frame (Ok j, _) -> P.response_of_json j
      | `Frame (Error msg, _) -> Error msg
      | `Need_more -> Error "short frame"
    in
    let t1 = now () in
    match decoded with
    | Error msg -> failwith ("undecodable response frame: " ^ msg)
    | Ok (id, resp) when id = !stats_id ->
      conns.(c).inflight <- conns.(c).inflight - 1;
      (match resp with
       | P.Stats_snapshot j -> stats_before := Some j
       | _ -> failwith "stats: unexpected response")
    | Ok (id, resp) ->
      (match Hashtbl.find_opt pending id with
       | None -> failwith (Printf.sprintf "response for unknown id %d" id)
       | Some r ->
         Hashtbl.remove pending id;
         conns.(c).inflight <- conns.(c).inflight - 1;
         r.done_t <- t1;
         r.resp_bytes <- String.length s;
         if r.traced then r.decode_s <- t1 -. t0;
         (match resp with
          | P.Result { rs_cached; rs_ms; _ } ->
            r.outcome <- Answered;
            r.rs_ms <- rs_ms;
            r.cached <- rs_cached
          | P.Error (code, msg, _) ->
            r.outcome <- Failed (P.err_code_to_string code ^ ": " ^ msg)
          | _ -> r.outcome <- Failed "unexpected response kind");
         on_response r resp)
  in
  let pump timeout =
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let readable, _, _ =
      try Unix.select fds [] [] (Float.max 0.0 timeout)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i c ->
        if List.memq c.fd readable then begin
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "server closed a load connection"
          | n ->
            Buffer.add_subbytes c.buf chunk 0 n;
            let rec pop () =
              let len = Buffer.length c.buf in
              if len >= 4 then begin
                let n = 4 + frame_len c.buf in
                if len >= n then begin
                  let s = Buffer.sub c.buf 0 n in
                  let rest = Buffer.sub c.buf n (len - n) in
                  Buffer.clear c.buf;
                  Buffer.add_string c.buf rest;
                  handle_frame i s;
                  pop ()
                end
              end
            in
            pop ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        end)
      conns
  in
  let t0 = now () in
  let t_open = t0 +. plan.warm_s in
  let t_sat = t_open +. plan.open_s in
  let t_end = t_sat +. plan.sat_s in
  let k = ref 0 in
  let traced () = trace && !k land 1 = 0 in
  let fin = ref false in
  while not !fin do
    let t = now () in
    if t >= t_end then fin := true
    else begin
      if !stats_id < 0 && t >= t_open then begin
        (* Stats frame at the end of warm-up: the base for every delta. *)
        stats_id := fresh_id ();
        write_all conns.(0).fd (P.encode_frame (P.request_to_json ~id:!stats_id P.Stats));
        conns.(0).inflight <- conns.(0).inflight + 1
      end;
      if t < t_sat then begin
        (* Open loop: arrival k is due at t0 + k / rate, on connection k mod 2. *)
        let due = t0 +. (float_of_int !k /. plan.rate) in
        if t >= due then begin
          let phase = if due < t_open then Warm else Open in
          send_req (!k land 1) ~phase ~sched:due ~traced:(traced ()) (next ());
          incr k
        end
        else pump (Float.min (due -. t) (t_sat -. t))
      end
      else begin
        (* Saturation: keep [window] requests in flight per connection. *)
        Array.iteri
          (fun i c ->
            while c.inflight < plan.window do
              send_req i ~phase:Sat ~sched:(now ()) ~traced:(traced ()) (next ());
              incr k
            done)
          conns;
        pump (t_end -. t)
      end
    end
  done;
  (* Drain: every request gets its answer or is counted as failed. *)
  let drain_deadline = now () +. 30.0 in
  while Hashtbl.length pending > 0 && now () < drain_deadline do
    pump (drain_deadline -. now ())
  done;
  Hashtbl.iter (fun _ r -> r.outcome <- Failed "no response before the drain deadline") pending;
  let call req = call_fd conns.(0).fd ~id:(fresh_id ()) req in
  let stats_after =
    match call P.Stats with
    | P.Stats_snapshot j -> j
    | _ -> failwith "stats: unexpected response"
  in
  let extra = after call stats_after in
  Array.iter (fun c -> Unix.close c.fd) conns;
  ( { records = List.rev !records;
      stats_before = Option.value !stats_before ~default:stats_after;
      stats_after; t_open; t_sat; t_end },
    extra )
