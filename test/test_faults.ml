(* The governor and the failure paths around it: Interrupt budgets
   (cancel / deadline / steps / rows, amortized checkpoints), pool
   cancellation and the no-spin await, engine limit→protocol mapping,
   deterministic fault injection, and end-to-end recovery — a timed-out
   worker is reclaimed and reused, a crashed worker surfaces a protocol
   error without killing the server, a retrying client gives up after its
   cap and survives dropped response frames. *)

module J = Obs.Json
module V = Pgraph.Value
module P = Service.Protocol
module E = Gsql.Eval

let diamond n = (Pathsem.Toygraphs.diamond_chain n).Pathsem.Toygraphs.g

let count_paths_src = {|
CREATE QUERY CountPaths (string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
|}

(* Pure interpreter spin: graph-independent, bounded, slow for large n. *)
let slow_src = {|
CREATE QUERY Slow (int n) {
  i = 0;
  WHILE i < n LIMIT 1000000000 DO
    i = i + 1;
  END;
  RETURN i;
}
|}

let addv_src = {|
CREATE QUERY AddV (string nm) {
  INSERT INTO V (name) VALUES (nm);
}
|}

(* |R| = number of vertices carrying the name. *)
let countname_src = {|
CREATE QUERY CountName (string nm) {
  R = SELECT v FROM V:v -(E>*0..0)- V:w WHERE v.name = nm;
  PRINT R[R.name];
}
|}

let qn_params n = [ ("srcName", V.Str "v0"); ("tgtName", V.Str ("v" ^ string_of_int n)) ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_interrupted name expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Interrupted %s" name (Interrupt.reason_to_string expected)
  | exception Interrupt.Interrupted r ->
    Alcotest.(check string) name (Interrupt.reason_to_string expected) (Interrupt.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Interrupt budgets                                                   *)

let test_precancelled_raises_before_work () =
  let b = Interrupt.make () in
  Interrupt.cancel b;
  let ran = ref false in
  expect_interrupted "pre-cancelled" Interrupt.Cancelled (fun () ->
      Interrupt.with_budget b (fun () -> ran := true));
  Alcotest.(check bool) "thunk never entered" false !ran;
  (* And the previous (absent) budget is restored on unwind. *)
  Alcotest.(check bool) "ungoverned after" false (Interrupt.governed ())

let test_step_budget_stops_interpreter () =
  let g = diamond 4 in
  expect_interrupted "step budget" Interrupt.Steps (fun () ->
      Interrupt.with_budget
        (Interrupt.make ~max_steps:2_000 ())
        (fun () -> E.run_source g ~params:[ ("n", V.Int 10_000_000) ] slow_src));
  (* Small executions fit comfortably under the same ceiling. *)
  Interrupt.with_budget
    (Interrupt.make ~max_steps:2_000 ())
    (fun () ->
      match E.run_source g ~params:[ ("n", V.Int 10) ] slow_src with
      | { E.r_return = Some (E.R_scalar (V.Int 10)); _ } -> ()
      | _ -> Alcotest.fail "small run did not complete")

let test_row_ceiling_stops_query () =
  let g = diamond 6 in
  expect_interrupted "row ceiling" Interrupt.Rows (fun () ->
      Interrupt.with_budget
        (Interrupt.make ~max_rows:1 ())
        (fun () -> E.run_source g ~params:(qn_params 6) count_paths_src))

let test_deadline_stops_promptly () =
  let g = diamond 4 in
  let t0 = Unix.gettimeofday () in
  expect_interrupted "deadline" Interrupt.Deadline (fun () ->
      Interrupt.with_budget
        (Interrupt.make ~deadline:(t0 +. 0.03) ())
        (fun () -> E.run_source g ~params:[ ("n", V.Int 50_000_000) ] slow_src));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* A query whose natural runtime is hundreds of deadlines long must be
     cut down within one checkpoint interval of the deadline. *)
  Alcotest.(check bool) "interrupted promptly" true (elapsed < 2.0)

let test_checks_are_amortized () =
  let ticks = 50_000 in
  let c0 = Interrupt.checks_performed () in
  Interrupt.with_budget (Interrupt.make ()) (fun () ->
      for _ = 1 to ticks do
        Interrupt.tick ()
      done);
  let real = Interrupt.checks_performed () - c0 in
  let bound = (ticks / Interrupt.check_interval) + 3 in
  Alcotest.(check bool)
    (Printf.sprintf "%d ticks -> %d real checks (bound %d)" ticks real bound)
    true
    (real >= 1 && real <= bound)

(* ------------------------------------------------------------------ *)
(* Fault spec parsing                                                  *)

let test_faults_parse () =
  let spec = "delay-in-worker=40,crash-in-worker=3,drop-frame=5,slow-read=10" in
  (match Service.Faults.parse spec with
   | Ok f -> Alcotest.(check string) "round-trips" spec (Service.Faults.to_string f)
   | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Service.Faults.parse "" with
   | Ok f -> Alcotest.(check bool) "empty is none" true (Service.Faults.is_none f)
   | Error msg -> Alcotest.failf "empty rejected: %s" msg);
  List.iter
    (fun bad ->
      match Service.Faults.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "nope=1"; "crash-in-worker"; "crash-in-worker=x"; "delay-in-worker=-5" ]

let test_faults_crash_is_deterministic () =
  match Service.Faults.parse "crash-in-worker=3" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok f ->
    let crashed i =
      match Service.Faults.worker_entry f with
      | () -> false
      | exception Service.Faults.Injected_fault _ -> true
      | exception e -> Alcotest.failf "execution %d: unexpected %s" i (Printexc.to_string e)
    in
    let pattern = List.init 9 (fun i -> crashed (i + 1)) in
    Alcotest.(check (list bool))
      "exactly every 3rd execution"
      [ false; false; true; false; false; true; false; false; true ]
      pattern

(* ------------------------------------------------------------------ *)
(* Pool cancellation + no-spin await                                   *)

let test_pool_cancel_queued_never_runs () =
  let pool = Service.Pool.create ~workers:1 ~queue_capacity:4 () in
  let gate = Atomic.make false in
  let blocker =
    match
      Service.Pool.submit pool (fun () ->
          while not (Atomic.get gate) do
            Unix.sleepf 0.001
          done;
          0)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "blocker refused"
  in
  ignore (Service.Pool.await ~timeout_ms:200 blocker);
  let ran = ref false in
  let queued =
    match
      Service.Pool.submit pool (fun () ->
          ran := true;
          1)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "queued refused"
  in
  Service.Pool.cancel queued;
  Atomic.set gate true;
  (match Service.Pool.await ~timeout_ms:5000 queued with
   | Service.Pool.Failed msg ->
     Alcotest.(check bool) "reason says cancelled" true (contains msg "cancelled")
   | _ -> Alcotest.fail "cancelled-in-queue job should fail");
  Alcotest.(check bool) "thunk never ran" false !ran;
  Service.Pool.shutdown pool

let test_pool_cancel_running_reclaims_worker () =
  let pool = Service.Pool.create ~workers:1 () in
  let budget = Interrupt.make () in
  let spinner =
    match
      Service.Pool.submit pool
        ~cancel:(Interrupt.cancel_token budget)
        (fun () ->
          Interrupt.with_budget budget (fun () ->
              let rec spin () =
                Interrupt.tick ();
                spin ()
              in
              spin ()))
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "spinner refused"
  in
  (* Let the single worker pick it up, then cancel mid-spin. *)
  ignore (Service.Pool.await ~timeout_ms:100 spinner);
  Interrupt.cancel budget;
  (match Service.Pool.await ~timeout_ms:5000 spinner with
   | Service.Pool.Failed msg ->
     Alcotest.(check bool) "unwound via Interrupted" true (contains msg "Interrupted")
   | _ -> Alcotest.fail "cancelled spinner should fail");
  (* The (only) worker must be back in rotation. *)
  (match Service.Pool.submit pool (fun () -> 42) with
   | Ok j ->
     (match Service.Pool.await ~timeout_ms:5000 j with
      | Service.Pool.Done 42 -> ()
      | _ -> Alcotest.fail "worker not reclaimed")
   | Error _ -> Alcotest.fail "submit after cancel refused");
  Service.Pool.shutdown pool

let test_pool_await_does_not_spin () =
  let pool = Service.Pool.create ~workers:1 () in
  let job =
    match
      Service.Pool.submit pool (fun () ->
          Unix.sleepf 0.25;
          7)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit refused"
  in
  let w0 = Service.Pool.await_wakeups () in
  (match Service.Pool.await job with
   | Service.Pool.Done 7 -> ()
   | _ -> Alcotest.fail "job lost");
  let condvar_wakeups = Service.Pool.await_wakeups () - w0 in
  (* Untimed await parks on the job's condvar: a handful of signals, not
     one per millisecond (the old poll loop would log ~250 here). *)
  Alcotest.(check bool)
    (Printf.sprintf "condvar wakeups = %d" condvar_wakeups)
    true (condvar_wakeups <= 10);
  let job2 =
    match
      Service.Pool.submit pool (fun () ->
          Unix.sleepf 0.25;
          8)
    with
    | Ok j -> j
    | Error _ -> Alcotest.fail "submit refused"
  in
  let w1 = Service.Pool.await_wakeups () in
  (match Service.Pool.await ~timeout_ms:5000 job2 with
   | Service.Pool.Done 8 -> ()
   | _ -> Alcotest.fail "job2 lost");
  let timed_wakeups = Service.Pool.await_wakeups () - w1 in
  (* Timed await sleeps with exponential backoff (1ms doubling, 50ms
     cap): covering 250ms takes ~10 sleeps, not 250 poll iterations. *)
  Alcotest.(check bool)
    (Printf.sprintf "timed wakeups = %d" timed_wakeups)
    true (timed_wakeups <= 25);
  Service.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Engine: limits -> protocol errors, cache stays clean                *)

let invoke_req ?timeout_ms ?(no_cache = false) query params =
  { P.iv_query = query; iv_params = params; iv_timeout_ms = timeout_ms; iv_no_cache = no_cache; iv_tenant = None }

let test_engine_maps_limits_to_protocol () =
  let limits =
    { Interrupt.l_timeout_ms = None; l_max_steps = Some 2_000; l_max_rows = None }
  in
  let engine = Service.Engine.create ~cache_capacity:8 ~limits ~graph:(diamond 4) () in
  (match Service.Engine.install engine slow_src with
   | P.Installed _ -> ()
   | _ -> Alcotest.fail "install failed");
  (match Service.Engine.invoke engine (invoke_req "Slow" [ ("n", V.Int 10_000_000) ]) with
   | P.Error (P.Resource_limit, msg, _) ->
     Alcotest.(check bool) "names the reason" true (contains msg "steps")
   | P.Error (c, m, _) -> Alcotest.failf "wrong error %s: %s" (P.err_code_to_string c) m
   | _ -> Alcotest.fail "runaway query not limited");
  (* The engine keeps serving, and small runs still fit. *)
  (match Service.Engine.invoke engine (invoke_req "Slow" [ ("n", V.Int 10) ]) with
   | P.Result _ -> ()
   | _ -> Alcotest.fail "engine dead after resource_limit")

let test_engine_timeout_does_not_pollute_cache () =
  let engine = Service.Engine.create ~cache_capacity:8 ~graph:(diamond 4) () in
  (match Service.Engine.install engine slow_src with
   | P.Installed _ -> ()
   | _ -> Alcotest.fail "install failed");
  let params = [ ("n", V.Int 1_000_000) ] in
  (* A 5ms deadline on a query whose natural runtime is tens of
     milliseconds: a checkpoint mid-execution observes the expired clock
     and unwinds. *)
  (match Service.Engine.invoke engine (invoke_req ~timeout_ms:5 "Slow" params) with
   | P.Error (P.Timeout, _, _) -> ()
   | P.Result _ -> Alcotest.fail "expired deadline still produced a result"
   | P.Error (c, m, _) -> Alcotest.failf "wrong error %s: %s" (P.err_code_to_string c) m
   | _ -> Alcotest.fail "unexpected response");
  (* The interrupted run must not have stored anything: the next invoke
     executes (a miss), succeeds, and only then becomes a hit. *)
  (match Service.Engine.invoke engine (invoke_req "Slow" params) with
   | P.Result { rs_cached = false; _ } -> ()
   | P.Result { rs_cached = true; _ } -> Alcotest.fail "cache polluted by interrupted run"
   | _ -> Alcotest.fail "healthy invoke failed");
  match Service.Engine.invoke engine (invoke_req "Slow" params) with
  | P.Result { rs_cached = true; _ } -> ()
  | _ -> Alcotest.fail "expected cache hit after clean run"

(* ------------------------------------------------------------------ *)
(* End-to-end over the socket                                          *)

let fresh_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsqlflt_%d_%d.sock" (Unix.getpid ()) !counter)

let with_server ?faults ?workers ?(queue_capacity = 64) ?(default_timeout_ms = 10_000)
    ?(n = 10) ?(sources = [ count_paths_src; slow_src ]) f =
  let path = fresh_socket_path () in
  let engine = Service.Engine.create ~cache_capacity:32 ~graph:(diamond n) () in
  List.iter
    (fun src ->
      match Service.Engine.install engine src with
      | P.Installed _ -> ()
      | P.Error (_, msg, _) -> Alcotest.failf "install failed: %s" msg
      | _ -> Alcotest.fail "install failed")
    sources;
  let cfg =
    { (Service.Server.default_config (`Unix path)) with
      Service.Server.workers;
      queue_capacity;
      default_timeout_ms;
      faults = Option.value ~default:Service.Faults.none faults }
  in
  let server = Service.Server.create cfg engine in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Domain.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (`Unix path))

let stats_int fields k =
  match List.assoc_opt k fields with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats missing %s" k

let fetch_stats c =
  match Service.Client.stats c with
  | P.Stats_snapshot (J.Obj fields) -> fields
  | _ -> Alcotest.fail "stats failed"

(* Wait (bounded) for the server to report zero leaked workers — right
   after a cancellation the worker may still be unwinding to its next
   checkpoint. *)
let rec await_reclaim ?(deadline = Unix.gettimeofday () +. 5.0) c =
  let fields = fetch_stats c in
  if stats_int fields "workers_leaked" = 0 then fields
  else if Unix.gettimeofday () >= deadline then
    Alcotest.failf "workers still leaked after 5s: %d" (stats_int fields "workers_leaked")
  else begin
    Unix.sleepf 0.02;
    await_reclaim ~deadline c
  end

let test_e2e_timeout_reclaims_worker () =
  (* One worker, and every execution sleeps 200ms before reaching its
     first checkpoint: the 30ms deadline must be enforced by the *server*
     (sweep sends the timeout and flips the cancel flag), and the worker
     must be reclaimed when it wakes into the cancelled budget.  If the
     timed-out execution leaked the worker, nothing else could ever run. *)
  let faults =
    match Service.Faults.parse "delay-in-worker=200" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  with_server ~faults ~workers:1 (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match
             Service.Client.invoke c ~timeout_ms:30 ~no_cache:true ~query:"Slow"
               ~params:[ ("n", V.Int 50_000_000) ] ()
           with
           | P.Error (P.Timeout, _, _) -> ()
           | P.Result _ -> Alcotest.fail "a ~10s query beat a 30ms deadline"
           | _ -> Alcotest.fail "unexpected response");
          Alcotest.(check bool) "timeout reported on the deadline" true
            (Unix.gettimeofday () -. t0 < 2.0);
          (* The single worker must come back and serve real work. *)
          (match
             Service.Client.invoke c ~no_cache:true ~query:"CountPaths"
               ~params:(qn_params 10) ()
           with
           | P.Result _ -> ()
           | _ -> Alcotest.fail "worker not reusable after timeout");
          let fields = await_reclaim c in
          Alcotest.(check bool) "cancellations counted" true
            (stats_int fields "cancellations" >= 1);
          Alcotest.(check bool) "reclaims counted" true (stats_int fields "reclaimed" >= 1)))

(* The loop sleeps until the nearest deadline, not a fixed 20 ms tick,
   so a [timeout] answer arrives on the deadline.  Every execution sleeps
   200 ms first, so each 30 ms invoke times out; lateness on a tick-paced
   loop spreads evenly over 0-20 ms (median ~10 ms). *)
let test_e2e_timeout_on_deadline () =
  let faults =
    match Service.Faults.parse "delay-in-worker=200" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  with_server ~faults ~workers:2 (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let lateness =
            List.init 10 (fun _ ->
                let t0 = Unix.gettimeofday () in
                (match
                   Service.Client.invoke c ~timeout_ms:30 ~no_cache:true ~query:"CountPaths"
                     ~params:(qn_params 10) ()
                 with
                 | P.Error (P.Timeout, _, _) -> ()
                 | _ -> Alcotest.fail "expected a timeout");
                ((Unix.gettimeofday () -. t0) *. 1000.0) -. 30.0)
          in
          let median = List.nth (List.sort compare lateness) 5 in
          Alcotest.(check bool)
            (Printf.sprintf "median lateness %.2f ms < 5 ms" median)
            true (median < 5.0)))

(* A mutating invoke parked behind the single-writer lane times out on its
   own deadline while the lane is still busy, and never runs; the writer
   holding the lane still commits.  Every execution sleeps 200 ms first,
   so the lane stays busy ~150 ms past the parked writer's 30 ms deadline.
   Once the parked writer is answered the loop must sleep, not spin on a
   zero select timeout, while the lane holder finishes: the process burns
   little CPU over that wait. *)
let test_e2e_parked_writer_times_out () =
  let faults =
    match Service.Faults.parse "delay-in-worker=200" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  let count c nm =
    match
      Service.Client.invoke c ~no_cache:true ~query:"CountName" ~params:[ ("nm", V.Str nm) ] ()
    with
    | P.Result { rs_result = { P.x_vsets; _ }; _ } ->
      (match List.assoc_opt "R" x_vsets with Some ids -> Array.length ids | None -> 0)
    | _ -> Alcotest.fail "count failed"
  in
  with_server ~faults ~workers:2 ~sources:[ addv_src; countname_src ] (fun ep ->
      let holder =
        Domain.spawn (fun () ->
            let c = Service.Client.connect ep in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () ->
                Service.Client.invoke c ~query:"AddV" ~params:[ ("nm", V.Str "first") ] ()))
      in
      (* Let the first writer reach the pool and take the lane. *)
      Unix.sleepf 0.05;
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match
             Service.Client.invoke c ~timeout_ms:30 ~query:"AddV"
               ~params:[ ("nm", V.Str "second") ] ()
           with
           | P.Error (P.Timeout, _, _) -> ()
           | _ -> Alcotest.fail "parked writer should time out");
          let late = ((Unix.gettimeofday () -. t0) *. 1000.0) -. 30.0 in
          Alcotest.(check bool) (Printf.sprintf "answered %.1f ms late < 20 ms" late) true
            (late < 20.0);
          let cpu () =
            let t = Unix.times () in
            t.Unix.tms_utime +. t.Unix.tms_stime
          in
          let w0 = Unix.gettimeofday () and c0 = cpu () in
          (match Domain.join holder with
           | P.Result _ -> ()
           | _ -> Alcotest.fail "the lane holder should commit");
          let wall = Unix.gettimeofday () -. w0 and busy = cpu () -. c0 in
          Alcotest.(check bool)
            (Printf.sprintf "loop idle while the lane drains (cpu %.0f of %.0f ms)"
               (busy *. 1000.0) (wall *. 1000.0))
            true
            (busy < 0.5 *. wall);
          Alcotest.(check int) "lane holder committed" 1 (count c "first");
          Alcotest.(check int) "timed-out writer never ran" 0 (count c "second")))

let test_e2e_cancellation_preserves_consistency () =
  with_server ~workers:2 (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          (* Interrupt an execution mid-loop with a 5ms deadline, then run
             the same invocation cleanly: it must execute afresh (the
             interrupted attempt must not have seeded the cache) and
             produce the full result. *)
          let params = [ ("n", V.Int 1_000_000) ] in
          (match Service.Client.invoke c ~timeout_ms:5 ~query:"Slow" ~params () with
           | P.Error (P.Timeout, _, _) -> ()
           | P.Result _ -> Alcotest.fail "expired deadline produced a result"
           | _ -> Alcotest.fail "unexpected response");
          (match Service.Client.invoke c ~query:"Slow" ~params () with
           | P.Result { rs_cached; rs_result; _ } ->
             Alcotest.(check bool) "interrupted run not cached" false rs_cached;
             Alcotest.(check bool) "clean rerun completes fully" true
               (rs_result.P.x_return = Some (E.R_scalar (V.Int 1_000_000)))
           | _ -> Alcotest.fail "clean rerun failed");
          match Service.Client.invoke c ~query:"Slow" ~params () with
          | P.Result { rs_cached = true; _ } -> ()
          | _ -> Alcotest.fail "clean result not cached"))

let test_e2e_client_retry_gives_up () =
  with_server ~workers:1 ~queue_capacity:1 (fun ep ->
      (* Fill the worker and the one queue slot from a sacrificial
         connection so every further invoke is shed with `overloaded`.
         Whether a given send lands on the worker, in the queue, or gets
         shed itself is a race against the worker's dequeue, so keep
         sending until the stats prove both slots are occupied. *)
      let blocker = Service.Client.connect ep in
      let slow_req =
        P.Invoke
          { P.iv_query = "Slow";
            iv_params = [ ("n", V.Int 50_000_000) ];
            iv_timeout_ms = Some 60_000;
            iv_no_cache = true; iv_tenant = None }
      in
      let c = Service.Client.connect ep in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec saturate () =
        ignore (Service.Client.send blocker slow_req);
        Unix.sleepf 0.01;
        let fields = fetch_stats c in
        if stats_int fields "running" >= 1 && stats_int fields "queue_depth" >= 1 then ()
        else if Unix.gettimeofday () >= deadline then
          Alcotest.fail "could not saturate the pool in 5s"
        else saturate ()
      in
      saturate ();
      Fun.protect
        ~finally:(fun () ->
          (* Closing the blocker cancels its in-flight jobs (reclaim path),
             so shutdown does not wait out the slow spins. *)
          Service.Client.close blocker;
          Service.Client.close c)
        (fun () ->
          (match
             Service.Client.invoke c ~retries:2 ~backoff_ms:1 ~max_backoff_ms:4
               ~no_cache:true ~query:"CountPaths" ~params:(qn_params 10) ()
           with
           | P.Error (P.Overloaded, _, _) -> ()
           | P.Result _ -> Alcotest.fail "saturated server served the retrier"
           | _ -> Alcotest.fail "unexpected response");
          Alcotest.(check int) "1 try + 2 retries" 3 (Service.Client.last_attempts c)))

let test_e2e_crash_in_worker () =
  let faults =
    match Service.Faults.parse "crash-in-worker=1" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  with_server ~faults (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          (match
             Service.Client.invoke c ~no_cache:true ~query:"CountPaths"
               ~params:(qn_params 10) ()
           with
           | P.Error (P.Internal, msg, _) ->
             Alcotest.(check bool) "names the injected fault" true (contains msg "crash")
           | P.Result _ -> Alcotest.fail "crashed worker produced a result"
           | _ -> Alcotest.fail "unexpected response");
          (* The crash is contained: the loop answers, workers survive. *)
          (match Service.Client.ping c with
           | P.Pong -> ()
           | _ -> Alcotest.fail "server dead after worker crash");
          let fields = fetch_stats c in
          Alcotest.(check bool) "no leak from a crash" true
            (stats_int fields "workers_leaked" = 0)))

let test_e2e_dropped_frame_retry () =
  (* Drop every 4th outbound frame.  The client turns the lost response
     into a receive timeout, reconnects and retries; a later attempt's
     frame goes through. *)
  let faults =
    match Service.Faults.parse "drop-frame=4" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  with_server ~faults (fun ep ->
      let c = Service.Client.connect ~recv_timeout_ms:200 ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let saw_result = ref 0 and transport_failures = ref 0 in
          for _ = 1 to 8 do
            match
              Service.Client.invoke c ~retries:3 ~backoff_ms:1 ~max_backoff_ms:4
                ~query:"CountPaths" ~params:(qn_params 10) ()
            with
            | P.Result _ -> incr saw_result
            | P.Error (c', m, _) -> Alcotest.failf "error %s: %s" (P.err_code_to_string c') m
            | _ -> Alcotest.fail "unexpected response"
            | exception Service.Client.Error msg ->
              Alcotest.failf "retries exhausted: %s" msg
          done;
          ignore transport_failures;
          Alcotest.(check int) "every invoke eventually answered" 8 !saw_result))

let () =
  Alcotest.run "faults"
    [ ( "interrupt",
        [ Alcotest.test_case "pre-cancelled raises first" `Quick test_precancelled_raises_before_work;
          Alcotest.test_case "step budget" `Quick test_step_budget_stops_interpreter;
          Alcotest.test_case "row ceiling" `Quick test_row_ceiling_stops_query;
          Alcotest.test_case "deadline" `Quick test_deadline_stops_promptly;
          Alcotest.test_case "amortized checks" `Quick test_checks_are_amortized ] );
      ( "faults",
        [ Alcotest.test_case "spec parse" `Quick test_faults_parse;
          Alcotest.test_case "crash determinism" `Quick test_faults_crash_is_deterministic ] );
      ( "pool",
        [ Alcotest.test_case "cancel queued" `Quick test_pool_cancel_queued_never_runs;
          Alcotest.test_case "cancel running reclaims" `Quick test_pool_cancel_running_reclaims_worker;
          Alcotest.test_case "await does not spin" `Quick test_pool_await_does_not_spin ] );
      ( "engine",
        [ Alcotest.test_case "limits -> protocol" `Quick test_engine_maps_limits_to_protocol;
          Alcotest.test_case "timeout keeps cache clean" `Quick
            test_engine_timeout_does_not_pollute_cache ] );
      ( "e2e",
        [ Alcotest.test_case "timeout reclaims worker" `Quick test_e2e_timeout_reclaims_worker;
          Alcotest.test_case "timeout on the deadline" `Quick test_e2e_timeout_on_deadline;
          Alcotest.test_case "parked writer times out" `Quick test_e2e_parked_writer_times_out;
          Alcotest.test_case "cancellation consistency" `Quick
            test_e2e_cancellation_preserves_consistency;
          Alcotest.test_case "retry gives up at cap" `Quick test_e2e_client_retry_gives_up;
          Alcotest.test_case "crash in worker" `Quick test_e2e_crash_in_worker;
          Alcotest.test_case "dropped frame retried" `Quick test_e2e_dropped_frame_retry ] ) ]
