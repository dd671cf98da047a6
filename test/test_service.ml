(* The installed-query service, bottom-up: protocol envelope round-trips
   through Obs.Json, the LRU result cache, the domain worker pool, the
   engine's catalog/cache/invoke logic, and finally the socket server
   end-to-end — concurrent clients, cache hits, deadline timeouts,
   admission control and graceful shutdown. *)

module J = Obs.Json
module V = Pgraph.Value
module P = Service.Protocol
module E = Gsql.Eval

let exec_result = Alcotest.testable P.pp_exec_result P.exec_result_equal

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let sample_values =
  [ V.Null;
    V.Bool true;
    V.Int (-42);
    V.Float 2.5;
    V.Str "hello \"world\"\nline2";
    V.Datetime 1_600_000_000;
    V.Vertex 7;
    V.Edge 9;
    V.Vlist [ V.Int 1; V.Str "x"; V.Vertex 3 ];
    V.Vtuple [| V.Float 1.0; V.Vlist [ V.Bool false ]; V.Null |] ]

let roundtrip_value v =
  (* Through the full text layer, not just the tree: render, reparse, decode. *)
  let s = J.to_string (P.value_to_json v) in
  match J.parse s with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok j ->
    (match P.value_of_json j with
     | Ok v' -> Alcotest.(check bool) ("value " ^ V.to_string v) true (V.equal v v')
     | Error msg -> Alcotest.failf "decode failed: %s" msg)

let test_value_roundtrip () = List.iter roundtrip_value sample_values

let sample_result =
  { P.x_printed = "@@x = 3\n";
    x_tables =
      [ ( "R",
          Gsql.Table.create [ "name"; "n" ]
            [ [| V.Str "a"; V.Int 1 |]; [| V.Str "b"; V.Int 2 |] ] ) ];
    x_return = Some (E.R_scalar (V.Float 1.5));
    x_vsets = [ ("S", [| 0; 2; 5 |]) ] }

let test_result_roundtrip () =
  let s = J.to_string (P.result_to_json sample_result) in
  match J.parse s with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok j ->
    (match P.result_of_json j with
     | Ok r -> Alcotest.check exec_result "result" sample_result r
     | Error msg -> Alcotest.failf "decode failed: %s" msg)

let sample_requests =
  [ P.Install "CREATE QUERY q() { PRINT 1; }";
    P.List_queries;
    P.Describe "q";
    P.Drop "q";
    P.Invoke
      { P.iv_query = "q";
        iv_params = [ ("a", V.Int 1); ("b", V.Str "s") ];
        iv_timeout_ms = Some 250;
        iv_no_cache = true; iv_tenant = None };
    P.Invoke { P.iv_query = "q"; iv_params = []; iv_timeout_ms = None; iv_no_cache = false; iv_tenant = None };
    P.Stats;
    P.Ping;
    P.Shutdown ]

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      let s = J.to_string (P.request_to_json ~id:(i + 1) req) in
      match J.parse s with
      | Error msg -> Alcotest.failf "reparse failed: %s" msg
      | Ok j ->
        (match P.request_of_json j with
         | Ok (id, req') ->
           Alcotest.(check int) "id" (i + 1) id;
           Alcotest.(check bool) "request" true (req = req')
         | Error msg -> Alcotest.failf "decode failed: %s" msg))
    sample_requests

let sample_responses =
  [ P.Installed [ "a"; "b" ];
    P.Queries
      [ { P.qi_name = "q"; qi_params = [ ("n", "int"); ("who", "vertex<Person>") ] } ];
    P.Described ({ P.qi_name = "q"; qi_params = [] }, "CREATE QUERY q() { PRINT 1; }");
    P.Dropped "q";
    P.Result { rs_cached = true; rs_ms = 1.25; rs_result = sample_result };
    P.Stats_snapshot (J.Obj [ ("requests", J.Int 3) ]);
    P.Pong;
    P.Bye;
    P.Error (P.Timeout, "q exceeded its deadline", P.no_hint);
    P.Error (P.Resource_limit, "tenant a quota exhausted", P.retry_hint 125) ]

let response_equal a b =
  match (a, b) with
  | P.Result { rs_cached = ca; rs_ms = _; rs_result = ra },
    P.Result { rs_cached = cb; rs_ms = _; rs_result = rb } ->
    ca = cb && P.exec_result_equal ra rb
  | x, y -> x = y

let test_response_roundtrip () =
  List.iteri
    (fun i resp ->
      let s = J.to_string (P.response_to_json ~id:(i + 10) resp) in
      match J.parse s with
      | Error msg -> Alcotest.failf "reparse failed: %s" msg
      | Ok j ->
        (match P.response_of_json j with
         | Ok (id, resp') ->
           Alcotest.(check int) "id" (i + 10) id;
           Alcotest.(check bool) "response" true (response_equal resp resp')
         | Error msg -> Alcotest.failf "decode failed: %s" msg))
    sample_responses

let test_framing () =
  let doc = P.request_to_json ~id:3 (P.Describe "q") in
  let frame = P.encode_frame doc in
  (* Deliver the frame byte-by-byte: every prefix must say Need_more. *)
  for cut = 0 to String.length frame - 1 do
    match P.decode_frame (String.sub frame 0 cut) ~pos:0 with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.failf "prefix of %d bytes decoded a frame" cut
  done;
  (match P.decode_frame (frame ^ frame) ~pos:0 with
   | `Frame (Ok j, next) ->
     Alcotest.(check bool) "payload" true (j = doc);
     (match P.decode_frame (frame ^ frame) ~pos:next with
      | `Frame (Ok j2, next2) ->
        Alcotest.(check bool) "second payload" true (j2 = doc);
        Alcotest.(check int) "consumed all" (2 * String.length frame) next2
      | _ -> Alcotest.fail "second frame did not decode")
   | _ -> Alcotest.fail "first frame did not decode");
  (* An oversized length prefix is rejected, not allocated. *)
  let evil = "\xff\xff\xff\xff" in
  (match P.decode_frame evil ~pos:0 with
   | `Frame (Error _, _) -> ()
   | _ -> Alcotest.fail "oversized frame accepted")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_basic () =
  let c = Service.Cache.create ~capacity:2 () in
  let k1 = Service.Cache.key ~query:"q" ~params:[ ("a", V.Int 1) ] ~graph_version:0 ~plan_gen:0 in
  (* Normalization: parameter order does not matter, values and version do. *)
  let k1' = Service.Cache.key ~query:"q" ~params:[ ("a", V.Int 1) ] ~graph_version:0 ~plan_gen:0 in
  Alcotest.(check string) "key is canonical" k1 k1';
  Alcotest.(check bool) "version in key" true
    (k1 <> Service.Cache.key ~query:"q" ~params:[ ("a", V.Int 1) ] ~graph_version:1 ~plan_gen:0);
  Alcotest.(check bool) "params in key" true
    (k1 <> Service.Cache.key ~query:"q" ~params:[ ("a", V.Int 2) ] ~graph_version:0 ~plan_gen:0);
  Alcotest.(check bool) "plan generation in key" true
    (k1 <> Service.Cache.key ~query:"q" ~params:[ ("a", V.Int 1) ] ~graph_version:0 ~plan_gen:1);
  let k2 =
    Service.Cache.key ~query:"q"
      ~params:[ ("b", V.Str "y"); ("a", V.Int 2) ]
      ~graph_version:0 ~plan_gen:0
  in
  let k2' =
    Service.Cache.key ~query:"q"
      ~params:[ ("a", V.Int 2); ("b", V.Str "y") ]
      ~graph_version:0 ~plan_gen:0
  in
  Alcotest.(check string) "param order normalized" k2 k2';
  Alcotest.(check bool) "miss" true (Service.Cache.find c k1 = None);
  Service.Cache.store c k1 1;
  Alcotest.(check bool) "hit" true (Service.Cache.find c k1 = Some 1);
  Service.Cache.store c k2 2;
  (* Touch k1 so k2 is the LRU entry, then overflow. *)
  ignore (Service.Cache.find c k1);
  let k3 = Service.Cache.key ~query:"r" ~params:[] ~graph_version:0 ~plan_gen:0 in
  Service.Cache.store c k3 3;
  Alcotest.(check bool) "lru evicted" true (Service.Cache.find c k2 = None);
  Alcotest.(check bool) "recent kept" true (Service.Cache.find c k1 = Some 1);
  Alcotest.(check int) "size" 2 (Service.Cache.size c)

let test_cache_invalidation () =
  let c = Service.Cache.create ~capacity:8 () in
  let kq v = Service.Cache.key ~query:"q" ~params:[ ("a", V.Int v) ] ~graph_version:0 ~plan_gen:0 in
  let kr = Service.Cache.key ~query:"r" ~params:[] ~graph_version:0 ~plan_gen:0 in
  Service.Cache.store c (kq 1) 1;
  Service.Cache.store c (kq 2) 2;
  Service.Cache.store c kr 3;
  Service.Cache.invalidate_query c "q";
  Alcotest.(check bool) "q gone" true (Service.Cache.find c (kq 1) = None);
  Alcotest.(check bool) "r kept" true (Service.Cache.find c kr = Some 3);
  Service.Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Service.Cache.size c);
  match Service.Cache.stats c with
  | J.Obj fields -> Alcotest.(check bool) "stats has hits" true (List.mem_assoc "hits" fields)
  | _ -> Alcotest.fail "stats not an object"

let test_cache_zero_capacity () =
  let c = Service.Cache.create ~capacity:0 () in
  let k = Service.Cache.key ~query:"q" ~params:[] ~graph_version:0 ~plan_gen:0 in
  Service.Cache.store c k 1;
  Alcotest.(check bool) "never stores" true (Service.Cache.find c k = None)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_runs_jobs () =
  let pool = Service.Pool.create ~workers:3 ~queue_capacity:128 () in
  let jobs =
    List.init 50 (fun i ->
        match Service.Pool.submit pool (fun () -> i * i) with
        | Ok j -> j
        | Error _ -> Alcotest.fail "submit refused")
  in
  List.iteri
    (fun i j ->
      match Service.Pool.await ~timeout_ms:5000 j with
      | Service.Pool.Done v -> Alcotest.(check int) "job result" (i * i) v
      | _ -> Alcotest.fail "job did not complete")
    jobs;
  Service.Pool.shutdown pool

let test_pool_failure_captured () =
  let pool = Service.Pool.create ~workers:1 () in
  (match Service.Pool.submit pool (fun () -> failwith "boom") with
   | Ok j ->
     (match Service.Pool.await ~timeout_ms:5000 j with
      | Service.Pool.Failed msg ->
        let contains s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "message kept" true (contains msg "boom")
      | _ -> Alcotest.fail "expected failure")
   | Error _ -> Alcotest.fail "submit refused");
  Service.Pool.shutdown pool

let test_pool_admission_control () =
  let pool = Service.Pool.create ~workers:1 ~queue_capacity:1 () in
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
  (* Give the worker a moment to pick the blocker up, then fill the queue. *)
  ignore (Service.Pool.await ~timeout_ms:200 blocker);
  let queued = Service.Pool.submit pool (fun () -> 1) in
  Alcotest.(check bool) "one queued" true (Result.is_ok queued);
  (match Service.Pool.submit pool (fun () -> 2) with
   | Error (`Overloaded | `Tenant_overloaded) -> ()
   | Ok _ -> Alcotest.fail "queue bound not enforced"
   | Error `Shutdown -> Alcotest.fail "unexpected shutdown");
  Atomic.set gate true;
  (match queued with
   | Ok j ->
     (match Service.Pool.await ~timeout_ms:5000 j with
      | Service.Pool.Done 1 -> ()
      | _ -> Alcotest.fail "queued job lost")
   | Error _ -> ());
  Service.Pool.shutdown pool;
  (match Service.Pool.submit pool (fun () -> 3) with
   | Error `Shutdown -> ()
   | _ -> Alcotest.fail "submit after shutdown accepted")

(* [on_complete] wakes the server's event loop, so it must fire exactly
   once per retired job, and only once the job's terminal state is
   visible.  Shutdown joins the workers, after which the count is final. *)
let count_completions ?(on_fire = ignore) f =
  let fired = Atomic.make 0 in
  let on_complete () =
    on_fire ();
    Atomic.incr fired
  in
  let pool = Service.Pool.create ~workers:1 ~on_complete () in
  f pool;
  Service.Pool.shutdown pool;
  Atomic.get fired

let submit_ok pool thunk =
  match Service.Pool.submit pool thunk with
  | Ok j -> j
  | Error _ -> Alcotest.fail "submit refused"

(* A job that spins until [gate] opens, so the test decides when it ends. *)
let gated pool gate v =
  submit_ok pool (fun () ->
      while not (Atomic.get gate) do
        Unix.sleepf 0.001
      done;
      v)

let test_pool_on_complete_done () =
  let job = ref None and saw_unfinished = Atomic.make false in
  let on_fire () =
    match Option.map Service.Pool.state !job with
    | Some (Service.Pool.Done _ | Service.Pool.Failed _) -> ()
    | _ -> Atomic.set saw_unfinished true
  in
  let n =
    count_completions ~on_fire (fun pool ->
        let gate = Atomic.make false in
        let j = gated pool gate 7 in
        job := Some j;
        Atomic.set gate true;
        match Service.Pool.await ~timeout_ms:5000 j with
        | Service.Pool.Done 7 -> ()
        | _ -> Alcotest.fail "job lost")
  in
  Alcotest.(check int) "fired once for Done" 1 n;
  Alcotest.(check bool) "state already terminal when fired" false (Atomic.get saw_unfinished)

let test_pool_on_complete_failed () =
  let n =
    count_completions (fun pool ->
        let j = submit_ok pool (fun () -> failwith "boom") in
        match Service.Pool.await ~timeout_ms:5000 j with
        | Service.Pool.Failed _ -> ()
        | _ -> Alcotest.fail "expected failure")
  in
  Alcotest.(check int) "fired once for Failed" 1 n

let test_pool_on_complete_cancelled () =
  let ran = Atomic.make false in
  let n =
    count_completions (fun pool ->
        let gate = Atomic.make false in
        let blocker = gated pool gate 0 in
        ignore (Service.Pool.await ~timeout_ms:200 blocker);
        let queued = submit_ok pool (fun () -> Atomic.set ran true; 1) in
        Service.Pool.cancel queued;
        Atomic.set gate true;
        match Service.Pool.await ~timeout_ms:5000 queued with
        | Service.Pool.Failed _ -> ()
        | _ -> Alcotest.fail "cancelled job should fail")
  in
  Alcotest.(check bool) "cancelled thunk never ran" false (Atomic.get ran);
  Alcotest.(check int) "fired once per job (blocker + cancelled)" 2 n

(* ------------------------------------------------------------------ *)
(* Wake                                                                *)

let wake_readable ?(wait = 0.0) w =
  match Unix.select [ Service.Wake.fd w ] [] [] wait with
  | [], _, _ -> false
  | _ -> true

let with_wake f =
  let w = Service.Wake.create () in
  Fun.protect ~finally:(fun () -> Service.Wake.close w) (fun () -> f w)

(* Signals between two drains coalesce into one byte, and a drain re-arms
   the next signal. *)
let test_wake_coalesce_and_rearm () =
  with_wake (fun w ->
      Alcotest.(check bool) "idle" false (wake_readable w);
      Service.Wake.signal w;
      Alcotest.(check bool) "signal wakes" true (wake_readable w);
      Service.Wake.signal w;
      Service.Wake.drain w;
      Alcotest.(check bool) "second signal coalesced" false (wake_readable w);
      Service.Wake.signal w;
      Alcotest.(check bool) "re-armed after drain" true (wake_readable w);
      Service.Wake.drain w;
      Service.Wake.drain w;
      Alcotest.(check bool) "drain on empty pipe" false (wake_readable w);
      Service.Wake.signal w;
      Alcotest.(check bool) "re-armed after empty drain" true (wake_readable w))

(* A signaller domain races the loop's drain.  A wakeup lost in that race
   leaves the coalescing flag set over an empty pipe for good, so after
   the race one more signal must still make the pipe readable.  The
   signaller varies its pace so its signals land at every point of the
   loop's select/drain cycle. *)
let test_wake_no_lost_wakeup () =
  with_wake (fun w ->
      let finished = Atomic.make false in
      let signaller =
        Domain.spawn (fun () ->
            for i = 1 to 20_000 do
              Service.Wake.signal w;
              for _ = 1 to i mod 97 * 8 do
                Domain.cpu_relax ()
              done
            done;
            Atomic.set finished true)
      in
      while not (Atomic.get finished) do
        if wake_readable ~wait:0.01 w then Service.Wake.drain w
      done;
      Domain.join signaller;
      if wake_readable w then Service.Wake.drain w;
      Alcotest.(check bool) "drained" false (wake_readable w);
      Service.Wake.signal w;
      Alcotest.(check bool) "a signal after the race still wakes" true (wake_readable w))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

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

(* A deliberately slow query: a pure interpreter spin, graph-independent,
   but guaranteed to finish (so pool shutdown can join its worker). *)
let slow_src = {|
CREATE QUERY Slow (int n) {
  i = 0;
  WHILE i < n LIMIT 1000000000 DO
    i = i + 1;
  END;
  RETURN i;
}
|}

let diamond n = (Pathsem.Toygraphs.diamond_chain n).Pathsem.Toygraphs.g

let qn_params n = [ ("srcName", V.Str "v0"); ("tgtName", V.Str ("v" ^ string_of_int n)) ]

let mk_engine ?(n = 10) () =
  let engine = Service.Engine.create ~cache_capacity:16 ~graph:(diamond n) () in
  (match Service.Engine.install engine count_paths_src with
   | P.Installed [ "CountPaths" ] -> ()
   | _ -> Alcotest.fail "install failed");
  engine

let invoke_req ?timeout_ms ?(no_cache = false) query params =
  { P.iv_query = query; iv_params = params; iv_timeout_ms = timeout_ms; iv_no_cache = no_cache; iv_tenant = None }

type got_result = { rs_cached : bool; rs_result : P.exec_result }

let expect_result = function
  | P.Result { rs_cached; rs_result; _ } -> { rs_cached; rs_result }
  | P.Error (code, msg, _) -> Alcotest.failf "error %s: %s" (P.err_code_to_string code) msg
  | _ -> Alcotest.fail "unexpected response"

let test_engine_invoke_matches_eval () =
  let engine = mk_engine ~n:10 () in
  let direct =
    P.of_eval_result (E.run_source (diamond 10) ~params:(qn_params 10) count_paths_src)
  in
  let r = expect_result (Service.Engine.invoke engine (invoke_req "CountPaths" (qn_params 10))) in
  Alcotest.(check bool) "first run not cached" false r.rs_cached;
  Alcotest.check exec_result "equals direct Eval" direct r.rs_result;
  (* 2^10 = 1024 paths, printed through the service path too. *)
  Alcotest.(check bool) "1024 paths" true
    (match r.rs_result.P.x_tables with
     | (_, t) :: _ -> (match t.Gsql.Table.rows with [ [| _; V.Int c |] ] -> c = 1024 | _ -> false)
     | [] -> false)

let test_engine_cache_and_invalidation () =
  let engine = mk_engine ~n:8 () in
  let req = invoke_req "CountPaths" (qn_params 8) in
  let r1 = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "miss first" false r1.rs_cached;
  let r2 = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "hit second" true r2.rs_cached;
  Alcotest.check exec_result "hit equals miss" r1.rs_result r2.rs_result;
  (* Same query, different params: its own entry. *)
  let r3 = expect_result (Service.Engine.invoke engine (invoke_req "CountPaths" (qn_params 4))) in
  Alcotest.(check bool) "different params miss" false r3.rs_cached;
  (* no_cache bypasses the read path. *)
  let r4 = expect_result (Service.Engine.invoke engine { req with P.iv_no_cache = true; iv_tenant = None }) in
  Alcotest.(check bool) "no_cache executes" false r4.rs_cached;
  (* Reinstall invalidates the query's entries. *)
  (match Service.Engine.install engine count_paths_src with
   | P.Installed _ -> ()
   | _ -> Alcotest.fail "reinstall failed");
  let r5 = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "reinstall invalidates" false r5.rs_cached;
  (* Reload bumps the graph version: prior entries orphaned. *)
  let r6 = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "cached again" true r6.rs_cached;
  Service.Engine.reload engine (diamond 8);
  let r7 = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "reload invalidates" false r7.rs_cached

let test_engine_errors () =
  let engine = mk_engine () in
  (match Service.Engine.invoke engine (invoke_req "Nope" []) with
   | P.Error (P.Unknown_query, _, _) -> ()
   | _ -> Alcotest.fail "expected unknown_query");
  (match Service.Engine.invoke engine (invoke_req "CountPaths" [ ("srcName", V.Str "v0") ]) with
   | P.Error (P.Bad_params, msg, _) ->
     Alcotest.(check bool) "names missing param" true
       (String.length msg > 0 && String.sub msg 0 7 = "missing")
   | _ -> Alcotest.fail "expected bad_params (missing)");
  (match
     Service.Engine.invoke engine
       (invoke_req "CountPaths" (("extra", V.Int 1) :: qn_params 10))
   with
   | P.Error (P.Bad_params, _, _) -> ()
   | _ -> Alcotest.fail "expected bad_params (unknown)");
  (match Service.Engine.install engine "CREATE QUERY broken() { SELECT }" with
   | P.Error (P.Exec_error, _, _) -> ()
   | _ -> Alcotest.fail "expected install error");
  (* A missing attribute is a query error ([exec_error]), not an internal
     failure. *)
  (match
     Service.Engine.install engine
       "CREATE QUERY BadAttr() { SumAccum<int> @@s; \
        S = SELECT t FROM V:s -(E>)- V:t ACCUM @@s += t.nosuch; PRINT @@s; }"
   with
   | P.Installed [ "BadAttr" ] -> ()
   | _ -> Alcotest.fail "BadAttr install failed");
  (match Service.Engine.invoke engine (invoke_req "BadAttr" []) with
   | P.Error (P.Exec_error, msg, _) ->
     Alcotest.(check string) "names the attribute" "vertex type V has no attribute nosuch" msg
   | _ -> Alcotest.fail "expected exec_error for a missing attribute");
  (match Service.Engine.describe engine "CountPaths" with
   | P.Described (qi, src) ->
     Alcotest.(check (list (pair string string)))
       "signature" [ ("srcName", "string"); ("tgtName", "string") ] qi.P.qi_params;
     Alcotest.(check bool) "source re-rendered" true (String.length src > 0)
   | _ -> Alcotest.fail "describe failed");
  (match Service.Engine.drop engine "CountPaths" with
   | P.Dropped "CountPaths" -> ()
   | _ -> Alcotest.fail "drop failed");
  (match Service.Engine.invoke engine (invoke_req "CountPaths" (qn_params 10)) with
   | P.Error (P.Unknown_query, _, _) -> ()
   | _ -> Alcotest.fail "dropped query still invokable")

(* The response served through the full engine path (compiled plan,
   cache, governor) equals the interpreter oracle's result on a fresh
   copy of the graph — executed, then cached. *)
let test_engine_compiled_vs_interp () =
  let engine = mk_engine ~n:10 () in
  let oracle =
    P.of_eval_result
      (E.run_query (diamond 10) ~params:(qn_params 10) (Gsql.Parser.parse_query count_paths_src))
  in
  List.iter
    (fun label ->
      let served =
        expect_result (Service.Engine.invoke engine (invoke_req "CountPaths" (qn_params 10)))
      in
      Alcotest.check exec_result ("compiled = interpreted, " ^ label) oracle served.rs_result)
    [ "executed"; "cached" ]

(* Two CountPaths variants distinguishable by output; reinstalling must
   atomically swap plan + cache identity, so no interleaving of invokes
   and reinstalls can serve one definition's cached result for the other. *)
let variant tag =
  Printf.sprintf
    {|CREATE QUERY Flip (string srcName, string tgtName) {
        SumAccum<int> @pathCount;
        R = SELECT t
            FROM  V:s -(E>*)- V:t
            WHERE s.name = srcName AND t.name = tgtName
            ACCUM t.@pathCount += %d;
        PRINT R[R.name, R.@pathCount];
      }|}
    tag

let test_engine_reinstall_atomicity () =
  let engine = Service.Engine.create ~cache_capacity:16 ~graph:(diamond 6) () in
  let install src =
    match Service.Engine.install engine src with
    | P.Installed _ -> ()
    | _ -> Alcotest.fail "install failed"
  in
  install (variant 1);
  let req = invoke_req "Flip" (qn_params 6) in
  let expected tag =
    P.of_eval_result (E.run_source (diamond 6) ~params:(qn_params 6) (variant tag))
  in
  let e1 = expected 1 and e2 = expected 2 in
  Alcotest.(check bool) "variants differ" false (P.exec_result_equal e1 e2);
  (* Storm: one domain flips the installed definition while this one
     invokes.  Every response must be exactly one of the two definitions'
     results — never a stale mix of new plan and old cache entry. *)
  let stop = Atomic.make false in
  let flipper =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          install (variant (1 + (!i land 1)))
        done)
  in
  for _ = 1 to 200 do
    let r = expect_result (Service.Engine.invoke engine req) in
    Alcotest.(check bool) "response is a valid definition's result" true
      (P.exec_result_equal r.rs_result e1 || P.exec_result_equal r.rs_result e2)
  done;
  Atomic.set stop true;
  Domain.join flipper;
  (* Settled: the latest definition wins, cached or not. *)
  install (variant 2);
  let r = expect_result (Service.Engine.invoke engine req) in
  Alcotest.check exec_result "latest definition served" e2 r.rs_result;
  let r' = expect_result (Service.Engine.invoke engine req) in
  Alcotest.(check bool) "then cached" true r'.rs_cached;
  Alcotest.check exec_result "cached payload still latest" e2 r'.rs_result

let test_engine_plan_stats () =
  let engine = mk_engine () in
  match Service.Engine.stats engine ~extra:[] with
  | P.Stats_snapshot (J.Obj fields) ->
    (match List.assoc_opt "plans" fields with
     | Some (J.Obj plans) ->
       (match List.assoc_opt "CountPaths" plans with
        | Some (J.Obj p) ->
          Alcotest.(check bool) "compile_ms" true (List.mem_assoc "compile_ms" p);
          Alcotest.(check bool) "plan_ops" true (List.mem_assoc "plan_ops" p);
          Alcotest.(check bool) "generation" true (List.mem_assoc "generation" p)
        | _ -> Alcotest.fail "no CountPaths plan stats")
     | _ -> Alcotest.fail "no plans field");
    Alcotest.(check bool) "no executor switch" false (List.mem_assoc "interp" fields)
  | _ -> Alcotest.fail "stats failed"

(* ------------------------------------------------------------------ *)
(* End-to-end over the socket                                          *)

let fresh_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsqlsvc_%d_%d.sock" (Unix.getpid ()) !counter)

let with_server ?faults ?workers ?(queue_capacity = 64) ?(default_timeout_ms = 10_000)
    ?(max_connections = 64) ?(n = 10) ?(sources = [ count_paths_src ]) f =
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
      max_connections }
  in
  let cfg = match faults with Some faults -> { cfg with Service.Server.faults } | None -> cfg in
  let server = Service.Server.create cfg engine in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Domain.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (`Unix path))

let test_e2e_concurrent_clients () =
  with_server ~n:10 (fun ep ->
      let expected =
        P.of_eval_result (E.run_source (diamond 10) ~params:(qn_params 10) count_paths_src)
      in
      (* >= 4 concurrent connections, each forcing real execution. *)
      let clients = 5 in
      let domains =
        List.init clients (fun _ ->
            Domain.spawn (fun () ->
                let c = Service.Client.connect ep in
                Fun.protect
                  ~finally:(fun () -> Service.Client.close c)
                  (fun () ->
                    Service.Client.invoke c ~no_cache:true ~query:"CountPaths"
                      ~params:(qn_params 10) ())))
      in
      let responses = List.map Domain.join domains in
      List.iter
        (fun resp ->
          let r = expect_result resp in
          Alcotest.check exec_result "same as direct Eval" expected r.rs_result)
        responses)

(* A connection over the limit gets an id-0 overloaded frame and is
   closed; whatever the client reads next (EOF or a peer reset) must
   surface as Client.Error, never as a raw Unix_error. *)
let test_e2e_connection_limit () =
  with_server ~max_connections:1 (fun ep ->
      let c1 = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c1)
        (fun () ->
          (match Service.Client.ping c1 with
           | P.Pong -> ()
           | _ -> Alcotest.fail "first client should be served");
          for _ = 1 to 5 do
            let c2 = Service.Client.connect ep in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c2)
              (fun () ->
                match Service.Client.ping c2 with
                | _ -> Alcotest.fail "second client should be refused"
                | exception Service.Client.Error _ -> ())
          done))

let test_e2e_cache_hit_on_repeat () =
  with_server (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let r1 =
            expect_result
              (Service.Client.invoke c ~query:"CountPaths" ~params:(qn_params 10) ())
          in
          Alcotest.(check bool) "first executes" false r1.rs_cached;
          let r2 =
            expect_result
              (Service.Client.invoke c ~query:"CountPaths" ~params:(qn_params 10) ())
          in
          Alcotest.(check bool) "repeat hits the cache" true r2.rs_cached;
          Alcotest.check exec_result "hit payload identical" r1.rs_result r2.rs_result;
          (* Another connection shares the cache. *)
          let c2 = Service.Client.connect ep in
          Fun.protect
            ~finally:(fun () -> Service.Client.close c2)
            (fun () ->
              let r3 =
                expect_result
                  (Service.Client.invoke c2 ~query:"CountPaths" ~params:(qn_params 10) ())
              in
              Alcotest.(check bool) "cross-connection hit" true r3.rs_cached)))

let test_e2e_timeout () =
  with_server ~sources:[ count_paths_src; slow_src ] (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match
             Service.Client.invoke c ~timeout_ms:30 ~query:"Slow"
               ~params:[ ("n", V.Int 1_000_000) ] ()
           with
           | P.Error (P.Timeout, _, _) -> ()
           | P.Result _ -> Alcotest.fail "slow query beat a 30ms deadline"
           | _ -> Alcotest.fail "unexpected response");
          let elapsed = Unix.gettimeofday () -. t0 in
          (* The error must arrive on the deadline, not after execution. *)
          Alcotest.(check bool) "timeout reported promptly" true (elapsed < 2.0);
          (* The server survives; quick queries keep working. *)
          let r =
            expect_result
              (Service.Client.invoke c ~query:"CountPaths" ~params:(qn_params 10) ())
          in
          ignore r))

let test_e2e_overload_sheds () =
  with_server ~workers:1 ~queue_capacity:1 ~sources:[ count_paths_src; slow_src ]
    (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          (* Pipeline: one long job occupies the worker, one fits the queue,
             the rest must be shed with `overloaded`. *)
          let slow_req =
            P.Invoke
              { P.iv_query = "Slow";
                iv_params = [ ("n", V.Int 1_000_000) ];
                iv_timeout_ms = Some 8000;
                iv_no_cache = true; iv_tenant = None }
          in
          let fast_req =
            P.Invoke
              { P.iv_query = "CountPaths";
                iv_params = qn_params 10;
                iv_timeout_ms = Some 8000;
                iv_no_cache = true; iv_tenant = None }
          in
          let ids = Service.Client.send c slow_req :: List.init 4 (fun _ -> Service.Client.send c fast_req) in
          let responses = List.map (fun _ -> Service.Client.recv c) ids in
          let count pred = List.length (List.filter (fun (_, r) -> pred r) responses) in
          Alcotest.(check int) "all answered" (List.length ids) (List.length responses);
          Alcotest.(check bool) "some shed" true
            (count (function P.Error (P.Overloaded, _, _) -> true | _ -> false) >= 1);
          Alcotest.(check bool) "some served" true
            (count (function P.Result _ -> true | _ -> false) >= 1);
          (* Shedding is per-request, not per-connection: the next call works. *)
          match Service.Client.ping c with
          | P.Pong -> ()
          | _ -> Alcotest.fail "connection dead after shedding"))

let test_e2e_control_plane () =
  with_server (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          (match Service.Client.ping c with
           | P.Pong -> ()
           | _ -> Alcotest.fail "ping failed");
          (match Service.Client.call c P.List_queries with
           | P.Queries [ qi ] -> Alcotest.(check string) "name" "CountPaths" qi.P.qi_name
           | _ -> Alcotest.fail "list failed");
          (match Service.Client.install c slow_src with
           | P.Installed [ "Slow" ] -> ()
           | _ -> Alcotest.fail "remote install failed");
          (match Service.Client.call c (P.Invoke (invoke_req "Slow" [ ("n", V.Int 10) ])) with
           | P.Result { rs_result = { P.x_return = Some (E.R_scalar (V.Int 10)); _ }; _ } -> ()
           | _ -> Alcotest.fail "remote-installed query did not run");
          (match Service.Client.stats c with
           | P.Stats_snapshot (J.Obj fields) ->
             Alcotest.(check bool) "has cache stats" true (List.mem_assoc "cache" fields);
             Alcotest.(check bool) "has queue depth" true (List.mem_assoc "queue_depth" fields);
             Alcotest.(check bool) "has workers" true (List.mem_assoc "workers" fields)
           | _ -> Alcotest.fail "stats failed")))

(* A completed job wakes the loop at once.  When the loop only noticed
   completions on its 20 ms select tick, each of these sequential invokes
   waited out the whole tick (~1 s total); now each is a round trip plus
   a tiny execution. *)
let test_e2e_completion_wakes_loop () =
  with_server ~faults:Service.Faults.none ~workers:2 ~n:4 (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let run () =
            ignore
              (expect_result
                 (Service.Client.invoke c ~no_cache:true ~query:"CountPaths"
                    ~params:(qn_params 4) ()))
          in
          run ();
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 50 do
            run ()
          done;
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Alcotest.(check bool) (Printf.sprintf "50 invokes in %.1f ms < 250 ms" ms) true
            (ms < 250.0)))

let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* [stop] wakes the loop instead of waiting out a tick, and [run]'s drain
   releases every fd the server opened (listener and wake pipe). *)
let test_e2e_start_stop_no_fd_leak () =
  let engine = Service.Engine.create ~graph:(diamond 4) () in
  let before = open_fds () in
  let stop_ms =
    List.init 20 (fun _ ->
        let path = fresh_socket_path () in
        let server =
          Service.Server.create
            { (Service.Server.default_config (`Unix path)) with
              Service.Server.workers = Some 1 }
            engine
        in
        let runner = Domain.spawn (fun () -> Service.Server.run server) in
        (* Let the loop settle into select before stopping it. *)
        Unix.sleepf 0.005;
        let t0 = Unix.gettimeofday () in
        Service.Server.stop server;
        Domain.join runner;
        (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let median = List.nth (List.sort compare stop_ms) 10 in
  Alcotest.(check bool) (Printf.sprintf "median stop %.2f ms < 10 ms" median) true
    (median < 10.0);
  match (before, open_fds ()) with
  | Some b, Some a -> Alcotest.(check int) "fd count back to start" b a
  | _ -> ()

let test_e2e_shutdown_request () =
  let path = fresh_socket_path () in
  let engine = Service.Engine.create ~graph:(diamond 4) () in
  (match Service.Engine.install engine count_paths_src with
   | P.Installed _ -> ()
   | _ -> Alcotest.fail "install failed");
  let server = Service.Server.create (Service.Server.default_config (`Unix path)) engine in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  let c = Service.Client.connect (`Unix path) in
  (match Service.Client.shutdown c with
   | P.Bye -> ()
   | _ -> Alcotest.fail "shutdown not acknowledged");
  Service.Client.close c;
  (* The run loop must exit by itself — no Server.stop here. *)
  Domain.join runner;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

let () =
  Alcotest.run "service"
    [ ( "protocol",
        [ Alcotest.test_case "value round-trip" `Quick test_value_roundtrip;
          Alcotest.test_case "result round-trip" `Quick test_result_roundtrip;
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "framing" `Quick test_framing ] );
      ( "cache",
        [ Alcotest.test_case "lru basics" `Quick test_cache_basic;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity ] );
      ( "pool",
        [ Alcotest.test_case "runs jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "failure captured" `Quick test_pool_failure_captured;
          Alcotest.test_case "admission control" `Quick test_pool_admission_control;
          Alcotest.test_case "on_complete once for Done" `Quick test_pool_on_complete_done;
          Alcotest.test_case "on_complete once for Failed" `Quick test_pool_on_complete_failed;
          Alcotest.test_case "on_complete once for cancelled" `Quick
            test_pool_on_complete_cancelled ] );
      ( "wake",
        [ Alcotest.test_case "coalesce and re-arm" `Quick test_wake_coalesce_and_rearm;
          Alcotest.test_case "no lost wakeup under a race" `Quick test_wake_no_lost_wakeup ] );
      ( "engine",
        [ Alcotest.test_case "invoke = direct eval" `Quick test_engine_invoke_matches_eval;
          Alcotest.test_case "cache + invalidation" `Quick test_engine_cache_and_invalidation;
          Alcotest.test_case "errors" `Quick test_engine_errors;
          Alcotest.test_case "compiled = interp" `Quick test_engine_compiled_vs_interp;
          Alcotest.test_case "reinstall atomicity" `Quick test_engine_reinstall_atomicity;
          Alcotest.test_case "plan stats" `Quick test_engine_plan_stats ] );
      ( "e2e",
        [ Alcotest.test_case "concurrent clients" `Quick test_e2e_concurrent_clients;
          Alcotest.test_case "cache hit on repeat" `Quick test_e2e_cache_hit_on_repeat;
          Alcotest.test_case "connection limit raises Client.Error" `Quick
            test_e2e_connection_limit;
          Alcotest.test_case "timeout" `Quick test_e2e_timeout;
          Alcotest.test_case "overload sheds" `Quick test_e2e_overload_sheds;
          Alcotest.test_case "control plane" `Quick test_e2e_control_plane;
          Alcotest.test_case "shutdown request" `Quick test_e2e_shutdown_request;
          Alcotest.test_case "completion wakes the loop" `Quick test_e2e_completion_wakes_loop;
          Alcotest.test_case "start/stop leaks no fd" `Quick test_e2e_start_stop_no_fd_leak ] ) ]
