(* MVCC-lite write path, top to bottom: copy-on-write graph snapshots,
   mutation journaling and replay, install-time mutating/read-only
   classification, the engine's commit protocol (version bump, cache
   invalidation, read-only degradation on WAL failure), and the server's
   single-writer lane, per-connection in-flight cap and frame hardening
   end-to-end. *)

module J = Obs.Json
module V = Pgraph.Value
module G = Pgraph.Graph
module S = Pgraph.Schema
module P = Service.Protocol
module E = Gsql.Eval

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

(* A small graph whose vertices carry two integer attributes [a] and [b]:
   the consistency probe writes both in one commit, readers check they
   never observe them apart. *)
let mut_graph () =
  let s = S.create () in
  ignore
    (S.add_vertex_type s "N" [ ("name", S.T_string); ("a", S.T_int); ("b", S.T_int) ]);
  ignore (S.add_edge_type s "L" ~directed:true [ ("w", S.T_int) ]);
  let g = G.create s in
  let v name = G.add_vertex g "N" [ ("name", V.Str name) ] in
  let n0 = v "n0" and n1 = v "n1" and n2 = v "n2" in
  ignore (G.add_edge g "L" n0 n1 []);
  ignore (G.add_edge g "L" n1 n2 []);
  g

let set_both_src = {|
CREATE QUERY SetBoth (string who, int x) {
  S = SELECT s
      FROM N:s -(L>*0..0)- N:t
      WHERE s.name = who
      POST_ACCUM s.a = x, s.b = x;
}
|}

let read_both_src = {|
CREATE QUERY ReadBoth (string who) {
  SumAccum<int> @@ra;
  SumAccum<int> @@rb;
  S = SELECT s
      FROM N:s -(L>*0..0)- N:t
      WHERE s.name = who
      ACCUM @@ra += s.a, @@rb += s.b;
  RETURN (@@ra, @@rb);
}
|}

let add_node_src = {|
CREATE QUERY AddNode (string nm, int v) {
  INSERT INTO N (name, a, b) VALUES (nm, v, v);
}
|}

let slow_src = {|
CREATE QUERY Slow (int n) {
  i = 0;
  WHILE i < n LIMIT 1000000000 DO
    i = i + 1;
  END;
  RETURN i;
}
|}

let invoke_req ?timeout_ms ?(no_cache = false) query params =
  { P.iv_query = query; iv_params = params; iv_timeout_ms = timeout_ms; iv_no_cache = no_cache; iv_tenant = None }

let exec_result = Alcotest.testable P.pp_exec_result P.exec_result_equal

type got = { rs_cached : bool; rs_result : P.exec_result }

let expect_result = function
  | P.Result { rs_cached; rs_result; _ } -> { rs_cached; rs_result }
  | P.Error (code, msg, _) -> Alcotest.failf "error %s: %s" (P.err_code_to_string code) msg
  | _ -> Alcotest.fail "unexpected response"

let pair_of_result (r : P.exec_result) =
  match r.P.x_return with
  | Some (E.R_scalar (V.Vtuple [| V.Int a; V.Int b |])) -> (a, b)
  | _ -> Alcotest.fail "expected an (int, int) return"

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsql_dur_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* ------------------------------------------------------------------ *)
(* Copy-on-write snapshots                                             *)

let test_snapshot_isolation () =
  let base = mut_graph () in
  let clone = G.snapshot base in
  (* Writer mutates the clone; the base must not move. *)
  G.set_vertex_attr clone 0 "a" (V.Int 42);
  let added = G.add_vertex clone "N" [ ("name", V.Str "n3") ] in
  ignore (G.add_edge clone "L" 0 added []);
  Alcotest.(check bool) "base attr untouched" true (V.equal (V.Int 0) (G.vertex_attr base 0 "a"));
  Alcotest.(check int) "base vertex count" 3 (G.n_vertices base);
  Alcotest.(check int) "base edge count" 2 (G.n_edges base);
  Alcotest.(check int) "base adjacency" 1 (Array.length (G.adjacency base 0));
  Alcotest.(check bool) "clone sees its write" true
    (V.equal (V.Int 42) (G.vertex_attr clone 0 "a"));
  Alcotest.(check int) "clone vertex count" 4 (G.n_vertices clone);
  Alcotest.(check int) "clone adjacency" 2 (Array.length (G.adjacency clone 0));
  (* And the other direction: writes to the base don't leak into a clone. *)
  let clone2 = G.snapshot base in
  G.set_vertex_attr base 1 "b" (V.Int 7);
  Alcotest.(check bool) "clone2 isolated from base write" true
    (V.equal (V.Int 0) (G.vertex_attr clone2 1 "b"))

let test_journal_capture_and_replay () =
  let base = mut_graph () in
  let clone = G.snapshot base in
  let ops = ref [] in
  G.set_journal clone (Some (fun m -> ops := m :: !ops));
  G.set_vertex_attr clone 0 "a" (V.Int 5);
  let vid = G.add_vertex clone "N" [ ("name", V.Str "nx"); ("a", V.Int 1) ] in
  let eid = G.add_edge clone "L" 0 vid [] in
  G.set_edge_attr clone eid "w" (V.Int 2);
  G.set_journal clone None;
  let ops = List.rev !ops in
  Alcotest.(check int) "four ops captured" 4 (List.length ops);
  (* Replaying the captured ops against a fresh snapshot of the same base
     reproduces the clone's state — the recovery path in miniature. *)
  let replay = G.snapshot base in
  List.iter (G.apply_mutation replay) ops;
  Alcotest.(check bool) "attr replayed" true (V.equal (V.Int 5) (G.vertex_attr replay 0 "a"));
  Alcotest.(check int) "vertex replayed" (G.n_vertices clone) (G.n_vertices replay);
  Alcotest.(check int) "edge replayed" (G.n_edges clone) (G.n_edges replay);
  Alcotest.(check bool) "new vertex attrs" true
    (V.equal (V.Int 1) (G.vertex_attr replay vid "a"));
  Alcotest.(check bool) "edge attr replayed" true
    (V.equal (V.Int 2) (G.edge_attr replay eid "w"))

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let test_classification () =
  let mutates src = Gsql.Analyze.block_mutates (Gsql.Parser.parse_block src) in
  Alcotest.(check bool) "print is read-only" false (mutates "PRINT 1;");
  Alcotest.(check bool) "select+accum is read-only" false
    (mutates "SumAccum<int> @@x; S = SELECT t FROM V:s -(E>)- V:t ACCUM @@x += 1;");
  Alcotest.(check bool) "insert mutates" true
    (mutates "INSERT INTO N (name) VALUES ('x');");
  Alcotest.(check bool) "attr assign mutates" true
    (mutates "S = SELECT s FROM N:s -(L>)- N:t POST_ACCUM s.a = 1;");
  Alcotest.(check bool) "insert in while mutates" true
    (mutates "i = 0; WHILE i < 3 DO INSERT INTO N (name) VALUES ('x'); i = i + 1; END;");
  Alcotest.(check bool) "assign in if mutates" true
    (mutates
       "IF 1 < 2 THEN S = SELECT s FROM N:s -(L>)- N:t ACCUM s.a = 1; END;")

(* ------------------------------------------------------------------ *)
(* Engine commit protocol                                              *)

let mk_mut_engine ?persist ?version () =
  let graph = mut_graph () in
  let engine = Service.Engine.create ~cache_capacity:16 ?persist ?version ~graph () in
  List.iter
    (fun src ->
      match Service.Engine.install engine src with
      | P.Installed _ -> ()
      | P.Error (_, msg, _) -> Alcotest.failf "install failed: %s" msg
      | _ -> Alcotest.fail "install failed")
    [ set_both_src; read_both_src; add_node_src ];
  engine

let test_engine_commit_bumps_version () =
  let engine = mk_mut_engine () in
  Alcotest.(check int) "starts at 0" 0 (Service.Engine.graph_version engine);
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "SetBoth" [ ("who", V.Str "n0"); ("x", V.Int 11) ]))
  in
  Alcotest.(check int) "commit bumps" 1 (Service.Engine.graph_version engine);
  Alcotest.(check bool) "published" true
    (V.equal (V.Int 11) (G.vertex_attr (Service.Engine.graph engine) 0 "a"));
  (* A mutating-classified run that touches nothing commits nothing. *)
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "SetBoth" [ ("who", V.Str "nobody"); ("x", V.Int 99) ]))
  in
  Alcotest.(check int) "no-op run does not bump" 1 (Service.Engine.graph_version engine);
  (* INSERT through the same lane. *)
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "AddNode" [ ("nm", V.Str "n3"); ("v", V.Int 3) ]))
  in
  Alcotest.(check int) "insert bumps" 2 (Service.Engine.graph_version engine);
  Alcotest.(check int) "insert applied" 4 (G.n_vertices (Service.Engine.graph engine))

(* Mutating queries run through their compiled plans; the write path
   (snapshot, journal, WAL, publish) must end in exactly the state the
   interpreter oracle produces on a fresh copy of the graph. *)
let test_mutate_compiled_vs_interp () =
  let calls =
    [ ("SetBoth", set_both_src, [ ("who", V.Str "n1"); ("x", V.Int 23) ]);
      ("AddNode", add_node_src, [ ("nm", V.Str "n3"); ("v", V.Int 5) ]);
      ("ReadBoth", read_both_src, [ ("who", V.Str "n1") ]) ]
  in
  let engine = mk_mut_engine () in
  let served =
    List.map
      (fun (name, _, params) ->
        (expect_result (Service.Engine.invoke engine (invoke_req name params))).rs_result)
      calls
  in
  let g = mut_graph () in
  let oracle =
    List.map
      (fun (_, src, params) -> P.of_eval_result (E.run_query g ~params (Gsql.Parser.parse_query src)))
      calls
  in
  List.iter2
    (fun (name, _, _) (o, s) -> Alcotest.check exec_result ("same result: " ^ name) o s)
    calls (List.combine oracle served);
  Alcotest.(check int) "one version per commit" 2 (Service.Engine.graph_version engine);
  Alcotest.(check int) "same vertex count" (G.n_vertices g)
    (G.n_vertices (Service.Engine.graph engine));
  Alcotest.(check (pair int int)) "same committed attrs"
    (pair_of_result (List.nth oracle 2)) (pair_of_result (List.nth served 2))

(* Satellite: cache behavior across mutation — a mutation must orphan
   stale entries, and a result cached before the commit must never be
   served after it. *)
let test_cache_across_mutation () =
  let engine = mk_mut_engine () in
  let read = invoke_req "ReadBoth" [ ("who", V.Str "n0") ] in
  let r1 = expect_result (Service.Engine.invoke engine read) in
  Alcotest.(check bool) "first read misses" false r1.rs_cached;
  Alcotest.(check bool) "initial value" true ((0, 0) = pair_of_result r1.rs_result);
  let r2 = expect_result (Service.Engine.invoke engine read) in
  Alcotest.(check bool) "second read hits" true r2.rs_cached;
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "SetBoth" [ ("who", V.Str "n0"); ("x", V.Int 5) ]))
  in
  let r3 = expect_result (Service.Engine.invoke engine read) in
  Alcotest.(check bool) "post-commit read re-executes" false r3.rs_cached;
  Alcotest.(check bool) "post-commit value" true ((5, 5) = pair_of_result r3.rs_result);
  let r4 = expect_result (Service.Engine.invoke engine read) in
  Alcotest.(check bool) "new result cached again" true r4.rs_cached;
  Alcotest.(check bool) "cached value is the new one" true
    ((5, 5) = pair_of_result r4.rs_result)

let always_fail fault = { Store.Wal.on_append = (fun () -> Some fault) }

let test_engine_read_only_degradation () =
  let dir = tmp_dir () in
  let persist, _ =
    Store.Persist.open_dir ~hooks:(always_fail `Fsync_fail) dir ~base:mut_graph
  in
  let engine = mk_mut_engine ~persist () in
  (match
     Service.Engine.invoke engine (invoke_req "SetBoth" [ ("who", V.Str "n0"); ("x", V.Int 1) ])
   with
   | P.Error (P.Read_only, msg, _) ->
     Alcotest.(check bool) "names the failure" true (String.length msg > 0)
   | _ -> Alcotest.fail "expected read_only on WAL failure");
  (* Atomicity: the failed commit left no trace. *)
  Alcotest.(check int) "version unchanged" 0 (Service.Engine.graph_version engine);
  Alcotest.(check bool) "mutation not published" true
    (V.equal (V.Int 0) (G.vertex_attr (Service.Engine.graph engine) 0 "a"));
  Alcotest.(check bool) "degraded" true (Service.Engine.read_only engine <> None);
  (* Later mutations are refused up front; reads keep working. *)
  (match
     Service.Engine.invoke engine (invoke_req "SetBoth" [ ("who", V.Str "n0"); ("x", V.Int 2) ])
   with
   | P.Error (P.Read_only, _, _) -> ()
   | _ -> Alcotest.fail "expected read_only refusal");
  let r = expect_result (Service.Engine.invoke engine (invoke_req "ReadBoth" [ ("who", V.Str "n0") ])) in
  Alcotest.(check bool) "reads still flow" true ((0, 0) = pair_of_result r.rs_result)

let test_engine_persist_recovery () =
  let dir = tmp_dir () in
  let persist, r0 = Store.Persist.open_dir dir ~base:mut_graph in
  let engine = mk_mut_engine ~persist ~version:r0.Store.Persist.r_version () in
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "SetBoth" [ ("who", V.Str "n1"); ("x", V.Int 21) ]))
  in
  let _ =
    expect_result
      (Service.Engine.invoke engine
         (invoke_req "AddNode" [ ("nm", V.Str "n3"); ("v", V.Int 9) ]))
  in
  Alcotest.(check int) "two commits" 2 (Service.Engine.graph_version engine);
  Store.Persist.close persist;
  (* "Restart": recover from disk with the same base and compare. *)
  let _, r = Store.Persist.open_dir dir ~base:mut_graph in
  Alcotest.(check int) "recovered version" 2 r.Store.Persist.r_version;
  let g = r.Store.Persist.r_graph in
  Alcotest.(check bool) "attr recovered" true (V.equal (V.Int 21) (G.vertex_attr g 1 "a"));
  Alcotest.(check int) "insert recovered" 4 (G.n_vertices g);
  Alcotest.(check bool) "inserted attrs recovered" true
    (V.equal (V.Int 9) (G.vertex_attr g 3 "a"))

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                   *)

let fresh_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gsqldur_%d_%d.sock" (Unix.getpid ()) !counter)

let with_server ?workers ?max_inflight ?max_frame_bytes ?(sources = [])
    ?(graph = mut_graph ()) f =
  let path = fresh_socket_path () in
  let engine = Service.Engine.create ~cache_capacity:32 ~graph () in
  List.iter
    (fun src ->
      match Service.Engine.install engine src with
      | P.Installed _ -> ()
      | P.Error (_, msg, _) -> Alcotest.failf "install failed: %s" msg
      | _ -> Alcotest.fail "install failed")
    sources;
  let base = Service.Server.default_config (`Unix path) in
  let cfg =
    { base with
      Service.Server.workers;
      max_inflight = Option.value ~default:base.Service.Server.max_inflight max_inflight;
      max_frame_bytes =
        Option.value ~default:base.Service.Server.max_frame_bytes max_frame_bytes;
      default_timeout_ms = 10_000 }
  in
  let server = Service.Server.create cfg engine in
  let runner = Domain.spawn (fun () -> Service.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Domain.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (`Unix path))

let stats_fields c =
  match Service.Client.stats c with
  | P.Stats_snapshot (J.Obj fields) -> fields
  | _ -> Alcotest.fail "stats failed"

let stats_int fields k =
  match List.assoc_opt k fields with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats field %s missing" k

(* Acceptance: concurrent readers stay consistent while a writer commits —
   both attributes are always observed from the same version. *)
let test_e2e_reader_writer_interleaving () =
  with_server ~workers:4 ~sources:[ set_both_src; read_both_src ] (fun ep ->
      let writes = 15 in
      let writer =
        Domain.spawn (fun () ->
            let c = Service.Client.connect ep in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () ->
                for x = 1 to writes do
                  match
                    Service.Client.invoke c ~query:"SetBoth"
                      ~params:[ ("who", V.Str "n0"); ("x", V.Int x) ] ()
                  with
                  | P.Result _ -> ()
                  | P.Error (code, msg, _) ->
                    Alcotest.failf "write failed: %s: %s" (P.err_code_to_string code) msg
                  | _ -> Alcotest.fail "unexpected write response"
                done))
      in
      let reader () =
        let c = Service.Client.connect ep in
        Fun.protect
          ~finally:(fun () -> Service.Client.close c)
          (fun () ->
            let torn = ref 0 in
            for _ = 1 to 60 do
              match
                Service.Client.invoke c ~query:"ReadBoth"
                  ~params:[ ("who", V.Str "n0") ] ()
              with
              | P.Result { rs_result; _ } ->
                let a, b = pair_of_result rs_result in
                if a <> b then incr torn
              | P.Error (code, msg, _) ->
                Alcotest.failf "read failed: %s: %s" (P.err_code_to_string code) msg
              | _ -> Alcotest.fail "unexpected read response"
            done;
            !torn)
      in
      let readers = List.init 2 (fun _ -> Domain.spawn reader) in
      let torn = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
      Domain.join writer;
      Alcotest.(check int) "no torn reads" 0 torn;
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let fields = stats_fields c in
          Alcotest.(check int) "all writes committed" writes (stats_int fields "commits");
          Alcotest.(check int) "version tracks commits" writes
            (stats_int fields "graph_version");
          Alcotest.(check int) "no leaked workers" 0 (stats_int fields "workers_leaked");
          let r =
            expect_result
              (Service.Client.invoke c ~query:"ReadBoth" ~params:[ ("who", V.Str "n0") ] ())
          in
          Alcotest.(check bool) "final value is the last write" true
            ((writes, writes) = pair_of_result r.rs_result)))

(* The single-writer lane: pipelined mutations on one connection all
   commit, in order, without stacking up workers. *)
let test_e2e_writer_lane () =
  with_server ~workers:4 ~sources:[ set_both_src; read_both_src ] (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let n = 5 in
          let ids =
            List.init n (fun i ->
                Service.Client.send c
                  (P.Invoke
                     (invoke_req "SetBoth" [ ("who", V.Str "n1"); ("x", V.Int (i + 1)) ])))
          in
          let responses = List.map (fun _ -> Service.Client.recv c) ids in
          List.iter
            (fun (_, resp) ->
              match resp with
              | P.Result _ -> ()
              | P.Error (code, msg, _) ->
                Alcotest.failf "lane write failed: %s: %s" (P.err_code_to_string code) msg
              | _ -> Alcotest.fail "unexpected response")
            responses;
          let fields = stats_fields c in
          Alcotest.(check int) "all committed" n (stats_int fields "commits");
          Alcotest.(check int) "lane drained" 0 (stats_int fields "writer_waiting");
          Alcotest.(check int) "no leaked workers" 0 (stats_int fields "workers_leaked");
          (* FIFO lane + pipelined sends: the last commit wins. *)
          let r =
            expect_result
              (Service.Client.invoke c ~query:"ReadBoth" ~params:[ ("who", V.Str "n1") ] ())
          in
          Alcotest.(check bool) "commits applied in order" true
            ((n, n) = pair_of_result r.rs_result)))

(* Fairness stopgap: a connection pipelining past the in-flight cap gets
   overloaded errors, not unbounded admission. *)
let test_e2e_inflight_cap () =
  with_server ~workers:1 ~max_inflight:2 ~sources:[ slow_src ] (fun ep ->
      let c = Service.Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let n = 5 in
          let ids =
            List.init n (fun _ ->
                Service.Client.send c
                  (P.Invoke
                     (invoke_req ~timeout_ms:8000 ~no_cache:true "Slow"
                        [ ("n", V.Int 2_000_000) ])))
          in
          let responses = List.map (fun _ -> Service.Client.recv c) ids in
          let ok, capped =
            List.fold_left
              (fun (ok, capped) (_, resp) ->
                match resp with
                | P.Result _ -> (ok + 1, capped)
                | P.Error (P.Overloaded, msg, _) ->
                  Alcotest.(check bool) "cap names itself" true
                    (String.length msg > 0
                     && String.sub msg 0 14 = "per-connection");
                  (ok, capped + 1)
                | P.Error (code, msg, _) ->
                  Alcotest.failf "unexpected error %s: %s" (P.err_code_to_string code) msg
                | _ -> Alcotest.fail "unexpected response")
              (0, 0) responses
          in
          Alcotest.(check int) "cap admits max_inflight" 2 ok;
          Alcotest.(check int) "rest shed" (n - 2) capped))

(* Frame hardening: an oversized or unparsable frame draws a protocol
   error and a clean close; a bad envelope in a good frame does not kill
   the connection. *)
let raw_connect ep =
  match ep with
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | `Tcp _ -> Alcotest.fail "unix endpoint expected"

let expect_bad_request_then_eof fd =
  (match P.read_frame fd with
   | Ok j ->
     (match P.response_of_json j with
      | Ok (_, P.Error (P.Bad_request, _, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request")
   | Error _ -> Alcotest.fail "expected a protocol error before the close");
  match P.read_frame fd with
  | Error `Eof -> ()
  | Ok _ -> Alcotest.fail "connection should be closed"
  | Error (`Err _) -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let test_e2e_frame_hardening () =
  with_server ~max_frame_bytes:4096 ~sources:[ read_both_src ] (fun ep ->
      (* Oversized length header: no payload needed, the header alone is
         the protocol violation. *)
      let fd = raw_connect ep in
      write_all fd (be32 1_000_000);
      expect_bad_request_then_eof fd;
      Unix.close fd;
      (* Unparsable payload within the size cap. *)
      let fd = raw_connect ep in
      write_all fd (be32 8 ^ "not json");
      expect_bad_request_then_eof fd;
      Unix.close fd;
      (* A bad envelope inside a valid frame fails the request only. *)
      let fd = raw_connect ep in
      P.write_frame fd (J.Obj [ ("nope", J.Int 1) ]);
      (match P.read_frame fd with
       | Ok j ->
         (match P.response_of_json j with
          | Ok (_, P.Error (P.Bad_request, _, _)) -> ()
          | _ -> Alcotest.fail "expected bad_request")
       | Error _ -> Alcotest.fail "expected a response");
      P.write_frame fd (P.request_to_json ~id:9 P.Ping);
      (match P.read_frame fd with
       | Ok j ->
         (match P.response_of_json j with
          | Ok (9, P.Pong) -> ()
          | _ -> Alcotest.fail "expected pong with id 9")
       | Error _ -> Alcotest.fail "connection should have survived");
      Unix.close fd)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durability"
    [ ( "snapshot",
        [ Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "journal capture/replay" `Quick test_journal_capture_and_replay ] );
      ( "classify",
        [ Alcotest.test_case "mutating vs read-only" `Quick test_classification ] );
      ( "engine",
        [ Alcotest.test_case "commit bumps version" `Quick test_engine_commit_bumps_version;
          Alcotest.test_case "mutate compiled vs interp" `Quick test_mutate_compiled_vs_interp;
          Alcotest.test_case "cache across mutation" `Quick test_cache_across_mutation;
          Alcotest.test_case "read-only degradation" `Quick test_engine_read_only_degradation;
          Alcotest.test_case "persist recovery" `Quick test_engine_persist_recovery ] );
      ( "e2e",
        [ Alcotest.test_case "reader/writer interleaving" `Quick
            test_e2e_reader_writer_interleaving;
          Alcotest.test_case "writer lane" `Quick test_e2e_writer_lane;
          Alcotest.test_case "in-flight cap" `Quick test_e2e_inflight_cap;
          Alcotest.test_case "frame hardening" `Quick test_e2e_frame_hardening ] ) ]
