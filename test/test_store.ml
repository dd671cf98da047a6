(* The durability layer, bottom-up: CRC-32 against known vectors, the
   JSON codec (values, mutation batches, whole graphs), the checksummed
   WAL's append/scan/truncate behavior including every injected disk
   fault, and Persist's recover-replay-compact lifecycle. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module S = Pgraph.Schema

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value for "123456789". *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Store.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Store.Crc32.string "");
  Alcotest.(check int) "single byte" 0xD202EF8D (Store.Crc32.string "\x00")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Store.Crc32.string s in
  let split = Store.Crc32.update (Store.Crc32.update 0 s 0 10) s 10 (String.length s - 10) in
  Alcotest.(check int) "split = whole" whole split

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let mk_schema () =
  let s = S.create () in
  ignore (S.add_vertex_type s "N" [ ("name", S.T_string); ("a", S.T_int); ("b", S.T_int) ]);
  ignore (S.add_edge_type s "L" ~directed:true [ ("w", S.T_float) ]);
  ignore (S.add_edge_type s "U" ~directed:false []);
  s

let mk_graph () =
  let g = G.create (mk_schema ()) in
  let v name a = G.add_vertex g "N" [ ("name", V.Str name); ("a", V.Int a) ] in
  let n0 = v "n0" 0 and n1 = v "n1" 1 and n2 = v "n2" 2 in
  ignore (G.add_edge g "L" n0 n1 [ ("w", V.Float 0.5) ]);
  ignore (G.add_edge g "L" n1 n2 [ ("w", V.Float 1.5) ]);
  ignore (G.add_edge g "U" n0 n2 []);
  g

let graphs_equal a b =
  G.n_vertices a = G.n_vertices b
  && G.n_edges a = G.n_edges b
  && (let ok = ref true in
      G.iter_vertices a (fun vid ->
          let vt = G.vertex_type a vid in
          if (G.vertex_type b vid).S.vt_name <> vt.S.vt_name then ok := false;
          Array.iter
            (fun (attr, _) ->
              if not (V.equal (G.vertex_attr a vid attr) (G.vertex_attr b vid attr)) then
                ok := false)
            vt.S.vt_attrs);
      G.iter_edges a (fun eid ->
          let et = G.edge_type a eid in
          if
            G.edge_src a eid <> G.edge_src b eid
            || G.edge_dst a eid <> G.edge_dst b eid
            || (G.edge_type b eid).S.et_name <> et.S.et_name
          then ok := false;
          Array.iter
            (fun (attr, _) ->
              if not (V.equal (G.edge_attr a eid attr) (G.edge_attr b eid attr)) then
                ok := false)
            et.S.et_attrs);
      !ok)

let test_codec_batch_roundtrip () =
  let batch =
    { Store.Codec.b_version = 7;
      b_ops =
        [ G.M_add_vertex ("N", [ ("name", V.Str "x"); ("a", V.Int 3) ]);
          G.M_add_edge ("L", 0, 3, [ ("w", V.Float 2.0) ]);
          G.M_set_vertex_attr (1, "a", V.Int 9);
          G.M_set_edge_attr (0, "w", V.Float 0.25) ] }
  in
  let s = Obs.Json.to_string (Store.Codec.batch_to_json batch) in
  match Obs.Json.parse s with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok j ->
    (match Store.Codec.batch_of_json j with
     | Ok b ->
       Alcotest.(check int) "version" 7 b.Store.Codec.b_version;
       Alcotest.(check bool) "ops" true (b.Store.Codec.b_ops = batch.Store.Codec.b_ops)
     | Error msg -> Alcotest.failf "decode failed: %s" msg)

let snapshot_text ?version g = Obs.Json.to_string (Store.Codec.graph_to_json ?version g)

let decode_ok text =
  match Store.Codec.graph_of_string text with
  | Ok gv -> gv
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_codec_graph_roundtrip () =
  let g = mk_graph () in
  let g', version = decode_ok (snapshot_text ~version:42 g) in
  Alcotest.(check int) "version" 42 version;
  Alcotest.(check bool) "same graph" true (graphs_equal g g');
  (* The rebuilt graph accepts further mutations against its schema. *)
  ignore (G.add_vertex g' "N" [ ("name", V.Str "post") ]);
  (* [~len] decodes a prefix in place: the text before a footer. *)
  let g'', _ = decode_ok (snapshot_text g) in
  let padded = snapshot_text g ^ "\n#crc32:00000000\n" in
  match Store.Codec.graph_of_string ~len:(String.length padded - 17) padded with
  | Ok (g3, _) -> Alcotest.(check bool) "prefix decode" true (graphs_equal g'' g3)
  | Error msg -> Alcotest.failf "prefix decode failed: %s" msg

let test_codec_rejects_garbage () =
  (match Store.Codec.batch_of_json (Obs.Json.Str "nope") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "batch decoded from a string");
  (match Store.Codec.graph_of_string {|{"version":1}|} with
   | Error msg -> Alcotest.(check string) "no schema" "missing field schema" msg
   | Ok _ -> Alcotest.fail "graph decoded without a schema");
  match Store.Codec.graph_of_string "nope" with
  | Error msg -> Alcotest.(check string) "not JSON" "snapshot parse: expected '{' at offset 0, found 'n'" msg
  | Ok _ -> Alcotest.fail "graph decoded from garbage"

(* One typed error per way a snapshot row or the document around it can
   be wrong; row errors keep the per-row decoder's messages. *)
let test_snapshot_typed_errors () =
  let module J = Obs.Json in
  let doc ?(order = [ "version"; "schema"; "vertices"; "edges" ]) vertices edges =
    let member = function
      | "version" -> ("version", J.Int 1)
      | "schema" -> ("schema", Store.Codec.schema_to_json (mk_schema ()))
      | "vertices" -> ("vertices", J.List vertices)
      | key -> (key, J.List edges)
    in
    J.to_string (J.Obj (List.map member order))
  in
  let vtx = J.Obj [ ("ty", J.Str "N"); ("attrs", J.Obj [ ("name", J.Str "x") ]) ] in
  let edge ?(ty = J.Str "U") ?(src = J.Int 0) ?(dst = J.Int 1) ?(attrs = J.Obj []) () =
    J.Obj [ ("ty", ty); ("src", src); ("dst", dst); ("attrs", attrs) ]
  in
  let drop key = function
    | J.Obj fields -> J.Obj (List.remove_assoc key fields)
    | j -> j
  in
  let good = doc [ vtx; vtx ] [ edge () ] in
  ignore (decode_ok good);
  List.iter
    (fun (what, text, expected) ->
      match Store.Codec.graph_of_string text with
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | Error msg -> Alcotest.(check string) what expected msg)
    [ ("vertex ty missing", doc [ drop "ty" vtx ] [], "missing field ty");
      ("vertex ty ill-typed", doc [ J.Obj [ ("ty", J.Int 0); ("attrs", J.Obj []) ] ] [],
       "bad field ty");
      ("vertex attrs missing", doc [ drop "attrs" vtx ] [], "missing field attrs");
      ("vertex attrs ill-typed", doc [ J.Obj [ ("ty", J.Str "N"); ("attrs", J.List []) ] ] [],
       "bad attrs encoding: []");
      ("edge ty missing", doc [ vtx; vtx ] [ drop "ty" (edge ()) ], "missing field ty");
      ("edge ty ill-typed", doc [ vtx; vtx ] [ edge ~ty:J.Null () ], "bad field ty");
      ("edge src missing", doc [ vtx; vtx ] [ drop "src" (edge ()) ], "missing field src");
      ("edge src ill-typed", doc [ vtx; vtx ] [ edge ~src:(J.Str "0") () ], "bad field src");
      ("edge dst missing", doc [ vtx; vtx ] [ drop "dst" (edge ()) ], "missing field dst");
      ("edge dst ill-typed", doc [ vtx; vtx ] [ edge ~dst:(J.Float 1.0) () ], "bad field dst");
      ("edge attrs missing", doc [ vtx; vtx ] [ drop "attrs" (edge ()) ], "missing field attrs");
      ("edge attrs ill-typed", doc [ vtx; vtx ] [ edge ~attrs:(J.Int 1) () ],
       "bad attrs encoding: 1");
      ("rows before schema", doc ~order:[ "version"; "vertices"; "schema"; "edges" ] [ vtx ] [],
       "snapshot rows before schema");
      ("edges before schema", doc ~order:[ "edges"; "schema"; "vertices"; "version" ] [] [],
       "snapshot rows before schema");
      ("unknown vertex type",
       doc [ J.Obj [ ("ty", J.Str "Nope"); ("attrs", J.Obj []) ] ] [],
       "Graph: unknown vertex type Nope");
      ("out-of-range endpoint", doc [ vtx ] [ edge ~dst:(J.Int 9) () ],
       "Graph: edge endpoint does not exist");
      ("missing edges", doc ~order:[ "version"; "schema"; "vertices" ] [ vtx ] [],
       "missing field edges");
      ("duplicate rows", doc ~order:[ "version"; "schema"; "vertices"; "vertices"; "edges" ] [ vtx ] [],
       "duplicate field vertices");
      ("trailing garbage", good ^ " x",
       Printf.sprintf "snapshot parse: trailing characters at offset %d" (String.length good + 1));
      ("rows not a list", {|{"version":1,"schema":{"vertex_types":[],"edge_types":[]},"vertices":{}}|},
       "snapshot parse: expected '[' at offset 69, found '{'") ]

(* A snapshot written by the release before the streaming decoder, byte
   for byte with its CRC footer: the on-disk format has not moved.
   [fixture_graph] rebuilds the graph it was written from. *)
let released_snapshot =
  {|{"version":3,"schema":{"vertex_types":[{"name":"T","attrs":[["b","bool"],["i","int"],["f","float"],["s","string"],["d","datetime"]]},{"name":"N","attrs":[["name","string"]]}],"edge_types":[{"name":"L","directed":true,"src":"T","dst":"N","attrs":[["w","float"]]},{"name":"U","directed":false,"src":null,"dst":null,"attrs":[]}]},"vertices":[{"ty":"T","attrs":{"b":true,"i":-7,"f":2.5,"s":"tab\there \"q\" back\\slash\nnl \u0001 / café","d":{"$dt":1330473600}}},{"ty":"T","attrs":{"b":false,"i":0,"f":0.0,"s":"","d":{"$dt":0}}},{"ty":"N","attrs":{"name":""}},{"ty":"T","attrs":{"b":false,"i":4611686018427387903,"f":-1e-300,"s":"","d":{"$dt":0}}}],"edges":[{"ty":"L","src":0,"dst":2,"attrs":{"w":0.5}},{"ty":"U","src":2,"dst":1,"attrs":{}},{"ty":"L","src":3,"dst":2,"attrs":{"w":0.0}},{"ty":"U","src":3,"dst":3,"attrs":{}}]}
#crc32:f40d120e
|}

let fixture_graph () =
  let s = S.create () in
  ignore
    (S.add_vertex_type s "T"
       [ ("b", S.T_bool); ("i", S.T_int); ("f", S.T_float); ("s", S.T_string);
         ("d", S.T_datetime) ]);
  ignore (S.add_vertex_type s "N" [ ("name", S.T_string) ]);
  ignore (S.add_edge_type s "L" ~directed:true ~src:"T" ~dst:"N" [ ("w", S.T_float) ]);
  ignore (S.add_edge_type s "U" ~directed:false []);
  let g = G.create s in
  let t0 =
    G.add_vertex g "T"
      [ ("b", V.Bool true); ("i", V.Int (-7)); ("f", V.Float 2.5);
        ("s", V.Str "tab\there \"q\" back\\slash\nnl \001 / caf\xc3\xa9");
        ("d", V.datetime_of_ymd 2012 2 29) ]
  in
  let t1 = G.add_vertex g "T" [] in
  let n = G.add_vertex g "N" [ ("name", V.Str "") ] in
  let t2 =
    G.add_vertex g "T" [ ("i", V.Int max_int); ("f", V.Float (-1e-300)); ("b", V.Bool false) ]
  in
  ignore (G.add_edge g "L" t0 n [ ("w", V.Float 0.5) ]);
  ignore (G.add_edge g "U" n t1 []);
  ignore (G.add_edge g "L" t2 n []);
  ignore (G.add_edge g "U" t2 t2 []);
  g

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gsql_store_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let batch v = { Store.Codec.b_version = v; b_ops = [ G.M_set_vertex_attr (0, "a", V.Int v) ] }

let versions_of (batches, _) = List.map (fun (b, _) -> b.Store.Codec.b_version) batches

let test_wal_roundtrip () =
  let path = Filename.concat (tmp_dir ()) "wal.log" in
  let w = Store.Wal.open_append path in
  Store.Wal.append w (batch 1);
  Store.Wal.append w (batch 2);
  Store.Wal.append w (batch 3);
  Store.Wal.close w;
  Alcotest.(check (list int)) "replayed versions" [ 1; 2; 3 ] (versions_of (Store.Wal.scan path));
  (* Reopening appends after the existing prefix. *)
  let _, valid = Store.Wal.scan path in
  let w = Store.Wal.open_append ~valid_bytes:valid path in
  Store.Wal.append w (batch 4);
  Store.Wal.close w;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3; 4 ] (versions_of (Store.Wal.scan path))

let file_size path = (Unix.stat path).Unix.st_size

let test_wal_torn_tail () =
  let path = Filename.concat (tmp_dir ()) "wal.log" in
  let w = Store.Wal.open_append path in
  Store.Wal.append w (batch 1);
  Store.Wal.append w (batch 2);
  Store.Wal.close w;
  (* Chop the last record mid-payload: the crash image of a torn append. *)
  let full = file_size path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (full - 5);
  Unix.close fd;
  let batches, valid = Store.Wal.scan path in
  Alcotest.(check (list int)) "committed prefix only" [ 1 ] (List.map (fun (b, _) -> b.Store.Codec.b_version) batches);
  Alcotest.(check bool) "valid < file size" true (valid < full - 5);
  (* open_append drops the tail so the next record lands on a clean boundary. *)
  let w = Store.Wal.open_append ~valid_bytes:valid path in
  Store.Wal.append w (batch 9);
  Store.Wal.close w;
  Alcotest.(check (list int)) "tail replaced" [ 1; 9 ] (versions_of (Store.Wal.scan path))

let test_wal_corrupt_record () =
  let path = Filename.concat (tmp_dir ()) "wal.log" in
  let w = Store.Wal.open_append path in
  Store.Wal.append w (batch 1);
  let boundary = file_size path in
  Store.Wal.append w (batch 2);
  Store.Wal.close w;
  (* Flip one payload byte of record 2: only the CRC can catch this. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (boundary + 10) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  Alcotest.(check (list int)) "stops at bad CRC" [ 1 ] (versions_of (Store.Wal.scan path))

let injected_hooks fault =
  let armed = ref true in
  { Store.Wal.on_append =
      (fun () ->
        if !armed then begin
          armed := false;
          Some fault
        end
        else None) }

let expect_io_error f =
  match f () with
  | () -> Alcotest.fail "append should have raised Io_error"
  | exception Store.Wal.Io_error _ -> ()

let test_wal_injected_faults () =
  List.iter
    (fun (fault, name, survives_on_disk) ->
      let path = Filename.concat (tmp_dir ()) (name ^ ".log") in
      let w = Store.Wal.open_append path in
      Store.Wal.append w (batch 1);
      let clean = file_size path in
      let w2 = Store.Wal.open_append ~hooks:(injected_hooks fault) ~valid_bytes:clean path in
      expect_io_error (fun () -> Store.Wal.append w2 (batch 2));
      Alcotest.(check bool) (name ^ " poisons handle") false (Store.Wal.is_open w2);
      expect_io_error (fun () -> Store.Wal.append w2 (batch 3));
      (* Whatever the crash image, recovery sees only the committed prefix. *)
      Alcotest.(check (list int)) (name ^ " committed prefix") [ 1 ] (versions_of (Store.Wal.scan path));
      let on_disk = file_size path > clean in
      Alcotest.(check bool) (name ^ " crash image") survives_on_disk on_disk;
      Store.Wal.close w)
    [ (`Short_write, "short-write", true);
      (`Torn_record, "torn-record", true);
      (* fsync-fail truncates the record back out: nothing survives. *)
      (`Fsync_fail, "fsync-fail", false) ]

(* ------------------------------------------------------------------ *)
(* Persist                                                             *)

let apply_to g = function
  | { Store.Codec.b_ops; _ } -> List.iter (G.apply_mutation g) b_ops

let _ = apply_to

let test_persist_lifecycle () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "fresh version" 0 r.Store.Persist.r_version;
  Alcotest.(check int) "nothing replayed" 0 r.Store.Persist.r_replayed;
  let g = r.Store.Persist.r_graph in
  (* Commit two batches through the journal capture path. *)
  let ops = ref [] in
  G.set_journal g (Some (fun m -> ops := m :: !ops));
  G.set_vertex_attr g 0 "a" (V.Int 100);
  Store.Persist.commit p g ~version:1 ~ops:(List.rev !ops);
  ops := [];
  let vid = G.add_vertex g "N" [ ("name", V.Str "n3"); ("a", V.Int 3) ] in
  ignore (G.add_edge g "L" 0 vid []);
  Store.Persist.commit p g ~version:2 ~ops:(List.rev !ops);
  Store.Persist.close p;
  (* Restart: same base, replay the log. *)
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "recovered version" 2 r2.Store.Persist.r_version;
  Alcotest.(check int) "replayed" 2 r2.Store.Persist.r_replayed;
  Alcotest.(check bool) "no truncation" false r2.Store.Persist.r_truncated;
  Alcotest.(check bool) "state matches" true (graphs_equal g r2.Store.Persist.r_graph);
  Store.Persist.close p2

let test_persist_compaction () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir ~compact_every:2 dir ~base in
  let g = r.Store.Persist.r_graph in
  for v = 1 to 5 do
    let ops = ref [] in
    G.set_journal g (Some (fun m -> ops := m :: !ops));
    G.set_vertex_attr g 0 "a" (V.Int (v * 10));
    G.set_journal g None;
    Store.Persist.commit p g ~version:v ~ops:(List.rev !ops)
  done;
  Store.Persist.close p;
  Alcotest.(check bool) "snapshot exists" true
    (Sys.file_exists (Filename.concat dir "snapshot.json"));
  (* Only the commits after the last compaction remain in the WAL. *)
  let batches, _ = Store.Wal.scan (Filename.concat dir "wal.log") in
  Alcotest.(check bool) "wal shrank" true (List.length batches < 5);
  (* The base graph is ignored once a snapshot exists: recovery must not
     need it to reproduce the state. *)
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "version preserved" 5 r2.Store.Persist.r_version;
  Alcotest.(check bool) "attr survived compaction" true
    (V.equal (V.Int 50) (G.vertex_attr r2.Store.Persist.r_graph 0 "a"));
  Store.Persist.close p2

let test_persist_recovers_torn_tail () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  let g = r.Store.Persist.r_graph in
  let commit v =
    let ops = ref [] in
    G.set_journal g (Some (fun m -> ops := m :: !ops));
    G.set_vertex_attr g 0 "a" (V.Int v);
    G.set_journal g None;
    Store.Persist.commit p g ~version:v ~ops:(List.rev !ops)
  in
  commit 1;
  commit 2;
  Store.Persist.close p;
  (* Crash image: tear the last record. *)
  let wal = Filename.concat dir "wal.log" in
  let full = file_size wal in
  let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (full - 3);
  Unix.close fd;
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check bool) "tail was truncated" true r2.Store.Persist.r_truncated;
  Alcotest.(check int) "only the committed prefix" 1 r2.Store.Persist.r_version;
  Alcotest.(check bool) "prefix state" true
    (V.equal (V.Int 1) (G.vertex_attr r2.Store.Persist.r_graph 0 "a"));
  (* The server can keep committing after recovery. *)
  let g2 = r2.Store.Persist.r_graph in
  let ops = ref [] in
  G.set_journal g2 (Some (fun m -> ops := m :: !ops));
  G.set_vertex_attr g2 0 "a" (V.Int 7);
  G.set_journal g2 None;
  Store.Persist.commit p2 g2 ~version:2 ~ops:(List.rev !ops);
  Store.Persist.close p2;
  let _, r3 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "recommitted" 2 r3.Store.Persist.r_version;
  Alcotest.(check bool) "recommitted state" true
    (V.equal (V.Int 7) (G.vertex_attr r3.Store.Persist.r_graph 0 "a"))

let test_persist_faulted_commit_not_recovered () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  List.iter
    (fun fault ->
      (* Fresh dir per fault kind. *)
      let dir = Filename.concat dir (match fault with
        | `Short_write -> "sw" | `Torn_record -> "tr" | `Fsync_fail -> "ff")
      in
      let p, r = Store.Persist.open_dir ~hooks:(injected_hooks fault) dir ~base in
      let g = r.Store.Persist.r_graph in
      let ops = [ G.M_set_vertex_attr (0, "a", V.Int 999) ] in
      (match Store.Persist.commit p g ~version:1 ~ops with
       | () -> Alcotest.fail "commit should have failed"
       | exception Store.Wal.Io_error _ -> ());
      Alcotest.(check bool) "handle poisoned" false (Store.Persist.is_open p);
      (* Restart: the failed commit must not be visible. *)
      let _, r2 = Store.Persist.open_dir dir ~base in
      Alcotest.(check int) "version 0" 0 r2.Store.Persist.r_version;
      Alcotest.(check bool) "base state" true
        (V.equal (V.Int 0) (G.vertex_attr r2.Store.Persist.r_graph 0 "a")))
    [ `Short_write; `Torn_record; `Fsync_fail ]

(* ------------------------------------------------------------------ *)
(* Snapshot CRC footer and epoch file                                  *)

let commit_n p g ~from ~count =
  for v = from to from + count - 1 do
    let ops = ref [] in
    G.set_journal g (Some (fun m -> ops := m :: !ops));
    G.set_vertex_attr g 0 "a" (V.Int (v * 10));
    G.set_journal g None;
    Store.Persist.commit p g ~version:v ~ops:(List.rev !ops)
  done

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_snapshot_crc_detects_corruption () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  let g = r.Store.Persist.r_graph in
  commit_n p g ~from:1 ~count:2;
  Store.Persist.compact p g ~version:2;
  Store.Persist.close p;
  let snap = Filename.concat dir "snapshot.json" in
  (* A verified footer round-trips... *)
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "clean reopen" 2 r2.Store.Persist.r_version;
  Store.Persist.close p2;
  (* ...and a single flipped byte in the body is caught at open. *)
  let text = read_file snap in
  let bad = Bytes.of_string text in
  let mid = Bytes.length bad / 2 in
  Bytes.set bad mid (if Bytes.get bad mid = 'x' then 'y' else 'x');
  write_file snap (Bytes.to_string bad);
  expect_io_error (fun () -> ignore (Store.Persist.open_dir dir ~base))

let test_snapshot_legacy_footerless () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  let g = r.Store.Persist.r_graph in
  commit_n p g ~from:1 ~count:1;
  Store.Persist.compact p g ~version:1;
  Store.Persist.close p;
  (* Strip the footer: a pre-CRC snapshot must still open. *)
  let snap = Filename.concat dir "snapshot.json" in
  let text = read_file snap in
  (match String.rindex_opt text '#' with
   | Some i -> write_file snap (String.sub text 0 (i - 1))
   | None -> Alcotest.fail "no CRC footer written");
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "legacy snapshot accepted" 1 r2.Store.Persist.r_version;
  Store.Persist.close p2

(* The released fixture opens through Persist, with its footer and
   without it, gives back the graph it was written from and re-encodes
   to the same bytes. *)
let test_snapshot_from_release () =
  let open_with text =
    let dir = tmp_dir () in
    write_file (Filename.concat dir "snapshot.json") text;
    let p, r = Store.Persist.open_dir dir ~base:(fun () -> Alcotest.fail "base used") in
    Store.Persist.close p;
    r
  in
  let footer_at = String.rindex released_snapshot '#' - 1 in
  List.iter
    (fun (what, text) ->
      let r = open_with text in
      Alcotest.(check int) (what ^ " version") 3 r.Store.Persist.r_version;
      Alcotest.(check bool) (what ^ " graph") true
        (graphs_equal (fixture_graph ()) r.Store.Persist.r_graph);
      Alcotest.(check string) (what ^ " re-encodes to the same bytes")
        (String.sub released_snapshot 0 footer_at)
        (snapshot_text ~version:3 r.Store.Persist.r_graph))
    [ ("footer", released_snapshot); ("footer-less", String.sub released_snapshot 0 footer_at) ]

(* Every proper prefix of a footer-less snapshot is a typed open error,
   never a crash or a silently shorter graph. *)
let test_snapshot_truncation_sweep () =
  let text = snapshot_text ~version:1 (mk_graph ()) in
  let dir = tmp_dir () in
  let snap = Filename.concat dir "snapshot.json" in
  for k = 0 to String.length text - 1 do
    write_file snap (String.sub text 0 k);
    match Store.Persist.open_dir dir ~base:mk_graph with
    | p, _ ->
      Store.Persist.close p;
      Alcotest.failf "prefix of %d bytes opened" k
    | exception Store.Wal.Io_error msg ->
      if not (String.starts_with ~prefix:"corrupt snapshot: " msg) then
        Alcotest.failf "prefix of %d bytes: %s" k msg
  done

let test_batches_since () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  let g = r.Store.Persist.r_graph in
  commit_n p g ~from:1 ~count:3;
  let versions_of = function
    | None -> Alcotest.fail "expected Some batches"
    | Some bs -> List.map (fun b -> b.Store.Codec.b_version) bs
  in
  Alcotest.(check (list int)) "all from 0" [ 1; 2; 3 ]
    (versions_of (Store.Persist.batches_since p ~version:0));
  Alcotest.(check (list int)) "tail from 2" [ 3 ]
    (versions_of (Store.Persist.batches_since p ~version:2));
  Alcotest.(check (list int)) "caught up" []
    (versions_of (Store.Persist.batches_since p ~version:3));
  (* Compaction advances the snapshot past old versions: the log no
     longer reaches back and the caller must ship a snapshot. *)
  Store.Persist.compact p g ~version:3;
  Alcotest.(check bool) "snapshot passed it" true
    (Store.Persist.batches_since p ~version:1 = None);
  Alcotest.(check (list int)) "still serves the frontier" []
    (versions_of (Store.Persist.batches_since p ~version:3));
  Store.Persist.close p

let test_epoch_file () =
  let dir = tmp_dir () in
  Alcotest.(check bool) "absent" true (Store.Persist.read_epoch dir = None);
  Store.Persist.write_epoch dir 3;
  Alcotest.(check bool) "roundtrip" true (Store.Persist.read_epoch dir = Some 3);
  Store.Persist.write_epoch dir 4;
  Alcotest.(check bool) "overwrite" true (Store.Persist.read_epoch dir = Some 4);
  (* Garbage is treated as absent, not fatal. *)
  write_file (Filename.concat dir "epoch") "banana";
  Alcotest.(check bool) "garbage ignored" true (Store.Persist.read_epoch dir = None)

(* The compaction crash window: a crash after the snapshot's tmp+rename
   but before the WAL reset leaves a full snapshot AND a full log on
   disk.  Recovery must not double-apply the overlap, and a commit on
   top of the recovered state must land exactly once. *)
let test_compaction_crash_window () =
  let dir = tmp_dir () in
  let base () = mk_graph () in
  let p, r = Store.Persist.open_dir dir ~base in
  let g = r.Store.Persist.r_graph in
  commit_n p g ~from:1 ~count:3;
  let wal = Filename.concat dir "wal.log" in
  let pre_compact_log = read_file wal in
  Store.Persist.compact p g ~version:3;
  Store.Persist.close p;
  (* Reconstruct the crash image: snapshot at 3, stale log 1..3. *)
  write_file wal pre_compact_log;
  let p2, r2 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "no double-apply: version" 3 r2.Store.Persist.r_version;
  Alcotest.(check int) "no double-apply: replayed" 0 r2.Store.Persist.r_replayed;
  Alcotest.(check bool) "state intact" true
    (V.equal (V.Int 30) (G.vertex_attr r2.Store.Persist.r_graph 0 "a"));
  (* New commits append to the recovered handle... *)
  let g2 = r2.Store.Persist.r_graph in
  commit_n p2 g2 ~from:4 ~count:1;
  Store.Persist.close p2;
  (* ...and the next recovery replays exactly that one batch. *)
  let p3, r3 = Store.Persist.open_dir dir ~base in
  Alcotest.(check int) "post-crash commit recovered" 4 r3.Store.Persist.r_version;
  Alcotest.(check int) "exactly one replayed" 1 r3.Store.Persist.r_replayed;
  Alcotest.(check bool) "no lost batch" true
    (V.equal (V.Int 40) (G.vertex_attr r3.Store.Persist.r_graph 0 "a"));
  Store.Persist.close p3

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Snapshot text round trips on fixture, real and random graphs        *)

let roundtrip g = fst (decode_ok (snapshot_text g))

let test_roundtrip_sales () =
  let { Testkit.Fixtures.g; _ } = Testkit.Fixtures.sales_graph () in
  Alcotest.(check bool) "sales graph round trip" true (graphs_equal g (roundtrip g))

let test_roundtrip_snb () =
  let t = Ldbc.Snb.generate ~sf:0.05 () in
  let g = t.Ldbc.Snb.graph in
  let g' = roundtrip g in
  Alcotest.(check bool) "snb graph round trip" true (graphs_equal g g');
  (* Semantics preserved: the pattern counts agree. *)
  let dfa_src = Darpe.Parse.parse "KNOWS*1..2" in
  let count g =
    Pgraph.Bignat.to_string
      (Pathsem.Engine.count_single_pair g dfa_src Pathsem.Semantics.All_shortest
         ~src:t.Ldbc.Snb.persons.(0) ~dst:t.Ldbc.Snb.persons.(1))
  in
  Alcotest.(check string) "pattern counts survive serialization" (count g) (count g')

let test_escaping () =
  let s = S.create () in
  ignore (S.add_vertex_type s "T" [ ("txt", S.T_string) ]);
  ignore (S.add_edge_type s "E" ~directed:false []);
  let g = G.create s in
  let nasty = "tab\there\nnewline=eq\\backslash \"quote\" \001\031 caf\xc3\xa9" in
  let v = G.add_vertex g "T" [ ("txt", V.Str nasty) ] in
  Alcotest.(check string) "nasty string survives" nasty
    (V.to_string_exn (G.vertex_attr (roundtrip g) v "txt"))

let test_all_value_types () =
  let g = fixture_graph () in
  let g' = roundtrip g in
  Alcotest.(check bool) "bool" true (V.to_bool (G.vertex_attr g' 0 "b"));
  Alcotest.(check int) "int" (-7) (V.to_int (G.vertex_attr g' 0 "i"));
  Alcotest.(check (float 0.0)) "float" 2.5 (V.to_float (G.vertex_attr g' 0 "f"));
  Alcotest.(check int) "max_int" max_int (V.to_int (G.vertex_attr g' 3 "i"));
  Alcotest.(check int) "datetime year" 2012 (V.year_of_datetime (G.vertex_attr g' 0 "d"));
  Alcotest.(check bool) "every attribute" true (graphs_equal g g')

let test_empty_graph () =
  let s = S.create () in
  ignore (S.add_vertex_type s "T" []);
  let g' = roundtrip (G.create s) in
  Alcotest.(check int) "no vertices" 0 (G.n_vertices g');
  Alcotest.(check int) "schema kept" 1 (S.n_vertex_types (G.schema g'))

(* Floats go through the JSON rendering, which keeps 12 significant
   digits, so a random weight comes back as its rendered value: the
   property is that the decoded graph re-encodes to the same text. *)
let prop_random_roundtrip =
  QCheck.Test.make ~name:"random graphs round trip" ~count:30
    (QCheck.pair QCheck.small_int (QCheck.int_range 1 15))
    (fun (seed, n) ->
      let s = S.create () in
      ignore (S.add_vertex_type s "A" [ ("x", S.T_int) ]);
      ignore (S.add_vertex_type s "B" [ ("y", S.T_string) ]);
      ignore (S.add_edge_type s "E" ~directed:true [ ("w", S.T_float) ]);
      ignore (S.add_edge_type s "U" ~directed:false []);
      let g = G.create s in
      let rng = Pgraph.Prng.create seed in
      for i = 0 to n - 1 do
        if Pgraph.Prng.bool rng then ignore (G.add_vertex g "A" [ ("x", V.Int i) ])
        else ignore (G.add_vertex g "B" [ ("y", V.Str (string_of_int i)) ])
      done;
      for _ = 1 to n * 2 do
        let a = Pgraph.Prng.int rng n and b = Pgraph.Prng.int rng n in
        if Pgraph.Prng.bool rng then
          ignore (G.add_edge g "E" a b [ ("w", V.Float (Pgraph.Prng.float rng 10.0)) ])
        else ignore (G.add_edge g "U" a b [])
      done;
      let text = snapshot_text ~version:seed g in
      let g', version = decode_ok text in
      version = seed && G.n_vertices g' = n && snapshot_text ~version g' = text)

let () =
  Alcotest.run "store"
    [ ( "crc32",
        [ Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental ] );
      ( "codec",
        [ Alcotest.test_case "batch roundtrip" `Quick test_codec_batch_roundtrip;
          Alcotest.test_case "graph roundtrip" `Quick test_codec_graph_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage ] );
      ( "roundtrip",
        [ Alcotest.test_case "sales graph" `Quick test_roundtrip_sales;
          Alcotest.test_case "snb graph" `Quick test_roundtrip_snb;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "all value types" `Quick test_all_value_types;
          Alcotest.test_case "empty graph" `Quick test_empty_graph ] );
      ( "errors",
        [ Alcotest.test_case "parse errors" `Quick test_snapshot_typed_errors;
          Alcotest.test_case "truncated snapshot" `Quick test_snapshot_truncation_sweep ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_roundtrip ]);
      ( "wal",
        [ Alcotest.test_case "append/scan roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt record" `Quick test_wal_corrupt_record;
          Alcotest.test_case "injected faults" `Quick test_wal_injected_faults ] );
      ( "persist",
        [ Alcotest.test_case "commit/recover" `Quick test_persist_lifecycle;
          Alcotest.test_case "compaction" `Quick test_persist_compaction;
          Alcotest.test_case "torn-tail recovery" `Quick test_persist_recovers_torn_tail;
          Alcotest.test_case "failed commit invisible" `Quick test_persist_faulted_commit_not_recovered;
          Alcotest.test_case "snapshot CRC corruption" `Quick test_snapshot_crc_detects_corruption;
          Alcotest.test_case "legacy footer-less snapshot" `Quick test_snapshot_legacy_footerless;
          Alcotest.test_case "snapshot from an earlier release" `Quick test_snapshot_from_release;
          Alcotest.test_case "batches_since" `Quick test_batches_since;
          Alcotest.test_case "epoch file" `Quick test_epoch_file;
          Alcotest.test_case "compaction crash window" `Quick test_compaction_crash_window ] ) ]
