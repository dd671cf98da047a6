(* The frozen CSR adjacency index and the engines rebuilt on top of it:
   structural invariants, sequential/parallel engine equivalence on
   mixed directed/undirected/multi-type random graphs, cancellation
   without domain leaks, version-cache invalidation (in-place mutation
   and the MVCC publish protocol), and the kernel's allocation bound once
   its domain scratch is warm.  The kernel's answers are checked against
   path enumeration (Theorem 6.1) in test_pathsem.ml. *)

module G = Pgraph.Graph
module C = Pgraph.Csr
module B = Pgraph.Bignat
module S = Pgraph.Schema
module V = Pgraph.Value
module Sem = Pathsem.Semantics
module T = Pathsem.Toygraphs
module P = Service.Protocol

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let random_mixed = Testkit.Fixtures.random_mixed

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let test_sym_encoding () =
  (* The CSR segment key must be exactly the DFA's concrete symbol id —
     the kernel indexes trans.(q).(seg_sym.(s)) directly. *)
  List.iter
    (fun rel ->
      for etype = 0 to 5 do
        Alcotest.(check int)
          (Printf.sprintf "sym %d" etype)
          (Darpe.Dfa.sym ~etype ~rel) (C.sym ~etype ~rel)
      done)
    [ G.Out; G.In; G.Und ]

let test_structure () =
  let g = random_mixed 7 12 40 in
  let csr = C.build g in
  Alcotest.(check int) "nv" (G.n_vertices g) csr.C.nv;
  Alcotest.(check int) "ne" (G.n_edges g) csr.C.ne;
  let total = ref 0 in
  for v = 0 to csr.C.nv - 1 do
    total := !total + C.degree csr v;
    Alcotest.(check int) "degree" (G.degree g v) (C.degree csr v);
    (* Segments: ascending keys, slot ranges tile the row, and the
       concatenated slices equal the adjacency list filtered per key in
       insertion order. *)
    let halves = G.adjacency g v in
    let prev = ref (-1) in
    let covered = ref 0 in
    C.iter_segments csr v (fun ~sym ~lo ~hi ->
        Alcotest.(check bool) "keys ascend" true (sym > !prev);
        prev := sym;
        Alcotest.(check bool) "non-empty" true (hi > lo);
        covered := !covered + (hi - lo);
        let expect =
          Array.to_list halves
          |> List.filter (fun h ->
                 C.sym ~etype:(G.edge_type_id g h.G.h_edge) ~rel:h.G.h_rel = sym)
          |> List.map (fun h -> (h.G.h_other, h.G.h_edge))
        in
        let got = List.init (hi - lo) (fun i -> (csr.C.nbr.(lo + i), csr.C.edg.(lo + i))) in
        Alcotest.(check (list (pair int int))) "slice = filtered adjacency" expect got;
        (* find_segment agrees with the directory walk. *)
        Alcotest.(check (option (pair int int)))
          "find_segment" (Some (lo, hi)) (C.find_segment csr v ~sym));
    Alcotest.(check int) "segments tile the row" (G.degree g v) !covered;
    Alcotest.(check (option (pair int int)))
      "absent key" None
      (C.find_segment csr v ~sym:(csr.C.n_syms + 1))
  done;
  Alcotest.(check int) "slots = total degree" !total (Array.length csr.C.nbr)

(* ------------------------------------------------------------------ *)
(* Differential: parallel fan-out vs sequential engine                *)

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel fan-out = sequential engine (order included)" ~count:15
    (QCheck.pair QCheck.small_int (QCheck.int_range 6 14))
    (fun (seed, nv) ->
      let g = random_mixed (seed + 31) nv (nv * 4) in
      let sources = Array.init nv (fun i -> i) in
      let ast = Darpe.Parse.parse "(A>|<B|U)*" in
      List.iter
        (fun sem ->
          let seq = Pathsem.Engine.match_pairs ~workers:1 g ast sem ~sources ~dst_ok:(fun _ -> true) in
          let par = Pathsem.Engine.match_pairs ~workers:4 g ast sem ~sources ~dst_ok:(fun _ -> true) in
          if List.length seq <> List.length par then
            QCheck.Test.fail_reportf "binding counts differ: %d vs %d" (List.length seq)
              (List.length par);
          List.iter2
            (fun (a : Pathsem.Engine.binding) (b : Pathsem.Engine.binding) ->
              if a.Pathsem.Engine.b_src <> b.Pathsem.Engine.b_src
                 || a.Pathsem.Engine.b_dst <> b.Pathsem.Engine.b_dst
                 || a.Pathsem.Engine.b_dist <> b.Pathsem.Engine.b_dist
                 || not (B.equal a.Pathsem.Engine.b_mult b.Pathsem.Engine.b_mult)
              then QCheck.Test.fail_report "binding mismatch")
            seq par)
        [ Sem.All_shortest; Sem.Existential ];
      true)

(* ------------------------------------------------------------------ *)
(* Cancellation: budgets stop every slice, all domains joined           *)

let counter_value name =
  match Obs.Json.member "counters" (Obs.Metrics.dump ()) with
  | Some cs -> (match Obs.Json.member name cs with
      | Some v -> Option.value ~default:0 (Obs.Json.to_int_opt v)
      | None -> 0)
  | None -> 0

let test_fanout_cancellation () =
  (* A deadline that cannot be met: 200 sources over a 2000-vertex web
     graph against a ~2ms budget.  The fan-out must raise Interrupted
     (deadline) mid-flight and still join every spawned domain — the
     spawned/joined counters are the leak witness. *)
  let { T.g; _ } = T.web ~links:12_000 2_000 in
  let sources = Array.init 200 (fun i -> i) in
  let ast = Darpe.Parse.parse "LinkTo>*" in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let spawned0 = counter_value "paths.engine.fanout.spawned" in
  let joined0 = counter_value "paths.engine.fanout.joined" in
  let budget = Interrupt.make ~deadline:(Unix.gettimeofday () +. 0.002) () in
  (match
     Interrupt.with_budget budget (fun () ->
         Pathsem.Engine.match_pairs ~workers:4 g ast Sem.All_shortest ~sources
           ~dst_ok:(fun _ -> true))
   with
   | _ -> Alcotest.fail "expected Interrupted"
   | exception Interrupt.Interrupted Interrupt.Deadline -> ()
   | exception Interrupt.Interrupted r ->
     Alcotest.failf "wrong reason %s" (Interrupt.reason_to_string r));
  let spawned = counter_value "paths.engine.fanout.spawned" - spawned0 in
  let joined = counter_value "paths.engine.fanout.joined" - joined0 in
  Alcotest.(check bool) "domains were spawned" true (spawned > 0);
  Alcotest.(check int) "every domain joined" spawned joined

let test_fanout_step_budget () =
  (* Step ceilings are shared atomics: the slices' combined ticks exhaust
     one budget, whichever domain trips it. *)
  let { T.g; _ } = T.web ~links:6_000 1_000 in
  let sources = Array.init 100 (fun i -> i) in
  let ast = Darpe.Parse.parse "LinkTo>*" in
  let budget = Interrupt.make ~max_steps:500 () in
  match
    Interrupt.with_budget budget (fun () ->
        Pathsem.Engine.match_pairs ~workers:4 g ast Sem.All_shortest ~sources
          ~dst_ok:(fun _ -> true))
  with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Interrupt.Interrupted Interrupt.Steps -> ()
  | exception Interrupt.Interrupted r ->
    Alcotest.failf "wrong reason %s" (Interrupt.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Version cache invalidation                                          *)

let test_inplace_mutation_invalidates () =
  (* The memo key is (physical graph, nv, ne): growing the same graph
     in place must never serve the stale frozen index. *)
  let s = S.create () in
  ignore (S.add_vertex_type s "V" []);
  ignore (S.add_edge_type s "E" ~directed:true []);
  let g = G.create s in
  let x = G.add_vertex g "V" [] and y = G.add_vertex g "V" [] in
  ignore (G.add_edge g "E" x y []);
  let ast = Darpe.Parse.parse "E>" in
  let count () =
    B.to_string (Pathsem.Engine.count_single_pair g ast Sem.All_shortest ~src:x ~dst:y)
  in
  Alcotest.(check string) "one edge" "1" (count ());
  ignore (G.add_edge g "E" x y []);
  Alcotest.(check string) "parallel edge visible" "2" (count ());
  let z = G.add_vertex g "V" [] in
  ignore (G.add_edge g "E" y z []);
  Alcotest.(check string) "new vertex reachable" "2"
    (B.to_string (Pathsem.Engine.count_single_pair g ast Sem.All_shortest ~src:x ~dst:y))

let test_snapshot_gets_own_index () =
  (* An MVCC clone is a distinct physical graph: its index is built
     fresh, and neither side observes the other's mutations. *)
  let { T.g; vertex } = T.diamond_chain 3 in
  let v0 = vertex "v0" and v3 = vertex "v3" in
  let ast = Darpe.Parse.parse "E>*" in
  let count gr = B.to_string (Pathsem.Engine.count_single_pair gr ast Sem.All_shortest ~src:v0 ~dst:v3) in
  Alcotest.(check string) "base 2^3" "8" (count g);
  let clone = G.snapshot g in
  ignore (G.add_edge clone "E" v0 v3 []);
  Alcotest.(check string) "base unchanged" "8" (count g);
  (* The added shortcut is the new single shortest path on the clone. *)
  Alcotest.(check string) "clone sees shortcut" "1" (count clone);
  Alcotest.(check string) "base still unchanged" "8" (count g)

let count_p_src = {|
CREATE QUERY CountP (string srcName, string tgtName) {
  SumAccum<int> @pc;
  R = SELECT t
      FROM  N:s -(L>*)- N:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pc += 1;
  PRINT R[R.name, R.@pc];
}
|}

let add_l_src = {|
CREATE QUERY AddL (vertex s, vertex t) {
  INSERT INTO L (w) VALUES (s, t, 1);
}
|}

let json_int path j =
  match Obs.Json.member path j with
  | Some v -> Option.value ~default:(-1) (Obs.Json.to_int_opt v)
  | None -> -1

let test_mvcc_publish_invalidates () =
  (* The MVCC harness end-to-end: warm the CSR through a counting read,
     commit a mutation through the engine's single-writer publish
     protocol, and require the next read to see the new topology — plus
     the eager cache invalidation the engine performs on publish. *)
  let s = S.create () in
  ignore (S.add_vertex_type s "N" [ ("name", S.T_string) ]);
  ignore (S.add_edge_type s "L" ~directed:true [ ("w", S.T_int) ]);
  let g = G.create s in
  let v name = G.add_vertex g "N" [ ("name", V.Str name) ] in
  let n0 = v "n0" and n1 = v "n1" in
  let n2 = v "n2" in
  ignore (G.add_edge g "L" n0 n1 []);
  ignore (G.add_edge g "L" n1 n2 []);
  let eng = Service.Engine.create ~graph:g () in
  List.iter
    (fun src ->
      match Service.Engine.install eng src with
      | P.Installed _ -> ()
      | P.Error (_, msg, _) -> Alcotest.failf "install failed: %s" msg
      | _ -> Alcotest.fail "install failed")
    [ count_p_src; add_l_src ];
  let invoke query params =
    Service.Engine.invoke eng
      { P.iv_query = query; iv_params = params; iv_timeout_ms = None; iv_no_cache = false; iv_tenant = None }
  in
  let count_paths () =
    match invoke "CountP" [ ("srcName", V.Str "n0"); ("tgtName", V.Str "n2") ] with
    | P.Result { rs_result = r; _ } ->
      (match r.P.x_tables with
       | (_, tbl) :: _ ->
         (match tbl.Gsql.Table.rows with
          | [ [| _; V.Int c |] ] -> c
          | _ -> Alcotest.fail "unexpected CountP rows")
       | [] -> Alcotest.fail "CountP printed nothing")
    | _ -> Alcotest.fail "CountP failed"
  in
  Alcotest.(check int) "one path pre-commit" 1 (count_paths ());
  let inv_before = json_int "invalidations" (C.cache_stats ()) in
  (match invoke "AddL" [ ("s", V.Vertex n0); ("t", V.Vertex n1) ] with
   | P.Result _ -> ()
   | P.Error (_, msg, _) -> Alcotest.failf "AddL failed: %s" msg
   | _ -> Alcotest.fail "AddL failed");
  Alcotest.(check int) "version bumped" 1 (Service.Engine.graph_version eng);
  Alcotest.(check int) "publish invalidated the frozen index" (inv_before + 1)
    (json_int "invalidations" (C.cache_stats ()));
  Alcotest.(check int) "two paths post-commit" 2 (count_paths ())

(* ------------------------------------------------------------------ *)
(* Build latch: concurrent builders of one version coalesce            *)

(* Service workers and the match_pairs fan-out can ask for the same
   version's index at once; the memo's build-in-progress latch must hand
   every caller the one CSR a single builder produced. *)
let test_csr_build_latch () =
  let g = random_mixed 13 4000 8000 in
  let builds0 = json_int "builds" (C.cache_stats ()) in
  let waits0 = json_int "build_waits" (C.cache_stats ()) in
  let domains = List.init 4 (fun _ -> Domain.spawn (fun () -> C.of_graph g)) in
  (match List.map Domain.join domains with
   | first :: rest ->
     List.iter
       (fun c -> Alcotest.(check bool) "same memoized CSR" true (c == first))
       rest
   | [] -> assert false);
  Alcotest.(check int) "exactly one build" 1
    (json_int "builds" (C.cache_stats ()) - builds0);
  Alcotest.(check bool) "waits counted, never negative" true
    (json_int "build_waits" (C.cache_stats ()) >= waits0)

(* ------------------------------------------------------------------ *)
(* Output-sensitive kernel: work in the reached states, not |V|·|Q|     *)

(* Words this domain allocated so far: minor-heap allocations plus those
   made directly in the major heap (promotions counted once).
   [Gc.minor_words] is exact; the minor count of [Gc.counters] is not. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_single_source_allocation () =
  (* IC1's pattern and source on the served ic-read graph.  Once this
     domain's scratch, the CSR index and the DFA exist, a single-source
     match allocates only its bindings, the reached-vertex list and the
     Bignat sums of merged counts: fewer words than there are vertices (a
     fresh scratch alone would be 5·|V|·|Q|). *)
  let snb = Ldbc.Snb.generate ~sf:3.0 () in
  let g = snb.Ldbc.Snb.graph in
  let nv = G.n_vertices g in
  let ast = Darpe.Parse.parse "KNOWS*1..2" in
  let run src =
    Pathsem.Engine.match_pairs ~workers:1 g ast Sem.All_shortest ~sources:[| src |]
      ~dst_ok:(fun _ -> true)
  in
  ignore (run snb.Ldbc.Snb.persons.(1));
  let src =
    match Ldbc.Ic.default_params snb ~seed:0 Ldbc.Ic.Ic1 with
    | (_, V.Vertex p) :: _ -> p
    | _ -> Alcotest.fail "IC1 parameters start with the person"
  in
  let before = allocated_words () in
  let bindings = run src in
  let words = allocated_words () -. before in
  Alcotest.(check bool) "reaches someone" true (bindings <> []);
  if words >= float_of_int nv then
    Alcotest.failf "single-source match allocated %.0f words, |V| = %d (%d bindings)" words nv
      (List.length bindings);
  (* Same answer as the dense form. *)
  let dfa = Pathsem.Engine.compile g ast in
  let r = Pathsem.Count.single_source g dfa src in
  let dense =
    List.filter_map
      (fun t -> if r.Pathsem.Count.sr_dist.(t) >= 0 then Some t else None)
      (List.init nv Fun.id)
  in
  Alcotest.(check (list int)) "reached targets" dense
    (List.rev_map (fun b -> b.Pathsem.Engine.b_dst) bindings)

let () =
  Alcotest.run "csr"
    [ ( "structure",
        [ Alcotest.test_case "sym encoding = Dfa.sym" `Quick test_sym_encoding;
          Alcotest.test_case "segments/slices" `Quick test_structure ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parallel_equals_sequential ] );
      ( "cancellation",
        [ Alcotest.test_case "deadline mid-fan-out, no leaks" `Quick test_fanout_cancellation;
          Alcotest.test_case "shared step budget" `Quick test_fanout_step_budget ] );
      ( "invalidation",
        [ Alcotest.test_case "in-place mutation" `Quick test_inplace_mutation_invalidates;
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_gets_own_index;
          Alcotest.test_case "MVCC publish" `Quick test_mvcc_publish_invalidates ] );
      ( "csr latch",
        [ Alcotest.test_case "concurrent builds coalesce" `Quick test_csr_build_latch ] );
      ( "sparse",
        [ Alcotest.test_case "single source allocates < |V| words" `Quick
            test_single_source_allocation ] ) ]
