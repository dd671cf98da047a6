(* Cross-library integration: GSQL queries validated against independent
   host-level implementations (the shipped graph-algorithm queries against
   Testkit.Oracles), serialization transparency, and the
   counting/enumeration equivalence end-to-end through the interpreter. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module B = Pgraph.Bignat
module E = Gsql.Eval
module Sem = Pathsem.Semantics

(* --- Qn through GSQL == engine count == ground truth, across semantics --- *)

let qn_src = {|
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
|}

let gsql_count ?semantics g ~src_name ~tgt_name =
  let params = [ ("srcName", V.Str src_name); ("tgtName", V.Str tgt_name) ] in
  let result = E.run_source g ?semantics ~params qn_src in
  match result.E.r_tables with
  | (_, t) :: _ ->
    (match t.Gsql.Table.rows with
     | [ [| _; V.Int c |] ] -> c
     | [] -> 0
     | _ -> Alcotest.fail "unexpected Qn rows")
  | [] -> 0

let test_qn_all_semantics_on_g1 () =
  (* Example 9's multiplicities, but end-to-end through the interpreter. *)
  let { Pathsem.Toygraphs.g; _ } = Pathsem.Toygraphs.g1 () in
  let count sem = gsql_count ~semantics:sem g ~src_name:"1" ~tgt_name:"5" in
  Alcotest.(check int) "ASP" 2 (count Sem.All_shortest);
  Alcotest.(check int) "NRE" 4 (count Sem.Non_repeated_edge);
  Alcotest.(check int) "NRV" 3 (count Sem.Non_repeated_vertex);
  Alcotest.(check int) "existential" 1 (count Sem.Existential)

let prop_qn_gsql_matches_engine =
  QCheck.Test.make ~name:"GSQL Qn = engine count on random DAGs" ~count:30
    (QCheck.pair QCheck.small_int (QCheck.int_range 3 9))
    (fun (seed, nv) ->
      let s = Pgraph.Schema.create () in
      let _ = Pgraph.Schema.add_vertex_type s "V" [ ("name", Pgraph.Schema.T_string) ] in
      let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
      let g = G.create s in
      for i = 0 to nv - 1 do
        ignore (G.add_vertex g "V" [ ("name", V.Str (Printf.sprintf "n%d" i)) ])
      done;
      let rng = Pgraph.Prng.create seed in
      for _ = 1 to nv * 2 do
        let i = Pgraph.Prng.int rng (nv - 1) in
        let j = Pgraph.Prng.int_in_range rng (i + 1) (nv - 1) in
        ignore (G.add_edge g "E" i j [])
      done;
      let ok = ref true in
      for dst = 1 to nv - 1 do
        let via_gsql = gsql_count g ~src_name:"n0" ~tgt_name:(Printf.sprintf "n%d" dst) in
        let direct =
          Pathsem.Engine.count_single_pair g (Darpe.Parse.parse "E>*") Sem.All_shortest ~src:0 ~dst
        in
        let direct_int = Option.value (B.to_int_opt direct) ~default:(-1) in
        if via_gsql <> direct_int && not (direct_int = 0 && via_gsql = 0) then ok := false
      done;
      !ok)

(* --- Each graph-algorithm query in queries/ = its definitional oracle,
   on random KNOWS graphs with parallel edges and self-loops --- *)

module Q = Testkit.Algo_queries
module O = Testkit.Oracles

let on_random_knows name check =
  QCheck.Test.make ~name ~count:30
    (QCheck.triple QCheck.small_int (QCheck.int_range 1 12) (QCheck.int_range 0 24))
    (fun (seed, nv, ne) -> check (Testkit.Fixtures.random_knows seed nv ne))

let persons g = List.init (G.n_vertices g) Fun.id

let algorithm_oracles =
  [ on_random_knows "wcc.gsql = union-find components" (fun g ->
        Q.components g = O.components g);
    on_random_knows "sssp.gsql = BFS hop distances" (fun g ->
        List.for_all (fun s -> Q.reached g s = O.reached g s) (persons g));
    on_random_knows "kcore.gsql = peeling" (fun g ->
        List.for_all (fun k -> Q.k_core g k = O.k_core g k) [ 0; 1; 2; 3 ]);
    on_random_knows "triangles.gsql = adjacent triples" (fun g ->
        Q.triangles g = O.triangles g);
    on_random_knows "label_propagation.gsql = LPA" (fun g ->
        Q.labels g = O.label_propagation g);
    on_random_knows "closeness.gsql = BFS closeness" (fun g ->
        List.for_all (fun k -> Q.top_closeness g k = O.top_closeness g k)
          [ 1; 3; G.n_vertices g ]) ]

(* Random directed V/E graph without self-loops. *)
let random_graph seed nv ne =
  let s = Pgraph.Schema.create () in
  let _ = Pgraph.Schema.add_vertex_type s "V" [ ("name", Pgraph.Schema.T_string) ] in
  let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
  let g = G.create s in
  for i = 0 to nv - 1 do
    ignore (G.add_vertex g "V" [ ("name", V.Str (string_of_int i)) ])
  done;
  let rng = Pgraph.Prng.create seed in
  for _ = 1 to ne do
    let a = Pgraph.Prng.int rng nv and b = Pgraph.Prng.int rng nv in
    if a <> b then ignore (G.add_edge g "E" a b [])
  done;
  g

(* --- Serialization transparency: snapshot text and back, then run an IC
   query --- *)

let test_serialized_graph_same_results () =
  let t = Testkit.Snb_cache.get () in
  let g = t.Ldbc.Snb.graph in
  let g' =
    match
      Store.Codec.graph_of_string (Obs.Json.to_string (Store.Codec.graph_to_json ~version:1 g))
    with
    | Ok (g', _) -> g'
    | Error msg -> Alcotest.failf "snapshot decode failed: %s" msg
  in
  let src = Ldbc.Ic.source Ldbc.Ic.Ic9 ~hops:2 in
  let params = Ldbc.Ic.default_params t ~seed:5 Ldbc.Ic.Ic9 in
  let r1 = E.run_source g ~params src in
  let r2 = E.run_source g' ~params src in
  let rows r = (E.table r "Result").Gsql.Table.rows in
  Alcotest.(check int) "same row count" (List.length (rows r1)) (List.length (rows r2));
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same row" true (V.equal (V.Vtuple a) (V.Vtuple b)))
    (rows r1) (rows r2)

(* --- Pretty-printed query executes identically --- *)

let test_pretty_printed_query_runs () =
  let { Testkit.Fixtures.g; customer; _ } = Testkit.Fixtures.sales_graph () in
  let src = {|
CREATE QUERY TopKToys (vertex<Customer> c, int k) FOR GRAPH SalesGraph {
  SumAccum<float> @lc, @inCommon, @rank;
  SELECT DISTINCT o INTO OthersWithCommonLikes
  FROM   Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o
  WHERE  o <> c and t.category = 'Toys'
  ACCUM  o.@inCommon += 1
  POST_ACCUM o.@lc = log(1 + o.@inCommon);
  SELECT t.name AS name, t.@rank AS rank INTO Recommended
  FROM   OthersWithCommonLikes:o -(Likes>)- Product:t
  WHERE  t.category = 'Toys' and c <> o
  ACCUM  t.@rank += o.@lc
  ORDER BY t.@rank DESC
  LIMIT  k;
  RETURN Recommended;
}
|}
  in
  let q = Gsql.Parser.parse_query src in
  let q' = Gsql.Parser.parse_query (Gsql.Pretty.query q) in
  let params = [ ("c", V.Vertex (customer "alice")); ("k", V.Int 3) ] in
  let r1 = E.run_query g ~params q in
  let r2 = E.run_query g ~params q' in
  Alcotest.(check string) "same result table"
    (Gsql.Table.to_string (E.table r1 "Recommended"))
    (Gsql.Table.to_string (E.table r2 "Recommended"))

(* --- Aggregation equivalence: GSQL vs direct fold --- *)

let prop_sum_query_matches_fold =
  QCheck.Test.make ~name:"GSQL per-vertex sums = direct fold" ~count:25
    (QCheck.pair QCheck.small_int (QCheck.int_range 2 10))
    (fun (seed, nv) ->
      let g = random_graph (seed + 97) nv (nv * 2) in
      let src = {|
        SumAccum<int> @indeg;
        S = SELECT w FROM V:v -(E>)- V:w ACCUM w.@indeg += 1;
        SELECT w AS vid, w.@indeg AS n INTO Deg
        FROM V:v -(E>)- V:w;
      |}
      in
      let result = E.run_source g src in
      let table = E.table result "Deg" in
      List.for_all
        (fun row ->
          match row with
          | [| V.Vertex v; V.Int n |] -> n = G.in_degree g v
          | _ -> false)
        table.Gsql.Table.rows)

let () =
  Alcotest.run "integration"
    [ ( "qn",
        [ Alcotest.test_case "all semantics on G1" `Quick test_qn_all_semantics_on_g1;
          QCheck_alcotest.to_alcotest prop_qn_gsql_matches_engine ] );
      ( "algorithms-in-gsql", List.map QCheck_alcotest.to_alcotest algorithm_oracles );
      ( "pipelines",
        [ Alcotest.test_case "serialized graph same results" `Quick test_serialized_graph_same_results;
          Alcotest.test_case "pretty-printed query runs" `Quick test_pretty_printed_query_runs;
          QCheck_alcotest.to_alcotest prop_sum_query_matches_fold ] ) ]
