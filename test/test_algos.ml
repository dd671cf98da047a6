(* The graph algorithms shipped as queries/*.gsql, run as compiled plans:
   worked examples on small Person/KNOWS graphs, the multiplicity rule
   (parallel edges and self-loops change no answer), and WCC against
   sssp.gsql's reachability.  test_integration checks each query against
   its definitional oracle on random graphs.  PageRank (paper Figure 4)
   is checked against the power-iteration reference. *)

module V = Pgraph.Value
module F = Testkit.Fixtures
module Q = Testkit.Algo_queries

let rows r name = (Gsql.Eval.table r name).Gsql.Table.rows

let clique base = [ (base, base + 1); (base, base + 2); (base, base + 3);
                    (base + 1, base + 2); (base + 1, base + 3); (base + 2, base + 3) ]

(* --- PageRank --- *)

let pagerank_params ~max_change ~iterations =
  [ ("maxChange", V.Float max_change); ("maxIteration", V.Int iterations);
    ("dampingFactor", V.Float 0.8) ]

let test_pagerank_matches_reference () =
  let g, pages = F.web_graph () in
  let reference = F.reference_pagerank g ~damping:0.8 ~iterations:30 in
  let r = Q.run ~params:(pagerank_params ~max_change:0.0 ~iterations:30) g "pagerank.gsql" in
  let ranked = rows r "Ranks" in
  Alcotest.(check (list string)) "c collects rank" [ "c"; "a"; "b"; "d" ]
    (List.map (fun row -> V.to_string row.(0)) ranked);
  List.iter
    (function
      | [| V.Str url; score |] ->
        let v = pages.(Char.code url.[0] - Char.code 'a') in
        Alcotest.(check (float 1e-9)) url reference.(v) (V.to_float score)
      | _ -> Alcotest.fail "Ranks row shape")
    ranked

let test_pagerank_early_exit () =
  (* The WHILE stops on @@maxDifference, not on the iteration cap. *)
  let g, _ = F.web_graph () in
  let src = F.query_source "pagerank.gsql" in
  let params = pagerank_params ~max_change:1e-12 ~iterations:500 in
  let report = (Gsql.Explain.analyze_source g ~params ~timings:false src).Gsql.Explain.an_report in
  let iterations =
    List.find_map
      (fun line -> Scanf.sscanf_opt (String.trim line) "analyze: %d executions" Fun.id)
      (String.split_on_char '\n' report)
  in
  match iterations with
  | Some n -> Alcotest.(check bool) "converges well before the cap" true (n > 3 && n < 500)
  | None -> Alcotest.failf "no loop statistics in:\n%s" report

(* --- WCC --- *)

let test_wcc () =
  let g = F.knows_graph 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list (pair int int))) "label = min id, members" [ (0, 3); (3, 2) ]
    (Q.components g)

let test_wcc_singletons () =
  let g = F.knows_graph 5 [] in
  Alcotest.(check (list (pair int int))) "five isolated persons"
    (List.init 5 (fun v -> (v, 1)))
    (Q.components g)

(* --- SSSP --- *)

let test_bfs () =
  (* A 4-cycle 0-1-2-3-0 and an unreachable person 4. *)
  let g = F.knows_graph 5 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  Alcotest.(check (list (pair int int))) "hop distances" [ (0, 0); (1, 1); (3, 1); (2, 2) ]
    (Q.reached g 0)

(* --- Label propagation --- *)

let test_label_propagation () =
  (* Two 4-cliques joined by one bridge edge settle into two communities,
     each labelled by its smallest member. *)
  let g = F.knows_graph 8 (clique 0 @ clique 4 @ [ (3, 4) ]) in
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 0; 4; 4; 4; 4 |] (Q.labels g);
  Alcotest.(check (list (pair int int))) "communities" [ (0, 4); (4, 4) ]
    (Q.communities g)

(* --- Triangles --- *)

let test_triangles () =
  (* C(4,3) = 4 triangles. *)
  let g = F.knows_graph 4 (clique 0) in
  Alcotest.(check int) "4-clique triangles" 4 (Q.triangles g)

let test_triangles_none () =
  let g = F.knows_graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "path has no triangles" 0 (Q.triangles g)

(* --- k-core --- *)

let test_kcore_clique_with_tail () =
  (* A 4-clique with a pendant path 4-5 hanging off vertex 0. *)
  let g = F.knows_graph 6 (clique 0 @ [ (0, 4); (4, 5) ]) in
  Alcotest.(check (list int)) "3-core = the clique" [ 0; 1; 2; 3 ] (Q.k_core g 3);
  Alcotest.(check (list int)) "1-core keeps everyone" [ 0; 1; 2; 3; 4; 5 ] (Q.k_core g 1);
  Alcotest.(check (list int)) "4-core empty" [] (Q.k_core g 4)

(* --- Closeness --- *)

let test_centrality () =
  (* Star: center 0 reaches all four leaves in one hop (closeness 1); a
     leaf reaches the center in one and three leaves in two (4/7). *)
  let g = F.knows_graph 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  Alcotest.(check (list (pair int (float 1e-12)))) "top 2" [ (0, 1.0); (1, 4.0 /. 7.0) ]
    (Q.top_closeness g 2)

(* --- parallel edges and self-loops --- *)

let test_multi_edges () =
  (* The answers are defined on the simple undirected view: doubling
     edges (either way round) and adding self-loops changes none. *)
  let simple = clique 0 @ [ (3, 4); (4, 5); (5, 6); (4, 6); (7, 8) ] in
  let g = F.knows_graph 9 simple in
  let gm = F.knows_graph 9 (simple @ [ (1, 0); (4, 3); (6, 5); (5, 6); (2, 2); (8, 8) ]) in
  let same name answer = Alcotest.(check bool) name true (answer g = answer gm) in
  same "components" Q.components;
  same "distances" (fun g -> Q.reached g 3);
  List.iter (fun k -> same (Printf.sprintf "%d-core" k) (fun g -> Q.k_core g k)) [ 1; 2; 3 ];
  same "triangles" Q.triangles;
  same "labels" Q.labels;
  same "closeness" (fun g -> Q.top_closeness g 9)

(* --- property: components = reachability classes --- *)

let prop_wcc_sound =
  QCheck.Test.make ~name:"WCC labels match undirected reachability" ~count:30
    (QCheck.triple QCheck.small_int (QCheck.int_range 1 12) (QCheck.int_range 0 24))
    (fun (seed, nv, ne) ->
      let g = F.random_knows seed nv ne in
      let comps = Q.components g in
      (* Each label l is the smallest id sssp.gsql reaches from l, and its
         member count is how many it reaches; the counts cover every
         person, so the components partition the graph. *)
      List.for_all
        (fun (l, n) ->
          let reached = List.map fst (Q.reached g l) in
          List.length reached = n && List.fold_left min l reached = l)
        comps
      && List.fold_left (fun acc (_, n) -> acc + n) 0 comps = nv)

let () =
  Alcotest.run "algos"
    [ ( "pagerank",
        [ Alcotest.test_case "pagerank.gsql matches reference" `Quick
            test_pagerank_matches_reference;
          Alcotest.test_case "early exit" `Quick test_pagerank_early_exit ] );
      ( "wcc",
        [ Alcotest.test_case "two components" `Quick test_wcc;
          Alcotest.test_case "singletons" `Quick test_wcc_singletons ] );
      ("sssp", [ Alcotest.test_case "bfs" `Quick test_bfs ]);
      ( "community",
        [ Alcotest.test_case "label propagation" `Quick test_label_propagation ] );
      ( "triangles",
        [ Alcotest.test_case "clique" `Quick test_triangles;
          Alcotest.test_case "path" `Quick test_triangles_none ] );
      ( "kcore",
        [ Alcotest.test_case "clique with tail" `Quick test_kcore_clique_with_tail ] );
      ("centrality", [ Alcotest.test_case "star" `Quick test_centrality ]);
      ( "multi-edges",
        [ Alcotest.test_case "parallel edges and self-loops change nothing" `Quick
            test_multi_edges ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_wcc_sound ]) ]
