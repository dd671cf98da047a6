(* Paper Figure 4 (Example 7): PageRank written in GSQL — the WHILE loop,
   the primed @score' previous-iteration read, and the global MaxAccum
   convergence test, all inside the query language (no client-side driver
   program, which is the paper's point about iterative composition).

   Run with: dune exec examples/pagerank.exe *)

module G = Pgraph.Graph
module V = Pgraph.Value

(* The Page/LinkTo fixture lives in Pathsem.Toygraphs so the CLI
   (--graph pages:N) and the smoke tests share it. *)
let build_web ~pages ~links ~seed = (Pathsem.Toygraphs.web ~links ~seed pages).Pathsem.Toygraphs.g

let figure4 = {|
CREATE QUERY PageRank (float maxChange, int maxIteration, float dampingFactor) {
  MaxAccum<float> @@maxDifference = 9999999.0;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;

  AllV = {Page.*};
  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
    @@maxDifference = 0;
    S = SELECT v
        FROM AllV:v -(LinkTo>)- Page:n
        ACCUM n.@received_score += v.@score / v.outdegree()
        POST-ACCUM v.@score = 1 - dampingFactor + dampingFactor * v.@received_score,
                   v.@received_score = 0,
                   @@maxDifference += abs(v.@score - v.@score');
  END;

  SELECT v.url AS url, v.@score AS score INTO Ranks
  FROM AllV:v -(LinkTo>)- Page:n
  ORDER BY v.@score DESC
  LIMIT 10;
}
|}

let () =
  let g = build_web ~pages:200 ~links:1200 ~seed:7 in
  let result =
    Gsql.Compile.run_source g
      ~params:
        [ ("maxChange", V.Float 1e-6); ("maxIteration", V.Int 50); ("dampingFactor", V.Float 0.85) ]
      figure4
  in
  Printf.printf "Top pages by PageRank (200 pages, 1200 zipf links):\n%s"
    (Gsql.Table.to_string (Gsql.Eval.table result "Ranks"));

  (* Cross-check against the library's direct accumulator implementation. *)
  let options = { Galgos.Pagerank.damping = 0.85; max_iterations = 50; max_change = 1e-6 } in
  let direct = Galgos.Pagerank.run g ~options ~vertex_type:"Page" ~edge_type:"LinkTo" () in
  let gsql_top =
    match (Gsql.Eval.table result "Ranks").Gsql.Table.rows with
    | [| V.Str url; _ |] :: _ -> url
    | _ -> assert false
  in
  let direct_top = ref 0 in
  Array.iteri (fun v s -> if s > direct.(!direct_top) then direct_top := v) direct;
  let direct_top_url = V.to_string_exn (G.vertex_attr g !direct_top "url") in
  Printf.printf "GSQL top page: %s; direct-API top page: %s\n" gsql_top direct_top_url;
  assert (gsql_top = direct_top_url);
  print_endline "(both implementations agree)"
