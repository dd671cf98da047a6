(* Paper Figure 3 (Example 6): the two-pass log-cosine recommender —
   composition of query blocks via vertex accumulators.

   Block 1 computes every other customer's similarity to the target
   (stored in their @lc accumulator); block 2 *reads those accumulators*
   to rank toys.  That cross-block side-effect composition is the paper's
   central expressivity claim (§5).

   Run with: dune exec examples/recommender.exe *)

module S = Pgraph.Schema
module G = Pgraph.Graph
module V = Pgraph.Value

let topktoys = {|
CREATE QUERY TopKToys (vertex<Customer> c, int k) FOR GRAPH SalesGraph {
  SumAccum<float> @lc, @inCommon, @rank;

  SELECT DISTINCT o INTO OthersWithCommonLikes
  FROM   Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o
  WHERE  o <> c and t.category = 'Toys'
  ACCUM  o.@inCommon += 1
  POST_ACCUM o.@lc = log(1 + o.@inCommon);

  SELECT t.name AS toy, t.@rank AS rank INTO Recommended
  FROM   OthersWithCommonLikes:o -(Likes>)- Product:t
  WHERE  t.category = 'Toys' and c <> o
  ACCUM  t.@rank += o.@lc
  ORDER BY t.@rank DESC
  LIMIT  k;

  RETURN Recommended;
}
|}

let () =
  let schema = S.create () in
  let _ = S.add_vertex_type schema "Customer" [ ("name", S.T_string) ] in
  let _ = S.add_vertex_type schema "Product" [ ("name", S.T_string); ("category", S.T_string) ] in
  let _ = S.add_edge_type schema "Likes" ~directed:true ~src:"Customer" ~dst:"Product" [] in
  let g = G.create schema in
  let cust name = G.add_vertex g "Customer" [ ("name", V.Str name) ] in
  let toy name = G.add_vertex g "Product" [ ("name", V.Str name); ("category", V.Str "Toys") ] in
  let like c t = ignore (G.add_edge g "Likes" c t []) in
  (* A small taste graph: rae likes trains and blocks; sam shares both and
     also likes puzzles; tia shares one; ulf shares none. *)
  let rae = cust "rae" and sam = cust "sam" and tia = cust "tia" and ulf = cust "ulf" in
  let train = toy "train" and blocks = toy "blocks" and puzzle = toy "puzzle" and drone = toy "drone" in
  List.iter (fun (c, t) -> like c t)
    [ (rae, train); (rae, blocks);
      (sam, train); (sam, blocks); (sam, puzzle);
      (tia, blocks); (tia, drone);
      (ulf, drone) ];

  let result =
    Gsql.Compile.run_source g ~params:[ ("c", V.Vertex rae); ("k", V.Int 3) ] topktoys
  in
  Printf.printf "Top toys for rae (similar customers weigh in by log-cosine):\n%s"
    (Gsql.Table.to_string (Gsql.Eval.table result "Recommended"));
  (* sam's similarity: log(1+2); tia's: log(1+1).
     puzzle <- sam = log 3 ≈ 1.10; drone <- tia = log 2 ≈ 0.69;
     train/blocks are rae's own likes but still rank via others:
     train <- sam = log 3; blocks <- sam + tia = log 3 + log 2 ≈ 1.79. *)
  (match (Gsql.Eval.table result "Recommended").Gsql.Table.rows with
   | [| V.Str top; _ |] :: _ ->
     Printf.printf "Top pick: %s (expected blocks)\n" top;
     assert (top = "blocks")
   | _ -> assert false)
