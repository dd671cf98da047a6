(* Paper Figure 2 (Example 4) + Example 5: single-pass multi-aggregation by
   three distinct grouping criteria, then the multi-output SELECT variant
   that materializes the three tables at once.

   Run with: dune exec examples/sales_multi_agg.exe *)

module S = Pgraph.Schema
module G = Pgraph.Graph
module V = Pgraph.Value

let build_sales_graph () =
  let schema = S.create () in
  let _ = S.add_vertex_type schema "Customer" [ ("name", S.T_string) ] in
  let _ =
    S.add_vertex_type schema "Product"
      [ ("name", S.T_string); ("listPrice", S.T_float); ("category", S.T_string) ]
  in
  let _ =
    S.add_edge_type schema "Bought" ~directed:true ~src:"Customer" ~dst:"Product"
      [ ("quantity", S.T_int); ("discountPercent", S.T_float) ]
  in
  let g = G.create schema in
  let cust name = G.add_vertex g "Customer" [ ("name", V.Str name) ] in
  let prod name price cat =
    G.add_vertex g "Product"
      [ ("name", V.Str name); ("listPrice", V.Float price); ("category", V.Str cat) ]
  in
  let buy c p qty disc =
    ignore
      (G.add_edge g "Bought" c p
         [ ("quantity", V.Int qty); ("discountPercent", V.Float disc) ])
  in
  let mia = cust "mia" and noa = cust "noa" and ori = cust "ori" in
  let kite = prod "kite" 15.0 "Toys" in
  let dino = prod "dino" 25.0 "Toys" in
  let yoyo = prod "yoyo" 5.0 "Toys" in
  let couch = prod "couch" 800.0 "Furniture" in
  buy mia kite 2 0.0;
  buy mia dino 1 10.0;
  buy noa dino 4 0.0;
  buy noa yoyo 10 50.0;
  buy ori kite 1 0.0;
  buy ori couch 1 0.0;
  g

(* Figure 2 verbatim (modulo attribute names): the revenue for every toy is
   aggregated at the Product vertex, the revenue for every customer at the
   Customer vertex, and the grand total in a global accumulator — all three
   grouping criteria in ONE pass over the Bought edges. *)
let figure2 = {|
  SumAccum<float> @@totalRevenue;
  SumAccum<float> @revenuePerToy, @revenuePerCust;

  S = SELECT c
      FROM   Customer:c -(Bought>:b)- Product:p
      WHERE  p.category = 'Toys'
      ACCUM  float salesPrice = b.quantity * p.listPrice * (100 - b.discountPercent) / 100.0,
             c.@revenuePerCust += salesPrice,
             p.@revenuePerToy  += salesPrice,
             @@totalRevenue    += salesPrice;

  /* Example 5: the multi-output SELECT — three tables from one body. */
  SELECT c.name AS customer, c.@revenuePerCust AS revenue INTO PerCust;
         p.name AS toy, p.@revenuePerToy AS revenue INTO PerToy;
         @@totalRevenue AS revenue INTO Total
  FROM   Customer:c -(Bought>)- Product:p
  WHERE  p.category = 'Toys'
  ORDER BY c.name ASC;
|}

let () =
  let g = build_sales_graph () in
  let result = Gsql.Compile.run_source g figure2 in
  print_endline "Toy revenue per customer:";
  print_endline (Gsql.Table.to_string (Gsql.Eval.table result "PerCust"));
  print_endline "Toy revenue per product:";
  print_endline (Gsql.Table.to_string (Gsql.Eval.table result "PerToy"));
  print_endline "Total:";
  print_endline (Gsql.Table.to_string (Gsql.Eval.table result "Total"));
  (* Hand check: mia = 2*15 + 1*25*0.9 = 52.5; noa = 4*25 + 10*5*0.5 = 125;
     ori = 15.  kite = 45, dino = 122.5, yoyo = 25.  total = 192.5. *)
  (match (Gsql.Eval.table result "Total").Gsql.Table.rows with
   | [ [| total |] ] -> assert (abs_float (V.to_float total -. 192.5) < 1e-9)
   | _ -> assert false);
  print_endline "(total matches the hand-computed 192.5)"
