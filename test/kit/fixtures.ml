(* Shared graph fixtures for the evaluator/integration test suites and
   examples: the paper's SalesGraph (Examples 1, 4, 5, 6), a small web
   graph for PageRank (Example 7), random mixed-direction graphs for the
   counting kernel's properties, and Person/KNOWS graphs for the graph
   algorithms shipped as queries/*.gsql. *)

module S = Pgraph.Schema
module G = Pgraph.Graph
module V = Pgraph.Value

(* SalesGraph: Customers -Bought-> Products, Customers -Likes-> Products,
   Customers -Connected- Customers (undirected). *)
let sales_schema () =
  let s = S.create () in
  let _ = S.add_vertex_type s "Customer" [ ("name", S.T_string); ("age", S.T_int) ] in
  let _ =
    S.add_vertex_type s "Product"
      [ ("name", S.T_string); ("listPrice", S.T_float); ("category", S.T_string) ]
  in
  let _ =
    S.add_edge_type s "Bought" ~directed:true ~src:"Customer" ~dst:"Product"
      [ ("quantity", S.T_int); ("discountPercent", S.T_float) ]
  in
  let _ = S.add_edge_type s "Likes" ~directed:true ~src:"Customer" ~dst:"Product" [] in
  let _ = S.add_edge_type s "Connected" ~directed:false ~src:"Customer" ~dst:"Customer" [] in
  s

type sales = {
  g : G.t;
  customer : string -> int;
  product : string -> int;
}

(* Fixed catalogue used across tests; revenues are hand-computable.
   Prices: ball 10.0, robot 20.0, puzzle 8.0, laptop 1000.0 (electronics).
   Purchases (customer, product, qty, discount%):
     alice: ball ×2 0%, robot ×1 50%    → toy revenue 20 + 10 = 30
     bob:   robot ×3 0%                 → 60
     carol: puzzle ×5 20%, laptop ×1 0% → toys 32 (laptop not a toy)
   Toy totals: ball 20, robot 70, puzzle 32; total 122.
   Likes: alice {ball, robot}, bob {ball, robot, puzzle}, carol {robot},
          dave {puzzle}.
   Recommender for alice (log-cosine, Fig. 3): bob shares 2 likes (lc =
   log 3), carol 1 (log 2), dave 0 (excluded); ranks: robot = log 3 + log 2,
   ball = log 3, puzzle = log 3. *)
let sales_graph () =
  let g = G.create (sales_schema ()) in
  let customer_tbl = Hashtbl.create 8 and product_tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, age) ->
      Hashtbl.replace customer_tbl name
        (G.add_vertex g "Customer" [ ("name", V.Str name); ("age", V.Int age) ]))
    [ ("alice", 31); ("bob", 42); ("carol", 27); ("dave", 35) ];
  List.iter
    (fun (name, price, cat) ->
      Hashtbl.replace product_tbl name
        (G.add_vertex g "Product"
           [ ("name", V.Str name); ("listPrice", V.Float price); ("category", V.Str cat) ]))
    [ ("ball", 10.0, "Toys"); ("robot", 20.0, "Toys"); ("puzzle", 8.0, "Toys");
      ("laptop", 1000.0, "Electronics") ];
  let c name = Hashtbl.find customer_tbl name and p name = Hashtbl.find product_tbl name in
  List.iter
    (fun (who, what, qty, disc) ->
      ignore
        (G.add_edge g "Bought" (c who) (p what)
           [ ("quantity", V.Int qty); ("discountPercent", V.Float disc) ]))
    [ ("alice", "ball", 2, 0.0); ("alice", "robot", 1, 50.0); ("bob", "robot", 3, 0.0);
      ("carol", "puzzle", 5, 20.0); ("carol", "laptop", 1, 0.0) ];
  List.iter
    (fun (who, what) -> ignore (G.add_edge g "Likes" (c who) (p what) []))
    [ ("alice", "ball"); ("alice", "robot"); ("bob", "ball"); ("bob", "robot");
      ("bob", "puzzle"); ("carol", "robot"); ("dave", "puzzle") ];
  ignore (G.add_edge g "Connected" (c "alice") (c "bob") []);
  ignore (G.add_edge g "Connected" (c "bob") (c "carol") []);
  { g; customer = c; product = p }

(* A 4-page web graph with known PageRank structure:
     a -> b, a -> c, b -> c, c -> a, d -> c
   (the classic example where c collects rank). *)
let web_graph () =
  let s = S.create () in
  let _ = S.add_vertex_type s "Page" [ ("url", S.T_string) ] in
  let _ = S.add_edge_type s "LinkTo" ~directed:true ~src:"Page" ~dst:"Page" [] in
  let g = G.create s in
  let page name = G.add_vertex g "Page" [ ("url", V.Str name) ] in
  let a = page "a" and b = page "b" and c = page "c" and d = page "d" in
  List.iter
    (fun (x, y) -> ignore (G.add_edge g "LinkTo" x y []))
    [ (a, b); (a, c); (b, c); (c, a); (d, c) ];
  (g, [| a; b; c; d |])

(* Reference PageRank (power iteration on adjacency), mirroring the GSQL
   query's update rule exactly: score' = (1-d) + d * sum(score_u / out(u)).
   Dangling vertices simply keep (1-d) + d * received(=0) semantics only if
   they have out-edges; matching the query, vertices without out-neighbors
   never appear as v and keep their current score. *)
let reference_pagerank g ~damping ~iterations =
  let n = G.n_vertices g in
  let score = Array.make n 1.0 in
  for _ = 1 to iterations do
    let received = Array.make n 0.0 in
    G.iter_vertices g (fun v ->
        let out = G.out_degree g v in
        if out > 0 then
          G.iter_adjacent g v (fun h ->
              if h.G.h_rel = G.Out then
                received.(h.G.h_other) <- received.(h.G.h_other) +. (score.(v) /. float_of_int out)));
    (* Only vertices appearing as pattern sources update, like the query. *)
    G.iter_vertices g (fun v ->
        if G.out_degree g v > 0 then score.(v) <- 1.0 -. damping +. (damping *. received.(v)))
  done;
  score

(* Random graph over three edge types — A, B directed, U undirected —
   with self-loops and parallel edges allowed: the shapes the CSR segment
   layout has to get right (an undirected self-loop stores one half-edge,
   a directed one stores two on the same vertex). *)
let mixed_schema () =
  let s = S.create () in
  ignore (S.add_vertex_type s "V" []);
  ignore (S.add_edge_type s "A" ~directed:true []);
  ignore (S.add_edge_type s "B" ~directed:true []);
  ignore (S.add_edge_type s "U" ~directed:false []);
  s

let random_mixed seed nv ne =
  let g = G.create (mixed_schema ()) in
  for _ = 1 to nv do ignore (G.add_vertex g "V" []) done;
  let rng = Pgraph.Prng.create seed in
  let types = [| "A"; "B"; "U" |] in
  for _ = 1 to ne do
    let i = Pgraph.Prng.int rng nv and j = Pgraph.Prng.int rng nv in
    ignore (G.add_edge g (Pgraph.Prng.choose rng types) i j [])
  done;
  g

(* Fixed DARPEs over [mixed_schema]: Kleene stars, alternation across
   directions and types, concatenation, bounds and the wildcard. *)
let mixed_patterns = [ "A>*"; "(A>|B>)*"; "U*"; "A>.<B"; "(A>|<B|U)*1..4"; "_>*1..2" ]

(* Person -(KNOWS)- Person: the SNB social network's schema (KNOWS is
   undirected), which the graph-algorithm queries in queries/ are written
   over.  [knows_graph n edges] has persons 0..n-1 (vertex id = index). *)
let knows_schema () =
  let s = S.create () in
  ignore (S.add_vertex_type s "Person" [ ("firstName", S.T_string) ]);
  ignore (S.add_edge_type s "KNOWS" ~directed:false ~src:"Person" ~dst:"Person" []);
  s

let knows_graph n edges =
  let g = G.create (knows_schema ()) in
  for i = 0 to n - 1 do
    ignore (G.add_vertex g "Person" [ ("firstName", V.Str (Printf.sprintf "p%d" i)) ])
  done;
  List.iter (fun (a, b) -> ignore (G.add_edge g "KNOWS" a b [])) edges;
  g

(* A random KNOWS graph with [ne] edges: about a quarter repeat the
   previous edge reversed (a parallel edge), the rest join two random
   persons, which may coincide (a self-loop). *)
let random_knows seed nv ne =
  let rng = Pgraph.Prng.create seed in
  let edges = ref [] in
  for _ = 1 to ne do
    let e =
      match !edges with
      | (a, b) :: _ when Pgraph.Prng.int rng 4 = 0 -> (b, a)
      | _ ->
        let a = Pgraph.Prng.int rng nv in
        (a, Pgraph.Prng.int rng nv)
    in
    edges := e :: !edges
  done;
  knows_graph nv (List.rev !edges)

(* The text of a shipped queries/*.gsql file.  dune runtest runs a test
   in _build/default/test, dune exec in the repo root. *)
let query_source file =
  let dir = List.find Sys.file_exists [ "../queries"; "queries" ] in
  In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
