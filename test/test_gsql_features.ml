(* Second evaluator feature suite: catalogs, grouping-set sugar, attribute
   writes, method calls, multi-conjunct joins, DISTINCT outputs, and error
   surfaces not covered by the paper-query suite. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module E = Gsql.Eval
module F = Testkit.Fixtures

let value = Alcotest.testable V.pp V.equal

(* --- Catalog --- *)

let catalog_source = {|
CREATE QUERY CustomerSpend (vertex<Customer> c) FOR GRAPH SalesGraph {
  SumAccum<float> @@spend;
  S = SELECT p
      FROM Customer:cc -(Bought>:b)- Product:p
      WHERE cc == c
      ACCUM @@spend += b.quantity * p.listPrice;
  RETURN @@spend;
}

CREATE QUERY ProductBuyers (vertex<Product> p) FOR GRAPH SalesGraph {
  SumAccum<int> @@buyers;
  S = SELECT c
      FROM Customer:c -(Bought>)- Product:pp
      WHERE pp == p
      ACCUM @@buyers += 1;
  RETURN @@buyers;
}
|}

let test_catalog_install_and_run () =
  let { F.g; customer; product } = F.sales_graph () in
  let cat = Gsql.Catalog.create () in
  let installed = Gsql.Catalog.install cat catalog_source in
  Alcotest.(check (list string)) "installed names" [ "CustomerSpend"; "ProductBuyers" ] installed;
  Alcotest.(check (list string)) "names" [ "CustomerSpend"; "ProductBuyers" ]
    (Gsql.Catalog.names cat);
  Alcotest.(check bool) "mem" true (Gsql.Catalog.mem cat "CustomerSpend");
  let r =
    Gsql.Catalog.run cat g ~params:[ ("c", V.Vertex (customer "carol")) ] "CustomerSpend"
  in
  (* carol: 5×8 + 1×1000 = 1040 *)
  Alcotest.check value "carol spend" (V.Float 1040.0) (E.return_value r);
  let r = Gsql.Catalog.run cat g ~params:[ ("p", V.Vertex (product "robot")) ] "ProductBuyers" in
  Alcotest.check value "robot buyers" (V.Int 2) (E.return_value r)

let test_catalog_errors () =
  let cat = Gsql.Catalog.create () in
  let expect_error f = match f () with
    | exception Gsql.Catalog.Error _ -> ()
    | _ -> Alcotest.fail "expected Catalog.Error"
  in
  expect_error (fun () -> Gsql.Catalog.install cat "CREATE QUERY broken() { SELECT }");
  expect_error (fun () ->
      Gsql.Catalog.install cat
        "CREATE QUERY bad() { S = SELECT t FROM V:s -(E>)- V:t ACCUM t.@nope += 1; }");
  ignore (Gsql.Catalog.install cat "CREATE QUERY ok() { PRINT 1; }");
  expect_error (fun () -> Gsql.Catalog.install cat "CREATE QUERY ok() { PRINT 2; }");
  expect_error (fun () ->
      let { F.g; _ } = F.sales_graph () in
      Gsql.Catalog.run cat g ~params:[] "missing");
  Gsql.Catalog.drop cat "ok";
  Alcotest.(check bool) "dropped" false (Gsql.Catalog.mem cat "ok")

let test_catalog_source_roundtrip () =
  let cat = Gsql.Catalog.create () in
  ignore (Gsql.Catalog.install cat catalog_source);
  let rendered = Gsql.Catalog.source_of cat "CustomerSpend" in
  (* The rendered source re-parses and reinstalls under a fresh catalog. *)
  let cat2 = Gsql.Catalog.create () in
  Alcotest.(check (list string)) "reinstallable" [ "CustomerSpend" ]
    (Gsql.Catalog.install cat2 rendered);
  match Gsql.Catalog.signature_of cat "CustomerSpend" with
  | [ ("c", Gsql.Ast.Ty_vertex (Some "Customer")) ] -> ()
  | _ -> Alcotest.fail "signature mismatch"

(* --- Grouping-set sugar (Example 12's CUBE/ROLLUP claim) --- *)

let read_group acc = match Accum.Acc.read acc with V.Vlist rows -> rows | _ -> []

let test_cube_inputs () =
  let acc = Accum.Acc.create (Accum.Spec.Group_by (2, [ Accum.Spec.Sum_int ])) in
  (* Two rows: (a, x, 1) and (a, y, 2). *)
  Accum.Sugar.feed_cube acc ~keys:[| V.Str "a"; V.Str "x" |] ~values:[| V.Int 1 |];
  Accum.Sugar.feed_cube acc ~keys:[| V.Str "a"; V.Str "y" |] ~values:[| V.Int 2 |];
  let rows = read_group acc in
  (* Groups: (a,x)=1 (a,y)=2 (a,_)=3 (_,x)=1 (_,y)=2 (_,_)=3 → 6 groups. *)
  Alcotest.(check int) "cube group count" 6 (List.length rows);
  let find k1 k2 =
    List.find_map
      (function
        | V.Vtuple [| a; b; s |] when V.equal a k1 && V.equal b k2 -> Some s
        | _ -> None)
      rows
    |> Option.get
  in
  Alcotest.check value "grand total" (V.Int 3) (find V.Null V.Null);
  Alcotest.check value "per first key" (V.Int 3) (find (V.Str "a") V.Null);
  Alcotest.check value "per second key" (V.Int 2) (find V.Null (V.Str "y"));
  Alcotest.check value "full key" (V.Int 1) (find (V.Str "a") (V.Str "x"))

let test_rollup_inputs () =
  let acc = Accum.Acc.create (Accum.Spec.Group_by (3, [ Accum.Spec.Sum_int ])) in
  Accum.Sugar.feed_rollup acc ~keys:[| V.Int 1; V.Int 2; V.Int 3 |] ~values:[| V.Int 10 |];
  (* ROLLUP produces n+1 = 4 grouping sets for one row → 4 groups. *)
  Alcotest.(check int) "rollup group count" 4 (List.length (read_group acc))

let test_grouping_sets_match_sqlagg () =
  (* The sugar and the SQL engine agree on a grouping-set aggregation. *)
  let rows = [ ("a", "x", 1); ("a", "y", 2); ("b", "x", 4) ] in
  let sets = [ [ 0 ]; [ 1 ] ] in
  let acc = Accum.Acc.create (Accum.Spec.Group_by (2, [ Accum.Spec.Sum_float ])) in
  List.iter
    (fun (k1, k2, v) ->
      Accum.Sugar.feed_grouping_sets acc ~keys:[| V.Str k1; V.Str k2 |] ~values:[| V.Int v |] ~sets)
    rows;
  let table = List.map (fun (k1, k2, v) -> [| V.Str k1; V.Str k2; V.Int v |]) rows in
  let sql =
    Sqlagg.grouping_sets table
      { Sqlagg.sets; aggs = [ { Sqlagg.a_fun = Sqlagg.Sum; a_col = 2 } ] }
  in
  (* Same number of (set, key) groups. *)
  Alcotest.(check int) "same group count" (List.length sql) (List.length (read_group acc));
  (* Spot-check: group "a" (set 0) sums to 3. *)
  let acc_a =
    List.find_map
      (function
        | V.Vtuple [| V.Str "a"; V.Null; s |] -> Some s
        | _ -> None)
      (read_group acc)
    |> Option.get
  in
  Alcotest.check value "sugar sum for a" (V.Float 3.0) acc_a

let test_sugar_errors () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sugar: grouping-set position out of range")
    (fun () ->
      ignore (Accum.Sugar.grouping_set_inputs ~keys:[| V.Int 1 |] ~values:[| V.Int 1 |] ~sets:[ [ 3 ] ]))

(* --- Attribute writes from ACCUM --- *)

let test_attr_assign () =
  let { F.g; customer; _ } = F.sales_graph () in
  let src = {|
    SumAccum<float> @rev;
    S = SELECT c
        FROM Customer:c -(Bought>:b)- Product:p
        ACCUM c.@rev += b.quantity * p.listPrice
        POST_ACCUM c.age = 100;
  |}
  in
  ignore (E.run_source g src);
  (* Buyers got age 100; dave (no purchases) kept his. *)
  Alcotest.(check int) "alice updated" 100 (V.to_int (G.vertex_attr g (customer "alice") "age"));
  Alcotest.(check int) "dave untouched" 35 (V.to_int (G.vertex_attr g (customer "dave") "age"))

(* --- Methods: get / contains / size on accumulator reads --- *)

let test_collection_methods () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    MapAccum<string, SumAccum<int>> @@m;
    SetAccum<string> @@names;
    S = SELECT c
        FROM Customer:c -(Bought>)- Product:p
        ACCUM @@m += (c.name -> 1),
              @@names += c.name;
    RETURN (@@m.get('carol'), @@names.size(), @@names.contains('dave'));
  |}
  in
  match E.return_value (E.run_source g src) with
  | V.Vtuple [| carol; size; has_dave |] ->
    Alcotest.check value "carol bought 2 products" (V.Int 2) carol;
    Alcotest.check value "3 distinct buyers" (V.Int 3) size;
    Alcotest.check value "dave bought nothing" (V.Bool false) has_dave
  | v -> Alcotest.failf "unexpected %s" (V.to_string v)

(* --- Multi-conjunct join with shared aliases (triangle query) --- *)

let test_triangle_join () =
  let s = Pgraph.Schema.create () in
  let _ = Pgraph.Schema.add_vertex_type s "V" [ ("name", Pgraph.Schema.T_string) ] in
  let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
  let g = G.create s in
  let v name = G.add_vertex g "V" [ ("name", V.Str name) ] in
  let a = v "a" and b = v "b" and c = v "c" and d = v "d" in
  List.iter (fun (x, y) -> ignore (G.add_edge g "E" x y []))
    [ (a, b); (b, c); (c, a); (b, d) ];
  (* Directed triangles via a three-conjunct cyclic join. *)
  let src = {|
    SumAccum<int> @@triangles;
    S = SELECT x
        FROM V:x -(E>)- V:y, V:y -(E>)- V:z, V:z -(E>)- V:x
        ACCUM @@triangles += 1;
    RETURN @@triangles;
  |}
  in
  (* The triangle a→b→c→a is found once per rotation = 3 bindings. *)
  Alcotest.check value "3 rotations" (V.Int 3) (E.return_value (E.run_source g src))

(* --- DISTINCT in a multi-output SELECT --- *)

let test_distinct_output () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    SELECT DISTINCT p.category AS cat INTO Cats
    FROM Customer:c -(Bought>)- Product:p;
  |}
  in
  let t = E.table (E.run_source g src) "Cats" in
  (* Toys (several rows collapse) + Electronics. *)
  Alcotest.(check int) "two categories" 2 (Gsql.Table.n_rows t)

(* --- HAVING over a multi-output SELECT --- *)

let test_having_on_output () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    SumAccum<int> @n;
    S = SELECT p FROM Customer:c -(Bought>)- Product:p ACCUM p.@n += 1;
    SELECT p.name AS name INTO Popular
    FROM Customer:c -(Bought>)- Product:p
    HAVING p.@n >= 2;
  |}
  in
  let t = E.table (E.run_source g src) "Popular" in
  (* Only robot was bought by two customers. *)
  Alcotest.(check bool) "only robot" true
    (List.map (fun r -> V.to_string r.(0)) t.Gsql.Table.rows = [ "robot" ])

(* --- FOREACH over a vertex-set variable --- *)

let test_foreach_vset () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    SumAccum<int> @@count;
    Buyers = SELECT c FROM Customer:c -(Bought>)- Product:p;
    FOREACH x IN Buyers DO
      @@count += 1;
    END
    RETURN @@count;
  |}
  in
  Alcotest.check value "three buyers" (V.Int 3) (E.return_value (E.run_source g src))


(* --- GROUP BY: the SQL-borrowed conventional aggregation (§4.2) --- *)

let test_group_by_basic () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    SELECT p.category AS cat, count(*) AS n, sum(b.quantity) AS units, avg(p.listPrice) AS price,
           min(b.quantity) AS lo, max(b.quantity) AS hi INTO ByCat
    FROM Customer:c -(Bought>:b)- Product:p
    GROUP BY p.category
    ORDER BY p.category ASC;
  |}
  in
  let t = E.table (E.run_source g src) "ByCat" in
  (match t.Gsql.Table.rows with
   | [ elec; toys ] ->
     (* Electronics: 1 purchase (laptop ×1). *)
     Alcotest.check value "elec cat" (V.Str "Electronics") elec.(0);
     Alcotest.check value "elec count" (V.Int 1) elec.(1);
     Alcotest.check value "elec units" (V.Float 1.0) elec.(2);
     (* Toys: purchases ball×2, robot×1, robot×3, puzzle×5 → 4 rows, 11 units. *)
     Alcotest.check value "toys count" (V.Int 4) toys.(1);
     Alcotest.check value "toys units" (V.Float 11.0) toys.(2);
     Alcotest.check value "toys min qty" (V.Int 1) toys.(4);
     Alcotest.check value "toys max qty" (V.Int 5) toys.(5)
   | rows -> Alcotest.failf "expected 2 groups, got %d" (List.length rows))

let test_group_by_having_and_limit () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    SELECT c.name AS name, count(*) AS purchases INTO Frequent
    FROM Customer:c -(Bought>)- Product:p
    GROUP BY c.name
    HAVING count(*) >= 2
    ORDER BY count(*) DESC, c.name ASC
    LIMIT 2;
  |}
  in
  let t = E.table (E.run_source g src) "Frequent" in
  (* alice 2, carol 2 (bob has 1). *)
  Alcotest.(check (list string)) "frequent buyers" [ "alice"; "carol" ]
    (List.map (fun r -> V.to_string r.(0)) t.Gsql.Table.rows)

let test_group_by_multiplicity () =
  (* Conventional count-star also receives the Theorem 7.1 treatment: the
     2^10 paths are counted, never materialized. *)
  let { Pathsem.Toygraphs.g; _ } = Pathsem.Toygraphs.diamond_chain 10 in
  let src = {|
    SELECT t.name AS target, count(*) AS paths INTO PathCounts
    FROM V:s -(E>*1..)- V:t
    WHERE s.name = 'v0' AND (t.name = 'v10' OR t.name = 'v5')
    GROUP BY t.name
    ORDER BY t.name ASC;
  |}
  in
  let t = E.table (E.run_source g src) "PathCounts" in
  (match t.Gsql.Table.rows with
   | [ r10; r5 ] ->
     Alcotest.check value "2^10 paths" (V.Int 1024) r10.(1);
     Alcotest.check value "2^5 paths" (V.Int 32) r5.(1)
   | _ -> Alcotest.fail "expected two groups")

(* SQL NULL handling: count(e) counts the rows where e is not NULL; sum,
   avg, min and max skip NULLs, and give NULL when nothing is left.  In g1,
   vertex 2 has three out-edges and only the targets with name [mark] carry
   @m; the answer may not depend on the order of the group's rows. *)
let test_group_by_nulls () =
  let g = (Pathsem.Toygraphs.g1 ()).Pathsem.Toygraphs.g in
  let run mark target =
    let src =
      Printf.sprintf
        {|MaxAccum<int> @m;
          S = SELECT t FROM V:s -(E>)- V:t WHERE t.name == "%s" ACCUM t.@m += 1;
          SELECT s.name AS n, count(t.@m) AS c, count(*) AS cs, sum(t.@m) AS sm,
                 avg(t.@m) AS av, min(t.@m) AS mn, max(t.@m) AS mx INTO T
          FROM V:s -(E>)- V:t WHERE s.name == "%s" GROUP BY s.name;|}
        mark target
    in
    match (E.table (E.run_source g src) "T").Gsql.Table.rows with
    | [ row ] -> Array.to_list row
    | _ -> Alcotest.fail "expected one group"
  in
  let one_of_three = [ V.Str "2"; V.Int 1; V.Int 3; V.Float 1.0; V.Float 1.0; V.Int 1; V.Int 1 ] in
  Alcotest.(check (list value)) "@m on target 3" one_of_three (run "3" "2");
  Alcotest.(check (list value)) "@m on target 6" one_of_three (run "6" "2");
  Alcotest.(check (list value)) "no @m anywhere"
    [ V.Str "2"; V.Int 0; V.Int 3; V.Null; V.Null; V.Null; V.Null ]
    (run "nosuch" "2")

let test_group_by_rejected_on_vertex_select () =
  let { F.g; _ } = F.sales_graph () in
  match E.run_source g "S = SELECT c FROM Customer:c -(Bought>)- Product:p GROUP BY c.name;" with
  | exception E.Runtime_error _ -> ()
  | _ -> Alcotest.fail "GROUP BY on a vertex-set SELECT must be rejected"


(* --- Vertex-set algebra and string builtins --- *)

let test_set_algebra () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    Buyers = SELECT c FROM Customer:c -(Bought>)- Product:p;
    Likers = SELECT c FROM Customer:c -(Likes>)- Product:p;
    Both = Buyers INTERSECT Likers;
    Either = Buyers UNION Likers;
    OnlyLike = Likers MINUS Buyers;
    Everyone = Customer MINUS OnlyLike;
    SumAccum<int> @@b, @@e, @@o, @@ev;
    FOREACH x IN Both DO @@b += 1; END
    FOREACH x IN Either DO @@e += 1; END
    FOREACH x IN OnlyLike DO @@o += 1; END
    FOREACH x IN Everyone DO @@ev += 1; END
    RETURN (@@b, @@e, @@o, @@ev);
  |}
  in
  (* Buyers = {alice,bob,carol}; Likers = {alice,bob,carol,dave}.
     Both = 3, Either = 4, OnlyLike = {dave} = 1, Customer MINUS {dave} = 3. *)
  match E.return_value (E.run_source g src) with
  | V.Vtuple [| b; e; o; ev |] ->
    Alcotest.check value "intersect" (V.Int 3) b;
    Alcotest.check value "union" (V.Int 4) e;
    Alcotest.check value "minus" (V.Int 1) o;
    Alcotest.check value "type extent minus" (V.Int 3) ev
  | v -> Alcotest.failf "unexpected %s" (V.to_string v)

let test_string_builtins () =
  let { F.g; _ } = F.sales_graph () in
  let src = {|
    RETURN (lower('AbC'), upper('AbC'), trim('  x  '), length('hello'),
            concat('a', 'b', 'c'), substr('abcdef', 2, 3),
            starts_with('hello', 'he'), contains_str('hello', 'ell'),
            contains_str('hello', 'xyz'));
  |}
  in
  match E.return_value (E.run_source g src) with
  | V.Vtuple [| lo; up; tr; len; cat; sub; sw; cs1; cs2 |] ->
    Alcotest.check value "lower" (V.Str "abc") lo;
    Alcotest.check value "upper" (V.Str "ABC") up;
    Alcotest.check value "trim" (V.Str "x") tr;
    Alcotest.check value "length" (V.Int 5) len;
    Alcotest.check value "concat" (V.Str "abc") cat;
    Alcotest.check value "substr" (V.Str "cde") sub;
    Alcotest.check value "starts_with" (V.Bool true) sw;
    Alcotest.check value "contains yes" (V.Bool true) cs1;
    Alcotest.check value "contains no" (V.Bool false) cs2
  | v -> Alcotest.failf "unexpected %s" (V.to_string v)


(* --- INSERT INTO: graph mutation from queries --- *)

let test_insert_vertex_and_edge () =
  let { F.g; customer; _ } = F.sales_graph () in
  let before_v = G.n_vertices g and before_e = G.n_edges g in
  let src = {|
    INSERT INTO Customer (name, age) VALUES ('zoe', 28);
    Zoe = SELECT c FROM Customer:c -(Bought>*0..0)- Customer:c2 WHERE c.name = 'zoe';
    RETURN Zoe;
  |}
  in
  let r = E.run_source g src in
  Alcotest.(check int) "one vertex added" (before_v + 1) (G.n_vertices g);
  (match r.E.r_return with
   | Some (E.R_vset [| zoe |]) ->
     (* Now connect zoe to an existing product via a second query. *)
     let robot = F.sales_graph () in
     ignore robot;
     let src2 = {|
       INSERT INTO Bought (quantity, discountPercent) VALUES (z, p, 2, 0.0);
       SumAccum<float> @@rev;
       S = SELECT c FROM Customer:c -(Bought>:b)- Product:pp
           WHERE c == z
           ACCUM @@rev += b.quantity * pp.listPrice;
       RETURN @@rev;
     |}
     in
     let robot_id = (F.sales_graph ()).F.product "robot" in
     ignore robot_id;
     (* Use the same graph instance: find robot in g. *)
     let robot_in_g = Option.get (G.find_vertex_by_attr g "Product" "name" (V.Str "robot")) in
     let r2 =
       E.run_source g ~params:[ ("z", V.Vertex zoe); ("p", V.Vertex robot_in_g) ] src2
     in
     Alcotest.(check int) "one edge added" (before_e + 1) (G.n_edges g);
     Alcotest.check value "zoe revenue" (V.Float 40.0) (E.return_value r2);
     (* And the new vertex participates in accumulators transparently. *)
     ignore (customer "alice")
   | _ -> Alcotest.fail "expected the inserted vertex")

let test_insert_errors () =
  let { F.g; _ } = F.sales_graph () in
  let expect_error src =
    match E.run_source g src with
    | exception E.Runtime_error _ -> ()
    | _ -> Alcotest.fail ("expected Runtime_error for " ^ src)
  in
  expect_error "INSERT INTO Nope (x) VALUES (1);";
  expect_error "INSERT INTO Customer (name) VALUES ('a', 'b');";
  expect_error "INSERT INTO Customer (salary) VALUES (1);";
  expect_error "INSERT INTO Bought (quantity) VALUES (1);"


(* --- EXPLAIN --- *)

let occurrences report needle =
  let n = String.length needle and m = String.length report in
  let rec go i acc =
    if i + n > m then acc else go (i + 1) (if String.sub report i n = needle then acc + 1 else acc)
  in
  go 0 0

let mentions report needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions: " ^ needle) true (occurrences report needle > 0))
    needles

let omits report needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report omits: " ^ needle) false (occurrences report needle > 0))
    needles

let explain_block src = Gsql.Explain.block (Gsql.Parser.parse_block src)

let test_explain_report () =
  let src = {|
CREATE QUERY Qn (string srcName, string tgtName) SEMANTICS 'non-repeated-edge' {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
|}
  in
  let report = Gsql.Explain.query (Gsql.Parser.parse_query src) in
  mentions report
    [ "semantics: non-repeated-edge";
      "dfa-product s -(E>*)- t [unbounded]";
      "where pushed[s]: (s.name == srcName)";
      "-> {t.@pathCount}";
      "tractable class (Theorem 7.1): yes" ];
  Alcotest.(check int) "exactly one plan" 1 (occurrences report "plan:")

let test_explain_intractable_and_errors () =
  let report =
    explain_block
      "ListAccum<int> @@l; S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@l += 1, t.@missing += 2;"
  in
  mentions report [ "analysis errors:"; "tractable class (Theorem 7.1): NO" ];
  (* A rejected source has no plan. *)
  omits report [ "plan:" ]

(* EXPLAIN reports the push-down Compile performs: a conjunct that reads
   an edge alias stays a residual row filter even when it names only one
   vertex alias. *)
let test_explain_edge_alias_residual () =
  let report =
    explain_block
      "S = SELECT t FROM Person:s -(KNOWS:e)- Person:t \
       WHERE e.creationDate > s.creationDate AND s.firstName == 'Jan';"
  in
  mentions report
    [ "where pushed[s]: (s.firstName == \"Jan\")";
      "where residual: (e.creationDate > s.creationDate)" ];
  omits report [ "where pushed[s]: (e.creationDate" ]

(* *0..0 accepts only the empty word; the plan folds it to identity pairs
   instead of running a product traversal. *)
let test_explain_empty_word_identity () =
  let report = explain_block "S = SELECT p FROM Person:p -(KNOWS*0..0)- Person:q;" in
  mentions report [ "identity p -(())- q [empty-word DFA folded @install]" ];
  omits report [ "dfa-product"; "product traversal" ]

(* EXPLAIN ANALYZE describes the plan it executed: compiled against the
   graph's schema, so the step's segment symbols resolved at install. *)
let test_explain_analyze_executed_plan () =
  let { Pathsem.Toygraphs.g; _ } = Pathsem.Toygraphs.g1 () in
  let a =
    Gsql.Explain.analyze_source g ~timings:false
      "SumAccum<int> @@n; S = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1;"
  in
  let report = a.Gsql.Explain.an_report in
  mentions report [ "step s -(E>)- t [syms@install]"; "analyze: 1 execution" ];
  omits report [ "[syms@invoke]" ];
  Alcotest.(check int) "exactly one plan" 1 (occurrences report "plan:")

(* Op lines carry the step direction, a WHILE's LIMIT, an accumulator
   declaration's type and a product's path-length class. *)
let test_explain_describe_lines () =
  let report =
    explain_block
      "SumAccum<int> @@n; i = 0;\n\
       WHILE i < 3 LIMIT 7 DO\n\
      \  S = SELECT t FROM V:s -(<E)- V:t ACCUM @@n += 1;\n\
      \  i = i + 1;\n\
       END;\n\
       A = SELECT t FROM V:s -(E>*1..3)- V:t;\n\
       B = SELECT t FROM V:s -(E>.E>)- V:t;"
  in
  mentions report
    [ "step s -(<E)- t";
      "while (i < 3) limit 7";
      "accum-decl @@n: SumAccum<int>";
      "dfa-product s -(E>*1..3)- t [max 3]";
      "dfa-product s -(E>.E>)- t [fixed 2]" ]

(* --- Table utilities --- *)

let test_table_utilities () =
  let t =
    Gsql.Table.create [ "a"; "b" ]
      [ [| V.Int 2; V.Str "x" |]; [| V.Int 1; V.Str "y" |]; [| V.Int 2; V.Str "x" |] ]
  in
  Alcotest.(check int) "rows" 3 (Gsql.Table.n_rows t);
  Alcotest.(check int) "cols" 2 (Gsql.Table.n_cols t);
  Alcotest.(check int) "distinct" 2 (Gsql.Table.n_rows (Gsql.Table.distinct t));
  Alcotest.(check int) "limit" 1 (Gsql.Table.n_rows (Gsql.Table.limit 1 t));
  let sorted = Gsql.Table.sort_by (fun r1 r2 -> V.compare r1.(0) r2.(0)) t in
  Alcotest.check value "sorted first" (V.Int 1) (List.hd sorted.Gsql.Table.rows).(0);
  Alcotest.(check (list string)) "column" [ "x"; "y"; "x" ]
    (List.map V.to_string (Gsql.Table.column t "b"));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.create: row width 1 does not match 2 columns")
    (fun () -> ignore (Gsql.Table.create [ "a"; "b" ] [ [| V.Int 1 |] ]))

let () =
  Alcotest.run "gsql-features"
    [ ( "catalog",
        [ Alcotest.test_case "install and run" `Quick test_catalog_install_and_run;
          Alcotest.test_case "errors" `Quick test_catalog_errors;
          Alcotest.test_case "source roundtrip" `Quick test_catalog_source_roundtrip ] );
      ( "grouping-sugar",
        [ Alcotest.test_case "cube" `Quick test_cube_inputs;
          Alcotest.test_case "rollup" `Quick test_rollup_inputs;
          Alcotest.test_case "matches sqlagg" `Quick test_grouping_sets_match_sqlagg;
          Alcotest.test_case "errors" `Quick test_sugar_errors ] );
      ( "language",
        [ Alcotest.test_case "attribute writes" `Quick test_attr_assign;
          Alcotest.test_case "collection methods" `Quick test_collection_methods;
          Alcotest.test_case "triangle join" `Quick test_triangle_join;
          Alcotest.test_case "distinct output" `Quick test_distinct_output;
          Alcotest.test_case "having on output" `Quick test_having_on_output;
          Alcotest.test_case "foreach vset" `Quick test_foreach_vset ] );
      ( "group-by",
        [ Alcotest.test_case "basic aggregates" `Quick test_group_by_basic;
          Alcotest.test_case "having and limit" `Quick test_group_by_having_and_limit;
          Alcotest.test_case "multiplicity-aware count" `Quick test_group_by_multiplicity;
          Alcotest.test_case "NULL arguments" `Quick test_group_by_nulls;
          Alcotest.test_case "rejected on vertex select" `Quick test_group_by_rejected_on_vertex_select ] );
      ( "explain",
        [ Alcotest.test_case "plan report" `Quick test_explain_report;
          Alcotest.test_case "intractable and errors" `Quick test_explain_intractable_and_errors;
          Alcotest.test_case "edge-alias conjunct is residual" `Quick
            test_explain_edge_alias_residual;
          Alcotest.test_case "*0..0 is identity" `Quick test_explain_empty_word_identity;
          Alcotest.test_case "analyze describes the executed plan" `Quick
            test_explain_analyze_executed_plan;
          Alcotest.test_case "describe lines" `Quick test_explain_describe_lines ] );
      ( "insert",
        [ Alcotest.test_case "vertex and edge" `Quick test_insert_vertex_and_edge;
          Alcotest.test_case "errors" `Quick test_insert_errors ] );
      ( "set-algebra",
        [ Alcotest.test_case "union/intersect/minus" `Quick test_set_algebra;
          Alcotest.test_case "string builtins" `Quick test_string_builtins ] );
      ("tables", [ Alcotest.test_case "utilities" `Quick test_table_utilities ]) ]
