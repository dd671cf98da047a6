(* Pretty-printer round trips: parse → pretty → parse must reproduce the
   AST, over the paper's queries and randomly generated expressions. *)

module P = Gsql.Parser
module A = Gsql.Ast
module Pr = Gsql.Pretty

let rec expr_equal (a : A.expr) (b : A.expr) =
  match a, b with
  | A.E_int x, A.E_int y -> x = y
  | A.E_float x, A.E_float y -> x = y
  | A.E_string x, A.E_string y -> x = y
  | A.E_bool x, A.E_bool y -> x = y
  | A.E_null, A.E_null -> true
  | A.E_var x, A.E_var y -> x = y
  | A.E_attr (v1, a1), A.E_attr (v2, a2) -> v1 = v2 && a1 = a2
  | A.E_vacc (v1, a1), A.E_vacc (v2, a2) -> v1 = v2 && a1 = a2
  | A.E_vacc_prev (v1, a1), A.E_vacc_prev (v2, a2) -> v1 = v2 && a1 = a2
  | A.E_gacc x, A.E_gacc y | A.E_gacc_prev x, A.E_gacc_prev y -> x = y
  | A.E_binop (o1, x1, y1), A.E_binop (o2, x2, y2) ->
    o1 = o2 && expr_equal x1 x2 && expr_equal y1 y2
  | A.E_unop (o1, x1), A.E_unop (o2, x2) -> o1 = o2 && expr_equal x1 x2
  | A.E_call (f1, a1), A.E_call (f2, a2) ->
    String.lowercase_ascii f1 = String.lowercase_ascii f2 && List.for_all2 expr_equal a1 a2
  | A.E_method (b1, m1, a1), A.E_method (b2, m2, a2) ->
    m1 = m2 && expr_equal b1 b2 && List.length a1 = List.length a2 && List.for_all2 expr_equal a1 a2
  | A.E_tuple e1, A.E_tuple e2 ->
    List.length e1 = List.length e2 && List.for_all2 expr_equal e1 e2
  | A.E_arrow (k1, v1), A.E_arrow (k2, v2) ->
    List.length k1 = List.length k2 && List.for_all2 expr_equal k1 k2
    && List.length v1 = List.length v2 && List.for_all2 expr_equal v1 v2
  | _ -> false

let check_query_roundtrip name src =
  let q1 = P.parse_query src in
  let rendered = Pr.query q1 in
  match P.parse_query rendered with
  | q2 ->
    (* Compare through a second rendering: a fixed point of pretty∘parse. *)
    Alcotest.(check string) name (Pr.query q1) (Pr.query q2)
  | exception P.Error msg ->
    Alcotest.failf "%s: rendered query does not re-parse: %s\n%s" name msg rendered

let fig3 = {|
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

let fig4 = {|
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
        POST_ACCUM v.@score = 1 - dampingFactor + dampingFactor * v.@received_score,
                   v.@received_score = 0,
                   @@maxDifference += abs(v.@score - v.@score');
  END;
}
|}

let misc = {|
CREATE QUERY Misc (string s, datetime d) SEMANTICS 'non-repeated-edge' {
  MapAccum<string, SumAccum<int>> @@m;
  GroupByAccum<string k0, SumAccum<float>, MinAccum> @@g;
  HeapAccum(5, 0 DESC, 1 ASC) @@h;
  SetAccum<vertex> @nbrs;
  X = {ANY};
  IF s == 'x' AND NOT (1 > 2) THEN
    @@m += ('a' -> 1);
  ELSE
    @@g += (s -> 1.5, 2);
  END
  FOREACH item IN (1, 2, 3) DO
    @@h += (item, item * 2);
  END
  S = SELECT b
      FROM X:a -(E>.(F>|<G)*2..4._)- T:b, T:b -(H>:h)- U:cc
      WHERE a <> b AND h.weight >= 0.5
      ACCUM b.@nbrs += a,
            IF b.@nbrs.size() > 3 THEN @@m += ('big' -> 1) END
      HAVING b.@nbrs.size() > 0
      ORDER BY b.@nbrs.size() DESC, b.name ASC
      LIMIT 7;
  PRINT S[S.name], @@m AS counts;
  RETURN @@g;
}
|}

let test_paper_roundtrips () =
  check_query_roundtrip "figure 3" fig3;
  check_query_roundtrip "figure 4" fig4;
  check_query_roundtrip "misc features" misc

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> A.E_int (abs n)) small_signed_int;
        return (A.E_float 1.5);
        map (fun s -> A.E_string s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        return (A.E_bool true);
        return A.E_null;
        return (A.E_var "x");
        return (A.E_attr ("v", "attr"));
        return (A.E_vacc ("v", "acc"));
        return (A.E_vacc_prev ("v", "acc"));
        return (A.E_gacc "g");
        return (A.E_gacc_prev "g") ]
  in
  let binops = [ A.Add; A.Sub; A.Mul; A.Div; A.Mod; A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge; A.And; A.Or ] in
  sized_size (int_range 0 5) @@ QCheck.Gen.fix (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (3, map2 (fun (op, a) b -> A.E_binop (op, a, b))
                 (pair (oneofl binops) (self (n / 2)))
                 (self (n / 2)));
            (1, map (fun e -> A.E_unop (A.Neg, e)) (self (n - 1)));
            (1, map (fun e -> A.E_unop (A.Not, e)) (self (n - 1)));
            (1, map (fun e -> A.E_call ("abs", [ e ])) (self (n - 1)));
            (1, map (fun e -> A.E_method (A.E_gacc "g", "size", []) |> fun m -> A.E_binop (A.Add, m, e))
                 (self (n - 1)));
            (1, map2 (fun a b -> A.E_tuple [ a; b ]) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> A.E_arrow ([ a ], [ b ])) (self (n / 2)) (self (n / 2))) ])

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expression pretty/parse round trip" ~count:500
    (QCheck.make gen_expr)
    (fun e ->
      let s = Pr.expr e in
      match P.parse_expr s with
      | e' -> expr_equal e e'
      | exception P.Error _ -> false)

let test_spec_rendering () =
  List.iter
    (fun spec ->
      (* Render, embed in a declaration, parse back, compare. *)
      let src = Printf.sprintf "%s @@x;" (Pr.spec spec) in
      match P.parse_block src with
      | [ A.S_acc_decl d ] ->
        Alcotest.(check bool) (Pr.spec spec) true (d.A.d_spec = spec)
      | _ -> Alcotest.fail "expected declaration")
    [ Accum.Spec.Sum_int; Accum.Spec.Sum_float; Accum.Spec.Sum_string; Accum.Spec.Min_acc;
      Accum.Spec.Max_acc; Accum.Spec.Avg_acc; Accum.Spec.Or_acc; Accum.Spec.And_acc;
      Accum.Spec.Set_acc; Accum.Spec.Bag_acc; Accum.Spec.List_acc; Accum.Spec.Array_acc;
      Accum.Spec.Map_acc Accum.Spec.Sum_int;
      Accum.Spec.Map_acc (Accum.Spec.Map_acc Accum.Spec.Avg_acc);
      Accum.Spec.Heap_acc { Accum.Spec.h_capacity = 3; h_fields = [ (0, Accum.Spec.Desc) ] };
      Accum.Spec.Group_by (2, [ Accum.Spec.Sum_float; Accum.Spec.Min_acc ]) ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: a golden report over a deterministic fixture.  The
   diamond chain of length 4 has exactly 2^4 = 16 shortest v0→v4 paths and a
   fixed product-BFS frontier profile, and [~timings:false] omits wall-clock
   values, so the whole annotated plan is byte-stable. *)

let analyze_src = {|
SumAccum<int> @pathCount;
R = SELECT t FROM V:s -(E>*)- V:t
    WHERE s.name = 'v0' AND t.name = 'v4'
    ACCUM t.@pathCount += 1;
|}

let analyze_golden =
  "plan: 5 ops\n\
  \  accum-decl @pathCount: SumAccum<int>\n\
  \  select t | V:s -(E>*)- V:t | WHERE ((s.name == \"v0\") AND (t.name == \"v4\")) | ACCUM[1]\n\
  \    dfa-product s -(E>*)- t [unbounded]\n\
  \    where pushed[s]: (s.name == \"v0\")\n\
  \    where pushed[t]: (t.name == \"v4\")\n\
  \    accum: 1 stmts (locals 0) -> {t.@pathCount}\n\
  \    emit: vertex set t\n\
  \    analyze: 1 execution\n\
  \      match: 1 binding row\n\
  \      paths: engine counting, 1 source -> 1 binding, path multiplicity 16\n\
  \      bfs: 9 hops, frontier sizes [1, 2, 1, 2, 1, 2, 1, 2, 1] (product states per hop)\n\
  \      accum: 1 acc-execution, 1 merge op, 0 assigns\n\
  \      output: 1 vertex set member\n\
   tractable class (Theorem 7.1): yes — polynomial-time evaluation under all-shortest-paths \
   semantics\n\n\
   == execution telemetry ==\n\
   select blocks: 1\n\
   accumulator store: 1 merge ops, 0 assigns, 1 commits\n\
   counting engine: 1 BFS run, 9 hops, 13 product-state expansions\n"

let test_explain_analyze_golden () =
  let { Pathsem.Toygraphs.g; _ } = Pathsem.Toygraphs.diamond_chain 4 in
  let a = Gsql.Explain.analyze_source g ~timings:false analyze_src in
  Alcotest.(check string) "annotated plan" analyze_golden a.Gsql.Explain.an_report;
  (* The execution result is the real one, and its trace validates. *)
  (match List.assoc_opt "R" a.Gsql.Explain.an_result.Gsql.Eval.r_vsets with
   | Some vs -> Alcotest.(check int) "result vertex set" 1 (Array.length vs)
   | None -> Alcotest.fail "vertex set R missing from result");
  (match Obs.Trace.validate a.Gsql.Explain.an_trace with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "trace schema: %s" msg);
  (* Analyze leaves the metrics registry the way it found it (disabled). *)
  Alcotest.(check bool) "metrics back off" false (Obs.Metrics.enabled ())

(* EXPLAIN on a query prints the closure plan the catalog installs
   (docs/COMPILER.md): op tree and per-SELECT kernel summary.  Compiled
   without a schema, so segment resolution shows as deferred
   ([syms@invoke]). *)
let explain_plan_src = {|
CREATE QUERY Fanout (int rounds) {
  SumAccum<int> @@seen;
  i = 0;
  WHILE i < rounds DO
    S = SELECT t FROM V:s -(E>)- V:t ACCUM @@seen += 1;
    i = i + 1;
  END;
  PRINT @@seen;
}
|}

let explain_plan_golden =
  "query Fanout(rounds) [semantics: all-shortest (default)]\n\
   plan: 9 ops\n\
  \  accum-decl @@seen: SumAccum<int>\n\
  \  let i\n\
  \  while (i < rounds)\n\
  \    select t | V:s -(E>)- V:t | ACCUM[1]\n\
  \      step s -(E>)- t [syms@invoke]\n\
  \      accum: 1 stmts (locals 0) -> {@@seen}\n\
  \      emit: vertex set t\n\
  \    let i\n\
  \  print @@seen\n\
   tractable class (Theorem 7.1): yes — polynomial-time evaluation under all-shortest-paths \
   semantics\n"

let test_explain_plan_golden () =
  let q = P.parse_query explain_plan_src in
  Alcotest.(check string) "compiled plan shape" explain_plan_golden (Gsql.Explain.query q)

let test_strip_explain () =
  let check name expected_mode expected_rest src =
    let mode, rest = Gsql.Explain.strip_explain src in
    Alcotest.(check bool) (name ^ " mode") true (mode = expected_mode);
    Alcotest.(check string) (name ^ " rest") expected_rest rest
  in
  check "analyze" `Analyze " SELECT ..." "EXPLAIN ANALYZE SELECT ...";
  check "lowercase" `Analyze " x" "explain analyze x";
  check "explain only" `Explain " SELECT 1;" "EXPLAIN SELECT 1;";
  check "leading whitespace" `Explain " q" "\n  ExPlAiN q";
  check "plain" `Plain "SELECT t FROM ..." "SELECT t FROM ...";
  (* "EXPLAINX" is not the keyword; an identifier starting with it stays. *)
  check "no partial match" `Plain "EXPLAINX" "EXPLAINX"

let () =
  Alcotest.run "pretty"
    [ ( "roundtrip",
        [ Alcotest.test_case "paper queries" `Quick test_paper_roundtrips;
          Alcotest.test_case "accumulator specs" `Quick test_spec_rendering;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip ] );
      ( "explain analyze",
        [ Alcotest.test_case "golden report" `Quick test_explain_analyze_golden;
          Alcotest.test_case "compiled plan golden" `Quick test_explain_plan_golden;
          Alcotest.test_case "strip_explain" `Quick test_strip_explain ] ) ]
