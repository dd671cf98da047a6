(* Differential testing of the install-time compiler against the
   interpreter oracle: for every query the compiled plan must produce a
   result identical to Eval — same tables in the same row order, same
   PRINT output, same vertex sets, same RETURN payload — and cancel at
   the same governor checkpoints under an Interrupt budget. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module E = Gsql.Eval
module C = Gsql.Compile
module Sem = Pathsem.Semantics
module Toy = Pathsem.Toygraphs

(* ------------------------------------------------------------------ *)
(* Result equality                                                     *)

let value_str = V.to_string

let row_str row =
  "[" ^ String.concat "; " (Array.to_list (Array.map value_str row)) ^ "]"

let table_str (t : Gsql.Table.t) =
  Printf.sprintf "cols=[%s] rows=[%s]"
    (String.concat "," t.Gsql.Table.cols)
    (String.concat " " (List.map row_str t.Gsql.Table.rows))

let check_tables label (a : (string * Gsql.Table.t) list) b =
  Alcotest.(check (list string))
    (label ^ ": table names") (List.map fst a) (List.map fst b);
  List.iter2
    (fun (n, ta) (_, tb) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: table %s" label n)
        (table_str ta) (table_str tb))
    a b

let rt_str = function
  | E.R_scalar v -> "scalar " ^ value_str v
  | E.R_vset vs ->
    "vset ["
    ^ String.concat "," (List.map string_of_int (Array.to_list vs))
    ^ "]"
  | E.R_table t -> "table " ^ table_str t

let check_results label (a : E.result) (b : E.result) =
  check_tables label a.E.r_tables b.E.r_tables;
  Alcotest.(check string) (label ^ ": printed") a.E.r_printed b.E.r_printed;
  Alcotest.(check (option string))
    (label ^ ": return")
    (Option.map rt_str a.E.r_return)
    (Option.map rt_str b.E.r_return);
  Alcotest.(check (list (pair string string)))
    (label ^ ": vsets")
    (List.map (fun (n, vs) -> (n, rt_str (E.R_vset vs))) a.E.r_vsets)
    (List.map (fun (n, vs) -> (n, rt_str (E.R_vset vs))) b.E.r_vsets)

(* Runs one query through both paths on [mkgraph]-fresh graphs (mutating
   queries must not share a graph between the two runs). *)
let differential ?semantics ~params label mkgraph (q : Gsql.Ast.query) =
  let gi = mkgraph () in
  let interp = E.run_query gi ?semantics ~params q in
  let gc = mkgraph () in
  let plan = C.compile ~schema:(G.schema gc) q in
  let compiled = C.run plan ?semantics ~params gc in
  check_results label interp compiled

let differential_block ?semantics ?(params = []) label mkgraph src =
  let stmts = Gsql.Parser.parse_block src in
  let gi = mkgraph () in
  let interp = E.run_block gi ?semantics ~params stmts in
  let gc = mkgraph () in
  let plan = C.compile_block ~schema:(G.schema gc) stmts in
  let compiled = C.run plan ?semantics ~params gc in
  check_results label interp compiled

(* ------------------------------------------------------------------ *)
(* The shipped queries/*.gsql, each on its intended graph shape        *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let queries_dir =
  (* dune runtest runs in _build/default/test, dune exec in the root. *)
  List.find Sys.file_exists [ "../queries"; "queries" ]

let load_query file =
  match Gsql.Parser.parse_program (read_file (Filename.concat queries_dir file)) with
  | [ q ] -> q
  | qs -> Alcotest.fail (Printf.sprintf "%s: %d queries" file (List.length qs))

let test_count_paths () =
  let q = load_query "count_paths.gsql" in
  differential "count_paths diamond:6"
    ~params:[ ("srcName", V.Str "v0"); ("tgtName", V.Str "v6") ]
    (fun () -> (Toy.diamond_chain 6).Toy.g)
    q;
  List.iter
    (fun sem ->
      differential
        (Printf.sprintf "count_paths g1 %s" (Sem.to_string sem))
        ~semantics:sem
        ~params:[ ("srcName", V.Str "1"); ("tgtName", V.Str "5") ]
        (fun () -> (Toy.g1 ()).Toy.g)
        q)
    [ Sem.All_shortest; Sem.Non_repeated_edge; Sem.Non_repeated_vertex;
      Sem.Existential ]

let test_wcc () =
  let q = load_query "wcc.gsql" in
  differential "wcc g1" ~params:[] (fun () -> (Toy.g1 ()).Toy.g) q

let test_pagerank () =
  let q = load_query "pagerank.gsql" in
  differential "pagerank web:40"
    ~params:
      [ ("maxChange", V.Float 0.001);
        ("maxIteration", V.Int 20);
        ("dampingFactor", V.Float 0.85) ]
    (fun () -> (Toy.web 40).Toy.g)
    q

let snb () = (Testkit.Snb_cache.get ()).Ldbc.Snb.graph

let test_khop () =
  let q = load_query "khop.gsql" in
  differential "khop snb"
    ~params:[ ("firstName", V.Str "Jan"); ("hops", V.Int 2) ]
    snb q

let test_common_friends () =
  let q = load_query "common_friends.gsql" in
  differential "common_friends snb"
    ~params:[ ("nameA", V.Str "Jan"); ("nameB", V.Str "Maria") ]
    snb q

(* One Appendix B grouping set as a GROUP BY: count( * )/avg/max, HAVING,
   ORDER BY on count( * ), LIMIT. *)
let test_likes_by_city_year () =
  let q = load_query "likes_by_city_year.gsql" in
  differential "likes_by_city_year snb"
    ~params:
      [ ("yearLo", V.Int 2010); ("yearHi", V.Int 2012); ("minLikes", V.Int 2);
        ("topK", V.Int 20) ]
    snb q

(* The IC and IS families (the E3 table's queries) through
   Compile.run_source = the oracle on the same source. *)
let test_ldbc () =
  let t = Testkit.Snb_cache.get () in
  let g = t.Ldbc.Snb.graph in
  let both label src params =
    check_results label (E.run_source g ~params src) (C.run_source g ~params src)
  in
  List.iter
    (fun name ->
      List.iter
        (fun hops ->
          both
            (Printf.sprintf "%s hops %d" (Ldbc.Ic.name_to_string name) hops)
            (Ldbc.Ic.source name ~hops)
            (Ldbc.Ic.default_params t ~seed:3 name))
        [ 2; 3 ])
    Ldbc.Ic.all;
  List.iter
    (fun name ->
      both (Ldbc.Is.name_to_string name) (Ldbc.Is.source name)
        (Ldbc.Is.default_params t ~seed:9 name))
    Ldbc.Is.all

(* Appendix B multi-grouping on SNB, full answers: GroupByAccum keys from
   the year()/month() builtins, HeapAccum top-K queues, sums and averages.
   MultiGroupGs is the shipped query (every aggregate in every grouping
   set); MultiGroupAcc gives each set only its own aggregates. *)
let multigroup_acc_src =
  {|CREATE QUERY MultiGroupAcc (INT yearLo, INT yearHi) {
      GroupByAccum<INT yr,
                   HeapAccum(20, 0 DESC, 1 DESC), HeapAccum(20, 0 ASC, 1 DESC),
                   HeapAccum(20, 1 DESC, 0 DESC), HeapAccum(20, 1 ASC, 0 DESC),
                   HeapAccum(10, 2 ASC, 1 DESC), HeapAccum(10, 2 DESC, 1 DESC)> @@byYear;
      GroupByAccum<STRING city, STRING browser, INT yr, INT mo, INT len,
                   SumAccum<INT>> @@countBy;
      GroupByAccum<STRING city, STRING gender, STRING browser, INT yr, INT mo,
                   AvgAccum> @@avgLen;
      S = SELECT m
          FROM City:c -(<IS_LOCATED_IN)- Person:p -(LIKES>)- Comment:m -(HAS_CREATOR>)- Person:a
          WHERE year(m.creationDate) >= yearLo AND year(m.creationDate) <= yearHi
          ACCUM @@byYear += (year(m.creationDate) ->
                             (m.creationDate, m.length, a.birthday),
                             (m.creationDate, m.length, a.birthday),
                             (m.creationDate, m.length, a.birthday),
                             (m.creationDate, m.length, a.birthday),
                             (m.creationDate, m.length, a.birthday),
                             (m.creationDate, m.length, a.birthday)),
                @@countBy += (c.name, m.browserUsed, year(m.creationDate),
                              month(m.creationDate), m.length -> 1),
                @@avgLen += (c.name, p.gender, m.browserUsed, year(m.creationDate),
                             month(m.creationDate) -> m.length);
      PRINT @@byYear;
      PRINT @@countBy;
      PRINT @@avgLen;
    }|}

let test_multigroup () =
  let params = [ ("yearLo", V.Int 2010); ("yearHi", V.Int 2012) ] in
  let g = snb () in
  List.iter
    (fun (label, q) ->
      let interp = E.run_query g ~params q in
      if String.length interp.E.r_printed < 1000 then
        Alcotest.failf "%s: expected a full answer, got %S" label interp.E.r_printed;
      let plan = C.compile ~schema:(G.schema g) q in
      check_results label interp (C.run plan ~params g))
    [ ("MultiGroupAcc", Gsql.Parser.parse_query multigroup_acc_src);
      ("MultiGroupGs", load_query "multigroup_gs.gsql") ]

(* Every shipped query at least compiles and describes deterministically. *)
let test_all_queries_compile () =
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".gsql" then begin
        let q = load_query file in
        let plan = C.compile q in
        let d1 = C.describe plan in
        let d2 = C.describe (C.compile q) in
        Alcotest.(check string) (file ^ ": describe deterministic") d1 d2;
        Alcotest.(check bool) (file ^ ": has ops") true (C.plan_ops plan > 0)
      end)
    (Sys.readdir queries_dir)

(* ------------------------------------------------------------------ *)
(* Random DARPE patterns (Prng-driven)                                 *)

(* Random two-edge-type graph, same shape as the integration suite's. *)
let random_graph seed nv =
  let s = Pgraph.Schema.create () in
  let _ =
    Pgraph.Schema.add_vertex_type s "V" [ ("name", Pgraph.Schema.T_string) ]
  in
  let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
  let _ = Pgraph.Schema.add_edge_type s "F" ~directed:true [] in
  let g = G.create s in
  for i = 0 to nv - 1 do
    ignore (G.add_vertex g "V" [ ("name", V.Str (Printf.sprintf "n%d" i)) ])
  done;
  let rng = Pgraph.Prng.create seed in
  for _ = 1 to nv * 2 do
    let i = Pgraph.Prng.int rng nv in
    let j = Pgraph.Prng.int rng nv in
    let ty = if Pgraph.Prng.int rng 3 = 0 then "F" else "E" in
    if i <> j then ignore (G.add_edge g ty i j [])
  done;
  g

let random_pattern rng =
  (* step ::= '<' name | name '>' | name '?' | name, rep ::= atom ('*' bounds?)? *)
  let atom () =
    let ty = if Pgraph.Prng.int rng 4 = 0 then "F" else "E" in
    match Pgraph.Prng.int rng 5 with
    | 0 -> ty ^ ">"
    | 1 -> "<" ^ ty
    | 2 -> ty
    | 3 -> ty ^ "?"
    | _ -> "_>"
  in
  let piece () =
    let a = atom () in
    match Pgraph.Prng.int rng 6 with
    | 0 -> a ^ "*"
    | 1 -> a ^ "*1..2"
    | 2 -> a ^ "*0..0"  (* exercises the compiled identity fold *)
    | _ -> a
  in
  match Pgraph.Prng.int rng 3 with
  | 0 -> piece ()
  | 1 -> piece () ^ "." ^ piece ()
  | _ -> "(" ^ atom () ^ "|" ^ atom () ^ ")"

let pattern_block pat =
  Printf.sprintf
    {|SumAccum<int> @cnt;
      SumAccum<int> @@rows;
      R = SELECT t
          FROM V:s -(%s)- V:t
          ACCUM t.@cnt += 1, @@rows += 1;
      SELECT s.name AS src, t.name AS dst INTO Pairs
      FROM V:s -(%s)- V:t
      ORDER BY s.name ASC, t.name ASC;
      PRINT @@rows;
      PRINT R[R.name, R.@cnt];|}
    pat pat

let prop_random_darpe =
  QCheck.Test.make ~name:"random DARPE: compiled = interpreted" ~count:60
    (QCheck.pair QCheck.small_int (QCheck.int_range 4 10))
    (fun (seed, nv) ->
      let rng = Pgraph.Prng.create (seed + (nv * 131)) in
      let pat = random_pattern rng in
      let sem =
        match Pgraph.Prng.int rng 3 with
        | 0 -> Sem.All_shortest
        | 1 -> Sem.Non_repeated_edge
        | _ -> Sem.Non_repeated_vertex
      in
      differential_block
        (Printf.sprintf "pattern %s (seed %d)" pat seed)
        ~semantics:sem
        (fun () -> random_graph seed nv)
        (pattern_block pat);
      true)

(* ------------------------------------------------------------------ *)
(* Governor parity: both paths cancel at the same checkpoints          *)

let khop_block =
  {|OrAccum @visited;
    SumAccum<int> @@reached;
    Frontier = SELECT p FROM V:p -(E>*0..0)- V:q
        WHERE p.name == "1"
        ACCUM p.@visited += true;
    i = 0;
    WHILE i < 6 LIMIT 50 DO
      Frontier = SELECT t
          FROM Frontier:s -(E>)- V:t
          WHERE NOT t.@visited
          POST_ACCUM t.@visited = true;
      FOREACH x IN Frontier DO
        @@reached += 1;
      END
      i = i + 1;
    END;
    PRINT @@reached;|}

type outcome = Done of string | Stopped of Interrupt.reason

let outcome_str = function
  | Done s -> "done: " ^ s
  | Stopped r -> "interrupted: " ^ Interrupt.reason_to_string r

let run_budgeted ~max_steps f =
  let budget = Interrupt.make ~max_steps () in
  try
    Interrupt.with_budget budget (fun () ->
        let r = f () in
        Done r.E.r_printed)
  with Interrupt.Interrupted reason -> Stopped reason

let test_interrupt_parity () =
  let stmts = Gsql.Parser.parse_block khop_block in
  let g = (Toy.g1 ()).Toy.g in
  let plan = C.compile_block ~schema:(G.schema g) stmts in
  let full =
    match run_budgeted ~max_steps:1_000_000 (fun () -> E.run_block g ~params:[] stmts) with
    | Done s -> s
    | Stopped _ -> Alcotest.fail "unbudgeted run interrupted"
  in
  (* Step budgets are enforced with amortized granularity
     (Interrupt.check_interval batches scale with the ceiling), and the
     compiled plan legitimately ticks less than the interpreter — the
     *0..0 identity fold skips the per-source product-BFS — so the exact
     stop threshold differs between the paths.  What must hold for BOTH
     paths at EVERY budget: the outcome is either a clean [Steps] stop or
     the complete full-run result — never a torn or partial one. *)
  let sweep label f =
    let completions = ref 0 in
    for max_steps = 1 to 120 do
      match run_budgeted ~max_steps f with
      | Done out ->
        incr completions;
        Alcotest.(check string)
          (Printf.sprintf "%s budget %d: completion is the full result" label max_steps)
          full out
      | Stopped Interrupt.Steps -> ()
      | Stopped r ->
        Alcotest.failf "%s budget %d: stopped for %s, expected steps" label max_steps
          (Interrupt.reason_to_string r)
    done;
    (* Checkpoints are generated into the plan, not optimized away: the
       tightest budgets always stop, and reasonable ones complete. *)
    (match run_budgeted ~max_steps:1 f with
     | Stopped Interrupt.Steps -> ()
     | o -> Alcotest.failf "%s budget 1 should stop, got %s" label (outcome_str o));
    if !completions = 0 then
      Alcotest.failf "%s never completed within the budget sweep" label
  in
  sweep "interp" (fun () -> E.run_block g ~params:[] stmts);
  sweep "compiled" (fun () -> C.run plan ~params:[] g)

let test_row_ceiling_parity () =
  let stmts = Gsql.Parser.parse_block khop_block in
  let g = (Toy.g1 ()).Toy.g in
  let plan = C.compile_block ~schema:(G.schema g) stmts in
  for max_rows = 1 to 8 do
    let budget () = Interrupt.make ~max_rows () in
    let run f =
      try
        Interrupt.with_budget (budget ()) (fun () -> Done (f ()).E.r_printed)
      with Interrupt.Interrupted reason -> Stopped reason
    in
    let i = run (fun () -> E.run_block g ~params:[] stmts) in
    let c = run (fun () -> C.run plan ~params:[] g) in
    Alcotest.(check string)
      (Printf.sprintf "rows %d" max_rows)
      (outcome_str i) (outcome_str c)
  done

(* ------------------------------------------------------------------ *)
(* Mutation parity: attribute writes through ACCUM                     *)

let test_attr_write_parity () =
  differential_block "attr writes"
    (fun () -> (Toy.g1 ()).Toy.g)
    {|S = SELECT t FROM V:s -(E>)- V:t
        ACCUM t.name = "touched";
      SELECT v.name AS name INTO Renamed
      FROM V:v -(E>*0..0)- V:w
      ORDER BY v.name ASC;|}

(* ------------------------------------------------------------------ *)
(* Compiled-plan shape: error-path parity                              *)

let test_error_parity () =
  let g = (Toy.g1 ()).Toy.g in
  let run_both src params =
    let stmts = Gsql.Parser.parse_block src in
    let interp =
      try `Ok (E.run_block g ~params stmts) with E.Runtime_error m -> `Err m
    in
    let compiled =
      try
        let plan = C.compile_block ~schema:(G.schema g) stmts in
        `Ok (C.run plan ~params g)
      with E.Runtime_error m -> `Err m
    in
    match (interp, compiled) with
    | `Err a, `Err b -> Alcotest.(check string) ("error: " ^ src) a b
    | `Ok a, `Ok b -> check_results src a b
    | `Err m, `Ok _ ->
      Alcotest.fail (Printf.sprintf "interp failed (%s), compiled ok" m)
    | `Ok _, `Err m ->
      Alcotest.fail (Printf.sprintf "compiled failed (%s), interp ok" m)
  in
  run_both {|X = {Nope.*};|} [];
  run_both {|PRINT missing;|} [];
  run_both {|Y = X UNION Z;|} [];
  run_both {|S = SELECT t FROM V:s -(NoSuchEdge>)- V:t ACCUM t.@x += 1;|} [];
  (* A missing attribute is a query error, not an escaping exception. *)
  run_both
    {|SumAccum<int> @@s;
      S = SELECT t FROM V:s -(E>)- V:t ACCUM @@s += t.nosuch;|}
    [];
  run_both
    {|SumAccum<int> @@s;
      S = SELECT t FROM V:s -(E>:e)- V:t ACCUM @@s += e.nosuch;|}
    [];
  run_both {|R = SELECT t FROM V:s -(E>)- V:t WHERE t.nosuch > 1;|} [];
  (* GROUP BY and INSERT errors. *)
  run_both
    {|SELECT s.name AS n, median(t.name) AS m INTO T
      FROM V:s -(E>)- V:t GROUP BY s.name;|}
    [];
  run_both
    {|SELECT s.name AS n, sum(1, 2) AS m INTO T
      FROM V:s -(E>)- V:t GROUP BY s.name;|}
    [];
  run_both
    {|SELECT s.name AS n INTO T
      FROM V:s -(E>)- V:t GROUP BY s.name HAVING count() > 1;|}
    [];
  run_both {|INSERT INTO V (name) VALUES ("a", "b");|} [];
  run_both {|INSERT INTO Nope (name) VALUES ("a");|} [];
  run_both {|INSERT INTO E VALUES ("a");|} []

(* ------------------------------------------------------------------ *)
(* Attribute slots resolved at install time                           *)

(* Two vertex types holding [age] and [name] at different positions, and
   an edge type with attributes.  [~swap] builds the same types with every
   attribute list reversed, on a schema object of its own. *)
let attr_schema ~swap =
  let module S = Pgraph.Schema in
  let order l = if swap then List.rev l else l in
  let s = S.create () in
  let _ = S.add_vertex_type s "P" (order [ ("name", S.T_string); ("age", S.T_int) ]) in
  let _ =
    S.add_vertex_type s "Q"
      (order [ ("age", S.T_int); ("zip", S.T_string); ("name", S.T_string) ])
  in
  let _ = S.add_edge_type s "R" ~directed:true (order [ ("w", S.T_int); ("tag", S.T_string) ]) in
  s

let attr_graph schema =
  let g = G.create schema in
  let p i = G.add_vertex g "P" [ ("name", V.Str (Printf.sprintf "p%d" i)); ("age", V.Int (20 + i)) ] in
  let q i =
    G.add_vertex g "Q"
      [ ("name", V.Str (Printf.sprintf "q%d" i)); ("age", V.Int (40 + i)); ("zip", V.Str "z") ]
  in
  let ps = List.init 3 p and qs = List.init 3 q in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if (i + j) mod 2 = 0 then
            ignore (G.add_edge g "R" a b [ ("w", V.Int (i + (3 * j))); ("tag", V.Str "t") ]);
          ignore (G.add_edge g "R" b a [ ("w", V.Int 1); ("tag", V.Str (string_of_int j)) ]))
        qs)
    ps;
  g

(* Adds, after install, a vertex type holding the same names at yet other
   positions, with vertices and edges of it. *)
let add_late_type g =
  let module S = Pgraph.Schema in
  let _ =
    S.add_vertex_type (G.schema g) "N"
      [ ("pad", S.T_int); ("age", S.T_int); ("name", S.T_string) ]
  in
  let n = G.add_vertex g "N" [ ("name", V.Str "n0"); ("age", V.Int 90); ("pad", V.Int (-1)) ] in
  ignore (G.add_edge g "R" n 0 [ ("w", V.Int 100); ("tag", V.Str "late") ]);
  ignore (G.add_edge g "R" 3 n [ ("w", V.Int 200); ("tag", V.Str "late") ])

let attr_block =
  {|SumAccum<int> @@ages;
    SumAccum<int> @@w;
    SetAccum<string> @@names;
    All = {ANY};
    S = SELECT t FROM All:s -(R>:e)- All:t
        WHERE s.age < 95
        ACCUM @@ages += s.age * 1000 + t.age, @@w += e.w,
              @@names += s.name + "/" + e.tag + "/" + t.name;
    PRINT @@ages;
    PRINT @@w;
    PRINT @@names;|}

let test_attr_slots () =
  let stmts = Gsql.Parser.parse_block attr_block in
  let installed = attr_graph (attr_schema ~swap:false) in
  let plan = C.compile_block ~schema:(G.schema installed) stmts in
  let both label g =
    let interp = E.run_block g ~params:[] stmts in
    let compiled = C.run plan ~params:[] g in
    check_results label interp compiled
  in
  both "installed schema" installed;
  add_late_type installed;
  both "type added after install" installed;
  both "other schema" (attr_graph (attr_schema ~swap:true))

(* ------------------------------------------------------------------ *)
(* Snapshot semantics under the compiled ACCUM row path                 *)

(* Runs a block through both paths with telemetry on; the results and
   the accum.merge_ops / accum.assign_ops totals must agree.  Compiled
   kernels apply inputs to accumulators they do not read straight to the
   store, and those must be counted like buffered ones. *)
let m_merge = Obs.Metrics.counter "accum.merge_ops"
let m_assign = Obs.Metrics.counter "accum.assign_ops"

let differential_ops label mkgraph src =
  let stmts = Gsql.Parser.parse_block src in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let counted f =
    Obs.Metrics.reset ();
    let r = f () in
    (r, Obs.Metrics.value m_merge, Obs.Metrics.value m_assign)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      let gi = mkgraph () in
      let interp, mi, ai = counted (fun () -> E.run_block gi ~params:[] stmts) in
      let gc = mkgraph () in
      let plan = C.compile_block ~schema:(G.schema gc) stmts in
      let compiled, mc, ac = counted (fun () -> C.run plan ~params:[] gc) in
      check_results label interp compiled;
      Alcotest.(check int) (label ^ ": accum.merge_ops") mi mc;
      Alcotest.(check int) (label ^ ": accum.assign_ops") ai ac;
      interp)

(* test_gsql_eval's snapshot case: a -> b -> c, every @x starting at 1. *)
let chain_graph () =
  let s = Pgraph.Schema.create () in
  let _ = Pgraph.Schema.add_vertex_type s "V" [ ("name", Pgraph.Schema.T_string) ] in
  let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
  let g = G.create s in
  let v name = G.add_vertex g "V" [ ("name", V.Str name) ] in
  let a = v "a" and b = v "b" and c = v "c" in
  ignore (G.add_edge g "E" a b []);
  ignore (G.add_edge g "E" b c []);
  ignore (G.add_edge g "E" b a []);
  g

let printed (r : E.result) = String.trim r.E.r_printed

let test_snapshot_compiled () =
  (* t.@x += s.@x must not cascade: each row reads @x as it was before
     the ACCUM, so b = 1 + 1 (from a), c = 1 + 1 (from b), a = 1 + 1
     (from b) — never 1 + 2. *)
  let r =
    differential_ops "cascade" chain_graph
      {|SumAccum<int> @x;
        Init = SELECT v FROM V:v -(E>*0..0)- V:v2 ACCUM v.@x += 1;
        S = SELECT t FROM V:s -(E>)- V:t ACCUM t.@x += s.@x;
        SELECT v.name AS name, v.@x AS x INTO Out
        FROM V:v -(E>*0..0)- V:v2
        ORDER BY v.name ASC;|}
  in
  Alcotest.(check string) "cascade: snapshot values"
    "cols=[name,x] rows=[[a; 2] [b; 2] [c; 2]]"
    (table_str (E.table r "Out"));
  (* A kernel that feeds a global it also reads: @@b sees @@a as it was
     before the ACCUM (0) on every row. *)
  let r =
    differential_ops "feed and read" chain_graph
      {|SumAccum<int> @@a;
        SumAccum<int> @@b;
        S = SELECT t FROM V:s -(E>)- V:t ACCUM @@a += 1, @@b += @@a;
        PRINT @@a, @@b;|}
  in
  Alcotest.(check string) "feed and read: @@b reads the snapshot" "@@a = 3\n@@b = 0" (printed r);
  (* An assign followed by a read in the same row sees the assigned value
     (the row's overlay); a read before it, on any row, sees the snapshot. *)
  let r =
    differential_ops "assign then read" chain_graph
      {|SumAccum<int> @@m;
        SumAccum<int> @@before;
        SumAccum<int> @@after;
        S = SELECT t FROM V:s -(E>)- V:t
            ACCUM @@before += @@m, @@m = 5, @@after += @@m;
        PRINT @@m, @@before, @@after;|}
  in
  Alcotest.(check string) "assign then read: overlay per row"
    "@@m = 5\n@@before = 0\n@@after = 15" (printed r);
  (* A kernel that writes only targets it never reads: every op takes the
     direct path, and the counts still match. *)
  ignore
    (differential_ops "unread targets" chain_graph
       {|SumAccum<int> @in;
         SumAccum<int> @@rows;
         ListAccum<string> @@order;
         MaxAccum<int> @@last;
         S = SELECT t FROM V:s -(E>)- V:t
             ACCUM t.@in += 1, @@rows += 1, @@order += s.name + t.name, @@last = 7;
         PRINT @@rows, @@order, @@last;
         PRINT S[S.name, S.@in];|})

(* Fixed blocks over a random two-edge-type graph, under every path
   semantics (Existential included, which the random-DARPE property does
   not draw): vertex/global accumulators of several kinds, ordered pair
   projection across a two-step pattern, a float sum, and a destination
   filter that reads a vertex accumulator.  That filter is pushed into
   the per-source fan-out, so on a multi-core machine it runs on several
   domains at once. *)
let fixture_blocks =
  [ ( "accum fanout",
      {|SumAccum<int> @cnt;
        SumAccum<int> @@rows;
        MaxAccum @far;
        R = SELECT t
            FROM V:s -((E>|F>)*)- V:t
            ACCUM t.@cnt += 1, t.@far += 1, @@rows += 1;
        PRINT @@rows;
        PRINT R[R.name, R.@cnt, R.@far];|} );
    ( "set and bag",
      {|SetAccum<string> @@names;
        BagAccum<int> @@deg;
        R = SELECT t
            FROM V:s -(E>*1..2)- V:t
            ACCUM @@names += t.name, @@deg += 1;
        PRINT @@names;
        PRINT @@deg;|} );
    ( "ordered pairs",
      {|SELECT s.name AS src, t.name AS dst INTO Pairs
        FROM V:s -(E>.<F)- V:t
        ORDER BY s.name ASC, t.name ASC;|} );
    ( "float sum",
      {|SumAccum<float> @@mass;
        R = SELECT t FROM V:s -(E>)- V:t
            ACCUM @@mass += 0.5;
        PRINT @@mass;|} );
    ( "accumulator dst filter",
      {|SumAccum<int> @hits;
        R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@hits += 1;
        S = SELECT t
            FROM V:s -((E>|F>)*1..3)- V:t
            WHERE t.@hits < 2
            ACCUM t.@hits += 1;
        PRINT S[S.name, S.@hits];|} );
    (* GROUP BY over a Kleene pattern: µ > 1 reaches count( * ), sum, avg;
       t.name is not a key, so it reads the group's first row. *)
    ( "group by kleene",
      {|SELECT s.name AS src, count(*) AS paths, sum(1) AS weight, avg(2.5) AS mean,
               min(t.name) AS lo, max(t.name) AS hi, t.name AS firstDst INTO G
        FROM V:s -((E>|F>)*)- V:t
        GROUP BY s.name;|} );
    ( "group having order limit distinct",
      {|SELECT DISTINCT count(*) AS n INTO Counts;
               t.name AS dst, max(s.name) AS top INTO Tops
        FROM V:s -(E>*1..2)- V:t
        GROUP BY t.name
        HAVING count(*) > 1 AND count(*) < 7
        ORDER BY count(*) DESC, max(s.name) ASC
        LIMIT 4;|} );
    ( "group two outputs",
      {|SELECT t.name AS dst, count(*) AS n INTO ByDst;
               min(s.name) AS first, 10 * count(*) + 1 AS code INTO Codes
        FROM V:s -(E>.F>)- V:t
        GROUP BY t.name
        ORDER BY t.name DESC;|} );
    ( "group edge key",
      {|SELECT s.name AS src, t.name AS dst, count(*) AS n INTO ByEdge
        FROM V:s -(E>:e)- V:t
        GROUP BY e;|} );
    ( "group empty",
      {|SELECT s.name AS src, count(*) AS n INTO Empty
        FROM V:s -(E>)- V:t
        WHERE s.name == "nosuch"
        GROUP BY s.name;|} );
    (* NULL arguments: @m is set on some vertices only. *)
    ( "group nulls",
      {|MaxAccum<int> @m;
        S = SELECT t FROM V:s -(E>)- V:t WHERE s.name < "n3" ACCUM t.@m += 1;
        SELECT s.name AS src, count(t.@m) AS c, count(*) AS cs, sum(t.@m) AS sm,
               avg(t.@m) AS av, min(t.@m) AS mn, max(t.@m) AS mx INTO Nulls
        FROM V:s -(E>|F>)- V:t
        GROUP BY s.name;|} );
    ( "print forms",
      {|SumAccum<int> @@n;
        SumAccum<int> @deg;
        R = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1, t.@deg += 1;
        SELECT s.name AS src INTO T FROM V:s -(F>)- V:t ORDER BY s.name ASC;
        x = 2;
        PRINT 1 + x, 3 * x AS six, x, x AS ex;
        PRINT R, R AS Again, T, @@n, @@n AS total;
        PRINT R[R.name, R.@deg, R.outdegree()];|} );
    ( "insert then read",
      {|INSERT INTO V (name) VALUES ("new1");
        INSERT INTO V (name) VALUES ("new2");
        A = SELECT v FROM V:v -(E>*0..0)- V:w WHERE v.name == "new1";
        B = SELECT v FROM V:v -(E>*0..0)- V:w WHERE v.name == "new2";
        FOREACH a IN A DO
          FOREACH b IN B DO
            INSERT INTO E VALUES (a, b);
            INSERT INTO F () VALUES (b, a);
          END;
        END;
        SELECT s.name AS src, t.name AS dst INTO NewEdges
        FROM V:s -(E>.F>)- V:t
        WHERE s.name == "new1";
        N = {V.*};
        PRINT N.size();|} ) ]

let test_fixture_semantics () =
  List.iter
    (fun sem ->
      List.iter
        (fun (label, src) ->
          differential_block
            (Printf.sprintf "%s %s" label (Sem.to_string sem))
            ~semantics:sem
            (fun () -> random_graph 5 18)
            src)
        fixture_blocks)
    [ Sem.All_shortest; Sem.Non_repeated_edge; Sem.Non_repeated_vertex;
      Sem.Existential ]

(* The *0..0 identity fold (Cj_ident): the compiler replaces the
   empty-word-only DFA product with a direct (v, v) scan.  Must stay
   result-identical to the engine across semantics, filters on either
   endpoint, and zero-length alternations. *)
let test_identity_fold () =
  let g1 () = (Toy.g1 ()).Toy.g in
  List.iter
    (fun sem ->
      List.iter
        (fun (label, src) ->
          differential_block
            (Printf.sprintf "%s %s" label (Sem.to_string sem))
            ~semantics:sem g1 src)
        [ ( "ident scan",
            {|R = SELECT t FROM V:s -(E>*0..0)- V:t;
              SELECT s.name AS n INTO Out FROM V:s -(E>*0..0)- V:t;|} );
          ( "ident src filter",
            {|R = SELECT t FROM V:s -(E>*0..0)- V:t WHERE s.name == "1";|} );
          ( "ident dst filter",
            {|SumAccum<int> @@n;
              R = SELECT t FROM V:s -(E>*0..0)- V:t
                  WHERE t.name != "2" ACCUM @@n += 1;
              PRINT @@n;|} );
          ( "ident alternation",
            {|R = SELECT t FROM V:s -((E>*0..0|F>*0..0))- V:t;|} ) ])
    [ Sem.All_shortest; Sem.Non_repeated_edge; Sem.Non_repeated_vertex ]

let () =
  Alcotest.run "compile"
    [ ( "queries",
        [ Alcotest.test_case "count_paths" `Quick test_count_paths;
          Alcotest.test_case "wcc" `Quick test_wcc;
          Alcotest.test_case "pagerank" `Quick test_pagerank;
          Alcotest.test_case "khop (snb)" `Slow test_khop;
          Alcotest.test_case "common_friends (snb)" `Slow test_common_friends;
          Alcotest.test_case "multigroup (snb)" `Quick test_multigroup;
          Alcotest.test_case "likes_by_city_year (snb)" `Quick test_likes_by_city_year;
          Alcotest.test_case "ldbc ic + is (snb)" `Quick test_ldbc;
          Alcotest.test_case "all compile + describe" `Quick
            test_all_queries_compile;
          Alcotest.test_case "fixtures x semantics" `Quick test_fixture_semantics ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest prop_random_darpe ] );
      ( "identity fold",
        [ Alcotest.test_case "*0..0 differential" `Quick test_identity_fold ] );
      ( "governor",
        [ Alcotest.test_case "step budget parity" `Quick test_interrupt_parity;
          Alcotest.test_case "row ceiling parity" `Quick
            test_row_ceiling_parity ] );
      ( "mutation",
        [ Alcotest.test_case "attr writes" `Quick test_attr_write_parity ] );
      ( "errors",
        [ Alcotest.test_case "error parity" `Quick test_error_parity ] );
      ( "attributes",
        [ Alcotest.test_case "install-time slots" `Quick test_attr_slots ] );
      ( "snapshot",
        [ Alcotest.test_case "compiled snapshot semantics" `Quick test_snapshot_compiled ] ) ]
