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
        Alcotest.(check bool)
          (file ^ ": has compiled ops") true
          (C.compiled_ops plan > 0)
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
  run_both {|S = SELECT t FROM V:s -(NoSuchEdge>)- V:t ACCUM t.@x += 1;|} []

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
        PRINT S[S.name, S.@hits];|} ) ]

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
        [ Alcotest.test_case "error parity" `Quick test_error_parity ] ) ]
