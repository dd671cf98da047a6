(* Quickstart: build a property graph, declare accumulators in a GSQL query,
   and read the aggregated results — the 60-second tour of the library.

   Run with: dune exec examples/quickstart.exe *)

module S = Pgraph.Schema
module G = Pgraph.Graph
module V = Pgraph.Value

let () =
  (* 1. Declare a schema: people connected by an *undirected* Friend edge
        (the mixed directed/undirected model is native, paper §2). *)
  let schema = S.create () in
  let _ = S.add_vertex_type schema "Person" [ ("name", S.T_string); ("age", S.T_int) ] in
  let _ = S.add_edge_type schema "Friend" ~directed:false ~src:"Person" ~dst:"Person" [] in
  let _ = S.add_edge_type schema "Follows" ~directed:true ~src:"Person" ~dst:"Person" [] in

  (* 2. Load data. *)
  let g = G.create schema in
  let add name age = G.add_vertex g "Person" [ ("name", V.Str name); ("age", V.Int age) ] in
  let ada = add "ada" 36 in
  let bob = add "bob" 41 in
  let cy = add "cy" 23 in
  let dan = add "dan" 29 in
  ignore (G.add_edge g "Friend" ada bob []);
  ignore (G.add_edge g "Friend" bob cy []);
  ignore (G.add_edge g "Follows" dan ada []);
  ignore (G.add_edge g "Follows" dan bob []);

  (* 3. Ask a question with accumulators: for every person, how many
        friends do they have and what is the average friend age?  One pass,
        two aggregations — the accumulator paradigm of paper §3. *)
  let query = {|
    SumAccum<int> @friendCount;
    AvgAccum<float> @friendAge;

    S = SELECT p
        FROM  Person:p -(Friend)- Person:q
        ACCUM p.@friendCount += 1,
              p.@friendAge  += q.age;

    SELECT p.name AS name, p.@friendCount AS friends, p.@friendAge AS avgAge INTO Summary
    FROM  Person:p -(Friend)- Person:q
    ORDER BY p.@friendCount DESC, p.name ASC;
  |}
  in
  let result = Gsql.Compile.run_source g query in
  print_endline "Friend summary (undirected Friend edges):";
  print_endline (Gsql.Table.to_string (Gsql.Eval.table result "Summary"));

  (* 4. Patterns are DARPEs: who can dan reach in one or two Follows hops? *)
  let reach = {|
    S = SELECT q
        FROM Person:p -(Follows>*1..2)- Person:q
        WHERE p.name = 'dan';
    PRINT S[S.name];
  |}
  in
  let result = Gsql.Compile.run_source g reach in
  print_endline "People dan follows within 2 hops:";
  print_string result.Gsql.Eval.r_printed
