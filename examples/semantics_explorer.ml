(* Path-legality semantics explorer: the paper's §6 examples, live.

   Prints, for each of the paper's example graphs and patterns, the match
   multiplicity under every legality flavor — the numbers of Examples 9, 10
   and 11 — and demonstrates the per-query semantics switch on a GSQL query.

   Run with: dune exec examples/semantics_explorer.exe *)

module B = Pgraph.Bignat
module Sem = Pathsem.Semantics
module T = Pathsem.Toygraphs

let flavors =
  [ Sem.Non_repeated_vertex; Sem.Non_repeated_edge; Sem.All_shortest;
    Sem.Shortest_enumerated; Sem.Existential ]

let show g pattern ~src ~dst label =
  Printf.printf "%s, pattern %s:\n" label pattern;
  List.iter
    (fun sem ->
      let c = Pathsem.Engine.count_single_pair g (Darpe.Parse.parse pattern) sem ~src ~dst in
      Printf.printf "  %-22s %s\n" (Sem.to_string sem) (B.to_string c))
    flavors;
  print_newline ()

let () =
  let { T.g = g1; vertex = v1 } = T.g1 () in
  show g1 "E>*" ~src:(v1 "1") ~dst:(v1 "5")
    "Example 9 — G1 (Figure 5), paths from 1 to 5";

  let { T.g = g2; vertex = v2 } = T.g2 () in
  show g2 "E>*.F>.E>*" ~src:(v2 "1") ~dst:(v2 "4")
    "Example 10 — G2 (Figure 6): only all-shortest-paths matches";

  let { T.g = dg; vertex = dv } = T.diamond_chain 12 in
  show dg "E>*" ~src:(dv "v0") ~dst:(dv "v12")
    "Example 11 — 12-diamond chain: 2^12 paths, all flavors coincide";

  let { T.g = cg; vertex = cv } = T.triangle_cycle () in
  show cg "A>.(B>|D>)._>.A>" ~src:(cv "v") ~dst:(cv "u")
    "Section 6.1 — fixed-unique-length pattern around a cycle";

  (* The same GSQL query under two semantics (per-query choice, §6.1). *)
  let { T.g; _ } = T.diamond_chain 8 in
  let query semantics = Printf.sprintf {|
CREATE QUERY CountPaths (string srcName, string tgtName) SEMANTICS '%s' {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
|} semantics
  in
  List.iter
    (fun sem ->
      let result =
        Gsql.Compile.run_source g
          ~params:[ ("srcName", Pgraph.Value.Str "v0"); ("tgtName", Pgraph.Value.Str "v8") ]
          (query sem)
      in
      Printf.printf "GSQL CountPaths v0→v8 under %s:\n%s" sem result.Gsql.Eval.r_printed)
    [ "all-shortest"; "non-repeated-edge" ]
