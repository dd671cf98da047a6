(* Social-network analytics session over an LDBC SNB-like graph: generate
   data, run IC queries under both path-legality semantics, then run the
   graph algorithms shipped as GSQL queries (components, communities,
   triangles, centrality) over the KNOWS network.

   Run with: dune exec examples/snb_analytics.exe *)

module Sem = Pathsem.Semantics
module V = Pgraph.Value

let read_query file =
  (* dune exec runs in the repo root, dune runtest in _build/default/examples. *)
  let dir = List.find Sys.file_exists [ "queries"; "../queries" ] in
  In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all

let () =
  let t = Ldbc.Snb.generate ~sf:0.25 () in
  Printf.printf "Generated SNB-like graph: %s\n\n" (Ldbc.Snb.stats t);
  let g = t.Ldbc.Snb.graph in

  (* IC queries: all-shortest-paths counting vs non-repeated-edge
     enumeration — same rows, very different evaluation cost (paper §7.1). *)
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      let asp = Ldbc.Ic.run t ~hops:3 ~seed:1 name in
      let t1 = Unix.gettimeofday () in
      let nre = Ldbc.Ic.run t ~semantics:Sem.Non_repeated_edge ~hops:3 ~seed:1 name in
      let t2 = Unix.gettimeofday () in
      Printf.printf "%-5s hops=3: %2d rows | counting %6.2fms | enumeration %6.2fms\n"
        (Ldbc.Ic.name_to_string name)
        (Ldbc.Ic.result_rows asp)
        ((t1 -. t0) *. 1000.0)
        ((t2 -. t1) *. 1000.0);
      assert (Ldbc.Ic.result_rows asp = Ldbc.Ic.result_rows nre))
    Ldbc.Ic.all;

  (* One IC result in full. *)
  let ic9 = Ldbc.Ic.run t ~hops:2 ~seed:1 Ldbc.Ic.Ic9 in
  print_endline "\nic9 — most recent comments by friends (hops=2):";
  (match List.assoc_opt "Result" ic9.Gsql.Eval.r_tables with
   | Some tbl -> print_endline (Gsql.Table.to_string (Gsql.Table.limit 5 tbl))
   | None -> ());

  (* Graph algorithms over KNOWS, each a queries/*.gsql file. *)
  let run ?(params = []) file = Gsql.Compile.run_source g ~params (read_query file) in
  let rows r name = (Gsql.Eval.table r name).Gsql.Table.rows in
  Printf.printf "KNOWS components: %d\n" (List.length (rows (run "wcc.gsql") "Components"));
  Printf.printf "KNOWS communities (label propagation): %d\n"
    (List.length (rows (run "label_propagation.gsql") "Communities"));
  print_string (run "triangles.gsql").Gsql.Eval.r_printed;
  print_endline "Most central persons (closeness over KNOWS):";
  List.iter
    (function
      | [| V.Vertex v; V.Float c |] ->
        Printf.printf "  %s %s (%.4f)\n"
          (V.to_string (Pgraph.Graph.vertex_attr g v "firstName"))
          (V.to_string (Pgraph.Graph.vertex_attr g v "lastName"))
          c
      | _ -> assert false)
    (rows (run ~params:[ ("k", V.Int 3) ] "closeness.gsql") "Central")
