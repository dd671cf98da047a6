(* Paper Figure 4 (Example 7): PageRank written in GSQL — the WHILE loop,
   the primed @score' previous-iteration read, and the global MaxAccum
   convergence test, all inside the query language (no client-side driver
   program, which is the paper's point about iterative composition).  The
   query is the shipped queries/pagerank.gsql.

   Run with: dune exec examples/pagerank.exe *)

module V = Pgraph.Value

let read_query file =
  (* dune exec runs in the repo root, dune runtest in _build/default/examples. *)
  let dir = List.find Sys.file_exists [ "queries"; "../queries" ] in
  In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all

let () =
  (* The Page/LinkTo fixture lives in Pathsem.Toygraphs so the CLI
     (--graph pages:N) and the smoke tests share it. *)
  let g = (Pathsem.Toygraphs.web ~links:1200 ~seed:7 200).Pathsem.Toygraphs.g in
  let result =
    Gsql.Compile.run_source g
      ~params:
        [ ("maxChange", V.Float 1e-6); ("maxIteration", V.Int 50); ("dampingFactor", V.Float 0.85) ]
      (read_query "pagerank.gsql")
  in
  Printf.printf "Top pages by PageRank (200 pages, 1200 zipf links):\n%s"
    (Gsql.Table.to_string (Gsql.Eval.table result "Ranks"))
