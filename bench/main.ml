(* Benchmark harness entry point.

   Reproduces every table in the paper's evaluation:
     table1    — §7.1 Table 1 (diamond-chain Q_n, counting vs enumeration)
     snb       — §7.1 SNB IC table (hops × scale × semantics)
     appendixb — Appendix B table (Q_gs vs Q_acc vs SQL grouping sets)
     examples  — §6 worked examples (multiplicity checks, E4)
     ablation  — design-choice ablations (E5)
     micro     — Bechamel per-kernel estimates (one Test.make per table)

     fanout    — multi-source parallel fan-out speedup (E6)
     compile   — interpreter vs install-time compiled plans (docs/COMPILER.md)

   Usage: main.exe [table1|snb|appendixb|examples|ablation|micro|fanout|compile|all]
   Environment: DIAMOND_MAX_ENUM bounds the enumerated columns of table1
   (default 18; the paper ran to n=25 before timing out at 10 minutes);
   BENCH_JSON=<dir> additionally writes a BENCH_<suite>.json metrics sidecar
   per suite (schema: docs/OBSERVABILITY.md). *)

let usage () =
  prerr_endline "usage: main.exe [table1|snb|appendixb|examples|ablation|micro|fanout|compile|all]";
  exit 2

let run_table1 () =
  let max_n_enum = Util.getenv_int "DIAMOND_MAX_ENUM" 18 in
  Table1.run ~max_n:(max 20 max_n_enum) ~max_n_enum

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Unix.gettimeofday () in
  let suite name f = Util.with_sidecar name f in
  (match which with
   | "table1" -> suite "table1" run_table1
   | "snb" -> suite "snb" Snb_bench.run
   | "appendixb" -> suite "appendixb" Appendixb.run
   | "examples" -> suite "examples" Examples_tbl.run
   | "ablation" -> suite "ablation" Ablation.run
   | "micro" -> suite "micro" Micro.run
   | "fanout" -> suite "fanout" Fanout.run
   (* compile writes its own richer sidecar (per-query speedups), so it
      does not go through Util.with_sidecar. *)
   | "compile" -> Compile_ab.run ()
   | "all" ->
     suite "examples" Examples_tbl.run;
     suite "table1" run_table1;
     suite "snb" Snb_bench.run;
     suite "appendixb" Appendixb.run;
     suite "ablation" Ablation.run;
     suite "micro" Micro.run;
     suite "fanout" Fanout.run;
     Compile_ab.run ()
   | _ -> usage ());
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
