(* Experiment E6 — parallel per-source fan-out on an SNB-style graph.

   The multi-source counting workload the CSR + domain fan-out work
   targets: all-shortest-paths counting from every Person over the
   undirected KNOWS network (pattern [KNOWS*]), once sequentially
   ([~workers:1]) and once with the default domain fan-out.  The binding
   tables must be identical (order included — the engine pins it); the
   point of the table is the wall-clock ratio.

   Environment: FANOUT_SF scales the generator (default 1.0, ~300
   persons); FANOUT_RUNS the median width (default 3); FANOUT_WORKERS
   overrides the worker count (default [Accum.Parallel.default_workers],
   i.e. the machine's recommended domain count — on a 1-core box the
   comparison degenerates to seq-vs-seq, so force e.g. FANOUT_WORKERS=4
   to exercise the fan-out machinery there).  The speedup lands in the
   [bench.fanout.speedup] gauge of the BENCH_fanout.json sidecar,
   seq/par medians in [bench.fanout.{seq,par}_ms]. *)

module Sem = Pathsem.Semantics

let h_csr = Obs.Metrics.histogram "bench.fanout.csr_kernel_ms"
let h_seq = Obs.Metrics.histogram "bench.fanout.seq_ms"
let h_par = Obs.Metrics.histogram "bench.fanout.par_ms"
let g_speedup = Obs.Metrics.gauge "bench.fanout.speedup"

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string s with Failure _ -> default)
  | None -> default

let run () =
  let sf = getenv_float "FANOUT_SF" 1.0 in
  let runs = Util.getenv_int "FANOUT_RUNS" 3 in
  let t = Ldbc.Snb.generate ~sf () in
  let g = t.Ldbc.Snb.graph in
  let sources = t.Ldbc.Snb.persons in
  let ast = Darpe.Parse.parse "KNOWS*" in
  let workers =
    Util.getenv_int "FANOUT_WORKERS" (Accum.Parallel.default_workers (Array.length sources))
  in
  Printf.printf "%s\n%d sources, %d domains available\n" (Ldbc.Snb.stats t)
    (Array.length sources) workers;
  let count w =
    Pathsem.Engine.match_pairs ~workers:w g ast Sem.All_shortest ~sources
      ~dst_ok:(fun _ -> true)
  in
  (* Correctness gate before timing: the fan-out must be unobservable. *)
  let seq_bindings = count 1 in
  let par_bindings = count workers in
  if seq_bindings <> par_bindings then
    failwith "fanout: parallel and sequential binding tables differ";
  let n_bindings = List.length seq_bindings in
  (* The bare kernel with one reused scratch, same DFA, same sources, no
     fan-out: the single-threaded floor under the engine rows. *)
  let dfa = Pathsem.Engine.compile g ast in
  let scratch = Pathsem.Count.create_scratch () in
  let t_csr =
    Util.median_ms ~runs (fun () ->
        Array.iter (fun s -> ignore (Pathsem.Count.single_source ~scratch g dfa s)) sources)
  in
  let t_seq = Util.median_ms ~runs (fun () -> ignore (count 1)) in
  let t_par = Util.median_ms ~runs (fun () -> ignore (count workers)) in
  let speedup = t_seq /. t_par in
  Obs.Metrics.observe h_csr t_csr;
  Obs.Metrics.observe h_seq t_seq;
  Obs.Metrics.observe h_par t_par;
  Obs.Metrics.set_gauge g_speedup speedup;
  Util.print_table
    ~title:"Fan-out — multi-source ASP counting over KNOWS* (CSR kernel)"
    [ "engine"; "workers"; "bindings"; "median" ]
    [ [ "CSR kernel (flat frontier)"; "1"; "-"; Util.ms_to_string t_csr ];
      [ "engine sequential"; "1"; string_of_int n_bindings; Util.ms_to_string t_seq ];
      [ "engine parallel"; string_of_int workers; string_of_int n_bindings;
        Util.ms_to_string t_par ] ];
  Printf.printf "\nFan-out: %.2fx over %d sources with %d workers\n"
    speedup (Array.length sources) workers
