(* Interpreter-vs-compiled ablation (docs/COMPILER.md, docs/PERFORMANCE.md).

   Runs the shipped parameterized queries (khop, common_friends,
   multigroup_gs — Appendix B's accumulator multi-grouping — and
   likes_by_city_year, one of its grouping sets as a GROUP BY) and two of
   the served IC queries (IC1, a single-source counting match, and IC9,
   an ORDER BY … LIMIT over ~1,900 rows at the default scale) over an
   SNB graph through both execution paths — the Eval tree-walker and the
   install-time closure plan — on a single thread, comparing cached-miss
   invoke latency.  Both paths must return byte-identical results (the
   interpreter is the compiler's differential-testing oracle); the bench
   aborts on any divergence before it prints a number.

   Environment:
     COMPILE_SF    SNB scale factor (default 1.0: IC9 then sorts ~1,900
                   rows; at 0.1 it sorts ~200)
     COMPILE_RUNS  runs per median (default 5)
     BENCH_JSON    directory for the BENCH_compile.json sidecar, with
                   per-query interp_ms / compiled_ms / speedup /
                   compile_ms / plan_ops
     COMPILE_GATE  when set, exit 1 if the compiled path is slower than
                   the interpreter on any query (CI bench-smoke gate) *)

module V = Pgraph.Value
module G = Pgraph.Graph
module J = Obs.Json

type case = {
  c_source : [ `File of string | `Ic of Ldbc.Ic.name * int * string ];
      (* a queries/ file, or an Ldbc.Ic block wrapped as an installed
         query: (IC, hops, non-person parameter declaration) *)
  c_params : Ldbc.Snb.t -> (string * V.t) list;
}

let cases =
  [ { c_source = `File "khop.gsql";
      c_params = (fun _ -> [ ("firstName", V.Str "Jan"); ("hops", V.Int 2) ]) };
    { c_source = `File "common_friends.gsql";
      c_params = (fun _ -> [ ("nameA", V.Str "Jan"); ("nameB", V.Str "Maria") ]) };
    { c_source = `File "multigroup_gs.gsql";
      c_params = (fun _ -> [ ("yearLo", V.Int 2010); ("yearHi", V.Int 2012) ]) };
    { c_source = `File "likes_by_city_year.gsql";
      c_params =
        (fun _ ->
          [ ("yearLo", V.Int 2010); ("yearHi", V.Int 2012); ("minLikes", V.Int 2);
            ("topK", V.Int 20) ]) };
    (* IC1: a single-source KNOWS*1..2 through the counting kernel. *)
    { c_source = `Ic (Ldbc.Ic.Ic1, 2, "STRING targetName");
      c_params = (fun snb -> Ldbc.Ic.default_params snb ~seed:1 Ldbc.Ic.Ic1) };
    (* IC9: ORDER BY … LIMIT 20 over every comment of a 3-hop circle. *)
    { c_source = `Ic (Ldbc.Ic.Ic9, 3, "DATETIME maxDate");
      c_params = (fun snb -> Ldbc.Ic.default_params snb ~seed:1 Ldbc.Ic.Ic9) } ]

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string s with Failure _ -> default)
  | None -> default

(* Strong structural fingerprint: PRINT output, every table rendered, and
   vertex-set sizes.  Row order is part of the compiled path's contract. *)
let fingerprint (r : Gsql.Eval.result) =
  String.concat "\x00"
    (r.Gsql.Eval.r_printed
     :: List.map
          (fun (name, tbl) -> name ^ "=" ^ Gsql.Table.to_string tbl)
          r.Gsql.Eval.r_tables
    @ List.map
        (fun (name, vs) -> Printf.sprintf "%s:#%d" name (Array.length vs))
        r.Gsql.Eval.r_vsets)

let run () =
  let sf = getenv_float "COMPILE_SF" 1.0 in
  let runs = Util.getenv_int "COMPILE_RUNS" 5 in
  let t = Ldbc.Snb.generate ~sf () in
  let graph = t.Ldbc.Snb.graph in
  Printf.printf "SNB sf=%.2f: %s\n" sf (Ldbc.Snb.stats t);
  let rows, sidecar =
    List.split
      (List.map
         (fun c ->
           let src =
             match c.c_source with
             | `File f -> Util.read_query f
             | `Ic (ic, hops, param) ->
               (* The same wrapping as bench/e2e/workload.ml's ic_source. *)
               let name = String.capitalize_ascii (Ldbc.Ic.name_to_string ic) in
               Printf.sprintf "CREATE QUERY %s (VERTEX<Person> p, %s) {\n%s}\n" name param
                 (Ldbc.Ic.source ic ~hops)
           in
           let q = Gsql.Parser.parse_query src in
           let name = q.Gsql.Ast.q_name in
           let plan = Gsql.Compile.compile ~schema:(G.schema graph) q in
           let params = c.c_params t in
           let interp () = Gsql.Eval.run_query graph ~params q in
           let compiled () = Gsql.Compile.run plan ~params graph in
           let ri = interp () and rc = compiled () in
           if fingerprint ri <> fingerprint rc then begin
             Printf.eprintf "FAIL: %s diverges between interpreter and compiled plan\n" name;
             exit 1
           end;
           let interp_ms = Util.median_ms ~runs (fun () -> ignore (interp ())) in
           let compiled_ms = Util.median_ms ~runs (fun () -> ignore (compiled ())) in
           let speedup = interp_ms /. compiled_ms in
           let row =
             [ name;
               Util.ms_to_string interp_ms;
               Util.ms_to_string compiled_ms;
               Printf.sprintf "%.2fx" speedup;
               Printf.sprintf "%.2fms" (Gsql.Compile.compile_ms plan);
               string_of_int (Gsql.Compile.plan_ops plan) ]
           in
           let json =
             ( name,
               J.Obj
                 [ ("interp_ms", J.Float interp_ms);
                   ("compiled_ms", J.Float compiled_ms);
                   ("speedup", J.Float speedup);
                   ("compile_ms", J.Float (Gsql.Compile.compile_ms plan));
                   ("plan_ops", J.Int (Gsql.Compile.plan_ops plan)) ] )
           in
           ((row, speedup), json))
         cases)
  in
  Util.print_table
    ~title:(Printf.sprintf "interpreter vs compiled plan (sf=%.2f, median of %d)" sf runs)
    [ "query"; "interp"; "compiled"; "speedup"; "compile"; "ops" ]
    (List.map fst rows);
  print_endline
    "\nBoth paths returned identical results (tables, PRINT output, vertex sets);\n\
     'compile' is the one-time install cost the compiled column no longer pays per invoke.";
  (match Sys.getenv_opt "BENCH_JSON" with
   | None -> ()
   | Some dir ->
     let doc =
       J.Obj
         [ ("suite", J.Str "compile");
           ("sf", J.Float sf);
           ("runs", J.Int runs);
           ("queries", J.Obj sidecar) ]
     in
     let path = Filename.concat dir "BENCH_compile.json" in
     let oc = open_out path in
     output_string oc (J.pretty doc);
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "[sidecar] %s\n%!" path);
  if Util.getenv_flag "COMPILE_GATE" then
    match List.filter (fun (_, speedup) -> speedup < 1.0) rows with
    | [] -> ()
    | slow ->
      List.iter
        (fun (row, speedup) ->
          Printf.eprintf "GATE: %s compiled slower than interpreter (%.2fx)\n"
            (List.hd row) speedup)
        slow;
      exit 1
