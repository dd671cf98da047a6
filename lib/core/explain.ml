let classify_darpe (d : Darpe.Ast.t) =
  match d with
  | Darpe.Ast.Step _ -> "single step -> direct adjacency scan (binds edge variables)"
  | _ ->
    (match Darpe.Ast.fixed_unique_length d, Darpe.Ast.max_path_length d with
     | Some n, _ ->
       Printf.sprintf
         "fixed-unique-length (%d) -> product traversal; all-shortest = unrestricted semantics" n
     | None, Some m ->
       Printf.sprintf "bounded repetition (max %d) -> graph x DFA product traversal" m
     | None, None ->
       "unbounded Kleene -> graph x DFA product; counting engine polynomial, enumeration \
        engines exponential in matching paths")

(* A WHERE conjunct pushes down when it touches exactly one vertex alias of
   the pattern (mirrors Eval.split_where). *)
let rec and_conjuncts (e : Ast.expr) =
  match e with
  | Ast.E_binop (Ast.And, a, b) -> and_conjuncts a @ and_conjuncts b
  | other -> [ other ]

let rec expr_vars (e : Ast.expr) =
  match e with
  | Ast.E_var v | Ast.E_attr (v, _) | Ast.E_vacc (v, _) | Ast.E_vacc_prev (v, _) -> [ v ]
  | Ast.E_binop (_, a, b) -> expr_vars a @ expr_vars b
  | Ast.E_unop (_, a) -> expr_vars a
  | Ast.E_call (_, args) | Ast.E_tuple args -> List.concat_map expr_vars args
  | Ast.E_method (base, _, args) -> expr_vars base @ List.concat_map expr_vars args
  | Ast.E_arrow (ks, vs) -> List.concat_map expr_vars (ks @ vs)
  | Ast.E_int _ | Ast.E_float _ | Ast.E_string _ | Ast.E_bool _ | Ast.E_null | Ast.E_gacc _
  | Ast.E_gacc_prev _ -> []

let rec acc_targets (s : Ast.acc_stmt) =
  match s with
  | Ast.A_input (t, _) | Ast.A_assign (t, _) -> [ Ast.target_to_string t ]
  | Ast.A_local _ -> []
  | Ast.A_attr_assign (v, a, _) -> [ Printf.sprintf "%s.%s (attribute)" v a ]
  | Ast.A_if (_, th, el) -> List.concat_map acc_targets th @ List.concat_map acc_targets el

let endpoint_alias (ep : Ast.endpoint) =
  match ep.Ast.ep_alias with Some a -> a | None -> ep.Ast.ep_set

let explain_select buf (b : Ast.select_block) =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let pattern_aliases =
    List.concat_map
      (fun (c : Ast.conjunct) -> [ endpoint_alias c.Ast.c_src; endpoint_alias c.Ast.c_dst ])
      b.Ast.s_from
    |> List.sort_uniq compare
  in
  List.iteri
    (fun i (c : Ast.conjunct) ->
      add "  pattern %d: %s -(%s)- %s\n" (i + 1) (endpoint_alias c.Ast.c_src)
        (Darpe.Ast.to_string c.Ast.c_darpe)
        (endpoint_alias c.Ast.c_dst);
      add "    %s\n" (classify_darpe c.Ast.c_darpe))
    b.Ast.s_from;
  if List.length b.Ast.s_from > 1 then
    add "  join: %d conjuncts hash-joined on shared aliases {%s}\n" (List.length b.Ast.s_from)
      (String.concat ", " pattern_aliases);
  (match b.Ast.s_where with
   | None -> ()
   | Some w ->
     let parts = and_conjuncts w in
     let pushed, residual =
       List.partition
         (fun p ->
           match List.sort_uniq compare (List.filter (fun v -> List.mem v pattern_aliases) (expr_vars p)) with
           | [ _ ] -> true
           | _ -> false)
         parts
     in
     List.iter (fun p -> add "  where (pushed to seed filter): %s\n" (Ast.expr_to_string p)) pushed;
     List.iter (fun p -> add "  where (residual row filter):  %s\n" (Ast.expr_to_string p)) residual);
  let accum_targets = List.sort_uniq compare (List.concat_map acc_targets b.Ast.s_accum) in
  if accum_targets <> [] then
    add "  accum: one execution per binding row (multiplicity-weighted) -> {%s}\n"
      (String.concat ", " accum_targets);
  let post_targets = List.sort_uniq compare (List.concat_map acc_targets b.Ast.s_post_accum) in
  if post_targets <> [] then
    add "  post_accum: once per distinct vertex -> {%s}\n" (String.concat ", " post_targets);
  if b.Ast.s_group_by <> [] then
    add "  group by: %s (aggregates fold multiplicities; bag semantics)\n"
      (String.concat ", " (List.map Ast.expr_to_string b.Ast.s_group_by));
  (match b.Ast.s_order_by, b.Ast.s_limit with
   | [], None -> ()
   | keys, limit ->
     add "  order/limit: %s%s\n"
       (String.concat ", "
          (List.map (fun (e, d) -> Ast.expr_to_string e ^ if d then " DESC" else " ASC") keys))
       (match limit with Some l -> " limit " ^ Ast.expr_to_string l | None -> ""))

let rec explain_stmt ?(annot : Ast.select_block -> string list = fun _ -> []) buf depth
    (s : Ast.stmt) =
  let explain_stmt = explain_stmt ~annot in
  let indent = String.make (depth * 2) ' ' in
  let add fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (indent ^ str)) fmt in
  match s with
  | Ast.S_select (binding, b) ->
    add "SELECT block%s:\n" (match binding with Some x -> Printf.sprintf " (binds %s)" x | None -> "");
    explain_select buf b;
    List.iter (fun line -> Buffer.add_string buf ("  " ^ line ^ "\n")) (annot b)
  | Ast.S_while (c, limit, body) ->
    add "WHILE %s%s: accumulators carry state across iterations\n" (Ast.expr_to_string c)
      (match limit with Some l -> " (limit " ^ Ast.expr_to_string l ^ ")" | None -> "");
    List.iter (explain_stmt buf (depth + 1)) body
  | Ast.S_if (_, th, el) ->
    add "IF/ELSE:\n";
    List.iter (explain_stmt buf (depth + 1)) th;
    List.iter (explain_stmt buf (depth + 1)) el
  | Ast.S_foreach (x, e, body) ->
    add "FOREACH %s IN %s:\n" x (Ast.expr_to_string e);
    List.iter (explain_stmt buf (depth + 1)) body
  | Ast.S_acc_decl d ->
    add "declare %s: %s\n"
      (String.concat ", " (List.map (fun (g, n) -> (if g then "@@" else "@") ^ n) d.Ast.d_names))
      (Accum.Spec.to_string d.Ast.d_spec)
  | Ast.S_set_assign (x, _) -> add "vertex set %s\n" x
  | Ast.S_insert (ty, _, _) -> add "INSERT INTO %s\n" ty
  | Ast.S_gacc_assign _ | Ast.S_let _ | Ast.S_print _ | Ast.S_return _ -> ()

let explain_body ?annot buf stmts =
  let info = Analyze.check_block stmts in
  List.iter (explain_stmt ?annot buf 0) stmts;
  (match info.Analyze.errors with
   | [] -> ()
   | errs ->
     Buffer.add_string buf "analysis errors:\n";
     List.iter (fun e -> Buffer.add_string buf ("  ! " ^ e ^ "\n")) errs);
  List.iter (fun w -> Buffer.add_string buf ("warning: " ^ w ^ "\n")) info.Analyze.warnings;
  Buffer.add_string buf
    (if info.Analyze.tractable then
       "tractable class (Theorem 7.1): yes — polynomial-time evaluation under \
        all-shortest-paths semantics\n"
     else "tractable class (Theorem 7.1): NO — evaluation may be exponential\n")

(* The shape of the closure plan {!Catalog} installs for this source
   (docs/COMPILER.md).  Compiled without a schema, so segment-symbol
   resolution shows as deferred ([syms@invoke]) — the catalog's
   schema-aware install resolves them statically.  Analysis failures were
   already reported above; a plan can't exist for them. *)
let compiled_section buf mk_plan =
  match mk_plan () with
  | plan ->
    Buffer.add_string buf "compiled plan:\n";
    String.split_on_char '\n' (Compile.describe plan)
    |> List.iter (fun line -> Buffer.add_string buf ("  " ^ line ^ "\n"))
  | exception _ -> ()

let block ?annot stmts =
  let buf = Buffer.create 512 in
  explain_body ?annot buf stmts;
  compiled_section buf (fun () -> Compile.compile_block stmts);
  Buffer.contents buf

let query ?annot (q : Ast.query) =
  let buf = Buffer.create 512 in
  Printf.ksprintf (Buffer.add_string buf) "query %s(%s)%s\n" q.Ast.q_name
    (String.concat ", " (List.map (fun (p : Ast.param) -> p.Ast.p_name) q.Ast.q_params))
    (match q.Ast.q_semantics with
     | Some sem -> Printf.sprintf " [semantics: %s]" (Pathsem.Semantics.to_string sem)
     | None -> " [semantics: all-shortest (default)]");
  explain_body ?annot buf q.Ast.q_body;
  compiled_section buf (fun () -> Compile.compile q);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: run the query under tracing, then join the recorded
   span tree back onto the static plan.                                *)

module T = Obs.Trace
module J = Obs.Json

(* Per-static-block aggregation of "select" spans (a block inside a WHILE
   executes once per iteration; they fold together keyed on the FROM
   signature the evaluator stamped on each span). *)
type block_stats = {
  mutable bs_execs : int;
  mutable bs_ms : float;
  mutable bs_rows : int;
  mutable bs_rows_where : int option;     (* Some = a residual WHERE ran *)
  mutable bs_out_vertices : int option;
  mutable bs_match_ms : float;
  mutable bs_engines : string list;       (* distinct engine names seen *)
  mutable bs_sources : int;
  mutable bs_bindings : int;
  mutable bs_mult : float;
  mutable bs_bfs_runs : int;
  mutable bs_bfs_hops : int;
  mutable bs_bfs_max_frontier : int;
  mutable bs_frontiers : int list option; (* per-hop sizes when exactly one BFS ran *)
  mutable bs_accum_ms : float;
  mutable bs_accum_rows : int;
  mutable bs_merges : int;
  mutable bs_assigns : int;
  mutable bs_commits : int;
  mutable bs_post_ms : float;
  mutable bs_post_merges : int;
  mutable bs_post_assigns : int;
}

let fresh_stats () =
  { bs_execs = 0; bs_ms = 0.0; bs_rows = 0; bs_rows_where = None; bs_out_vertices = None;
    bs_match_ms = 0.0; bs_engines = []; bs_sources = 0; bs_bindings = 0; bs_mult = 0.0;
    bs_bfs_runs = 0; bs_bfs_hops = 0; bs_bfs_max_frontier = 0; bs_frontiers = None;
    bs_accum_ms = 0.0; bs_accum_rows = 0; bs_merges = 0; bs_assigns = 0; bs_commits = 0;
    bs_post_ms = 0.0; bs_post_merges = 0; bs_post_assigns = 0 }

let attr (sp : T.span) name = List.assoc_opt name sp.T.sp_attrs
let attr_int sp name = match attr sp name with Some (J.Int n) -> Some n | _ -> None
let attr_int0 sp name = Option.value (attr_int sp name) ~default:0
let attr_str sp name = match attr sp name with Some (J.Str s) -> Some s | _ -> None
let attr_float0 sp name =
  match attr sp name with Some (J.Float f) -> f | Some (J.Int n) -> float_of_int n | _ -> 0.0

let children_named sp name =
  List.filter (fun (c : T.span) -> c.T.sp_name = name) (List.rev sp.T.sp_children)

let rec descendants_named (sp : T.span) name =
  List.concat_map
    (fun (c : T.span) ->
      (if c.T.sp_name = name then [ c ] else []) @ descendants_named c name)
    (List.rev sp.T.sp_children)

let fold_select_span stats (sp : T.span) =
  stats.bs_execs <- stats.bs_execs + 1;
  stats.bs_ms <- stats.bs_ms +. sp.T.sp_elapsed_ms;
  stats.bs_rows <- stats.bs_rows + attr_int0 sp "rows";
  (match attr_int sp "rows_after_where" with
   | Some n ->
     stats.bs_rows_where <-
       Some (n + Option.value stats.bs_rows_where ~default:0)
   | None -> ());
  (match attr_int sp "out_vertices" with
   | Some n -> stats.bs_out_vertices <- Some (n + Option.value stats.bs_out_vertices ~default:0)
   | None -> ());
  List.iter
    (fun m ->
      stats.bs_match_ms <- stats.bs_match_ms +. m.T.sp_elapsed_ms;
      List.iter
        (fun pm ->
          (match attr_str pm "engine" with
           | Some e when not (List.mem e stats.bs_engines) -> stats.bs_engines <- e :: stats.bs_engines
           | _ -> ());
          stats.bs_sources <- stats.bs_sources + attr_int0 pm "sources";
          stats.bs_bindings <- stats.bs_bindings + attr_int0 pm "bindings";
          stats.bs_mult <- stats.bs_mult +. attr_float0 pm "multiplicity_total")
        (descendants_named m "path_match");
      List.iter
        (fun bfs ->
          stats.bs_bfs_runs <- stats.bs_bfs_runs + 1;
          stats.bs_bfs_hops <- stats.bs_bfs_hops + attr_int0 bfs "hops";
          let fronts =
            match attr bfs "frontiers" with
            | Some (J.List l) -> List.filter_map J.to_int_opt l
            | _ -> []
          in
          List.iter
            (fun w -> if w > stats.bs_bfs_max_frontier then stats.bs_bfs_max_frontier <- w)
            fronts;
          stats.bs_frontiers <-
            (if stats.bs_bfs_runs = 1 then Some fronts else None))
        (descendants_named m "bfs"))
    (children_named sp "match");
  List.iter
    (fun a ->
      stats.bs_accum_ms <- stats.bs_accum_ms +. a.T.sp_elapsed_ms;
      stats.bs_accum_rows <- stats.bs_accum_rows + attr_int0 a "rows";
      stats.bs_merges <- stats.bs_merges + attr_int0 a "merge_ops";
      stats.bs_assigns <- stats.bs_assigns + attr_int0 a "assign_ops";
      stats.bs_commits <- stats.bs_commits + attr_int0 a "commits")
    (children_named sp "accum");
  List.iter
    (fun p ->
      stats.bs_post_ms <- stats.bs_post_ms +. p.T.sp_elapsed_ms;
      stats.bs_post_merges <- stats.bs_post_merges + attr_int0 p "merge_ops";
      stats.bs_post_assigns <- stats.bs_post_assigns + attr_int0 p "assign_ops";
      stats.bs_commits <- stats.bs_commits + attr_int0 p "commits")
    (children_named sp "post_accum")

let collect_block_stats roots =
  let index : (string, block_stats) Hashtbl.t = Hashtbl.create 8 in
  let rec walk (sp : T.span) =
    (if sp.T.sp_name = "select" then
       match attr_str sp "block" with
       | Some key ->
         let stats =
           match Hashtbl.find_opt index key with
           | Some s -> s
           | None ->
             let s = fresh_stats () in
             Hashtbl.replace index key s;
             s
         in
         fold_select_span stats sp
       | None -> ());
    List.iter walk (List.rev sp.T.sp_children)
  in
  List.iter walk roots;
  index

let fmt_ms ms =
  if ms < 1.0 then Printf.sprintf "%.3fms" ms
  else if ms < 1000.0 then Printf.sprintf "%.2fms" ms
  else Printf.sprintf "%.2fs" (ms /. 1000.0)

(* Path-multiplicity totals can exceed the float-exact integer range on the
   exponential fixtures; render compactly. *)
let fmt_mult m =
  if Float.is_integer m && Float.abs m < 1e15 then Printf.sprintf "%.0f" m
  else Printf.sprintf "%.3g" m

let render_block_stats ~timings stats =
  let time label ms = if timings then [ Printf.sprintf "%s %s" label (fmt_ms ms) ] else [] in
  let lines = ref [] in
  let push fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  push "analyze: %d execution%s%s" stats.bs_execs
    (if stats.bs_execs = 1 then "" else "s")
    (if timings then ", " ^ fmt_ms stats.bs_ms ^ " total" else "");
  let where_part =
    match stats.bs_rows_where with
    | Some n -> Printf.sprintf " (%d after residual WHERE)" n
    | None -> ""
  in
  push "  match: %d binding row%s%s%s" stats.bs_rows
    (if stats.bs_rows = 1 then "" else "s")
    where_part
    (String.concat "" (List.map (fun s -> ", " ^ s) (time "" stats.bs_match_ms |> List.map String.trim)));
  if stats.bs_engines <> [] then
    push "  paths: engine %s, %d source%s -> %d binding%s, path multiplicity %s"
      (String.concat "+" (List.rev stats.bs_engines))
      stats.bs_sources
      (if stats.bs_sources = 1 then "" else "s")
      stats.bs_bindings
      (if stats.bs_bindings = 1 then "" else "s")
      (fmt_mult stats.bs_mult);
  if stats.bs_bfs_runs > 0 then begin
    (match stats.bs_frontiers with
     | Some fronts when fronts <> [] ->
       push "  bfs: %d hop%s, frontier sizes [%s] (product states per hop)" stats.bs_bfs_hops
         (if stats.bs_bfs_hops = 1 then "" else "s")
         (String.concat ", " (List.map string_of_int fronts))
     | _ ->
       push "  bfs: %d run%s, %d hops total, max frontier %d" stats.bs_bfs_runs
         (if stats.bs_bfs_runs = 1 then "" else "s")
         stats.bs_bfs_hops stats.bs_bfs_max_frontier)
  end;
  if stats.bs_commits > 0 || stats.bs_merges > 0 || stats.bs_assigns > 0 then
    push "  accum: %d acc-execution%s, %d merge op%s, %d assign%s%s" stats.bs_accum_rows
      (if stats.bs_accum_rows = 1 then "" else "s")
      stats.bs_merges
      (if stats.bs_merges = 1 then "" else "s")
      stats.bs_assigns
      (if stats.bs_assigns = 1 then "" else "s")
      (String.concat ""
         (List.map (fun s -> ", " ^ s) (time "" stats.bs_accum_ms |> List.map String.trim)));
  if stats.bs_post_merges > 0 || stats.bs_post_assigns > 0 || stats.bs_post_ms > 0.0 then
    push "  post_accum: %d merge op%s, %d assign%s%s" stats.bs_post_merges
      (if stats.bs_post_merges = 1 then "" else "s")
      stats.bs_post_assigns
      (if stats.bs_post_assigns = 1 then "" else "s")
      (String.concat ""
         (List.map (fun s -> ", " ^ s) (time "" stats.bs_post_ms |> List.map String.trim)));
  (match stats.bs_out_vertices with
   | Some n -> push "  output: %d vertex set member%s" n (if n = 1 then "" else "s")
   | None -> ());
  List.rev !lines

(* Global (whole-run) telemetry footer, from the metrics registry. *)
let render_summary ~timings metrics =
  let counter name =
    match J.member "counters" metrics with
    | Some c -> (match J.member name c with Some (J.Int n) -> n | _ -> 0)
    | None -> 0
  in
  let lines = ref [] in
  let push fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  push "== execution telemetry ==";
  let selects = counter "compile.select_blocks" in
  (if timings then
     match J.member "histograms" metrics with
     | Some h ->
       (match J.member "compile.select_ms" h with
        | Some hist ->
          (match J.member "sum" hist |> Option.map J.to_float_opt |> Option.join with
           | Some sum -> push "select blocks: %d (%s total)" selects (fmt_ms sum)
           | None -> push "select blocks: %d" selects)
        | None -> push "select blocks: %d" selects)
     | None -> push "select blocks: %d" selects
   else push "select blocks: %d" selects);
  push "accumulator store: %d merge ops, %d assigns, %d commits"
    (counter "accum.merge_ops") (counter "accum.assign_ops") (counter "accum.commits");
  let bfs_sources = counter "paths.count.sources" in
  if bfs_sources > 0 then
    push "counting engine: %d BFS run%s, %d hops, %d product-state expansions" bfs_sources
      (if bfs_sources = 1 then "" else "s")
      (counter "paths.count.hops") (counter "paths.count.product_states");
  let enum = counter "paths.enum.paths" in
  if enum > 0 then push "enumeration engine: %d paths materialized" enum;
  List.rev !lines

type analysis = {
  an_report : string;
  an_result : Eval.result;
  an_trace : J.t;
  an_metrics : J.t;
}

let analyze_source graph ?semantics ?(params = []) ?(timings = true) src =
  let parsed =
    match Parser.parse_query src with
    | q -> `Query q
    | exception Parser.Error _ -> `Block (Parser.parse_block src)
  in
  let metrics_were_on = Obs.Metrics.enabled () in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  T.start ();
  let result =
    match
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled metrics_were_on)
        (fun () -> Compile.run_source graph ?semantics ~params src)
    with
    | r -> r
    | exception e ->
      (* Leave no live trace behind (a REPL keeps the process alive). *)
      ignore (T.stop ());
      raise e
  in
  let trace_doc = T.stop () in
  let roots = T.roots () in
  let metrics = Obs.Metrics.dump () in
  let index = collect_block_stats roots in
  let annot b =
    match Hashtbl.find_opt index (Ast.select_signature b) with
    | Some stats -> render_block_stats ~timings stats
    | None -> [ "analyze: not executed" ]
  in
  let plan = match parsed with `Query q -> query ~annot q | `Block stmts -> block ~annot stmts in
  let report =
    plan ^ "\n" ^ String.concat "\n" (render_summary ~timings metrics) ^ "\n"
  in
  { an_report = report; an_result = result; an_trace = trace_doc; an_metrics = metrics }

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE surface syntax: a leading keyword stripped
   before the regular parser runs (LANGUAGE.md "Inspecting plans").     *)

let strip_explain src =
  let n = String.length src in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let is_word c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let rec skip i = if i < n && is_space src.[i] then skip (i + 1) else i in
  let word_end i =
    let rec go j = if j < n && is_word src.[j] then go (j + 1) else j in
    go i
  in
  let i0 = skip 0 in
  let i1 = word_end i0 in
  let kw1 = String.lowercase_ascii (String.sub src i0 (i1 - i0)) in
  if kw1 <> "explain" then (`Plain, src)
  else begin
    let j0 = skip i1 in
    let j1 = word_end j0 in
    let kw2 = String.lowercase_ascii (String.sub src j0 (j1 - j0)) in
    if kw2 = "analyze" then (`Analyze, String.sub src j1 (n - j1))
    else (`Explain, String.sub src i1 (n - i1))
  end
