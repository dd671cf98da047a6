(* gsql_run — command-line GSQL runner.

   Loads one of the built-in graphs (the SNB-like generator or the paper's
   example graphs), then executes a GSQL query from a file, the command
   line, or an interactive prompt, under a selectable path-legality
   semantics.

   Examples:
     gsql_run --graph diamond:12 --query-string "
       SumAccum<int> @pathCount;
       R = SELECT t FROM V:s -(E>*)- V:t
           WHERE s.name = 'v0' AND t.name = 'v12'
           ACCUM t.@pathCount += 1;
       PRINT R[R.name, R.@pathCount];"
     gsql_run --graph snb:0.2 --stats
     gsql_run --graph snb:0.2 --ic ic3 --hops 3 --semantics non-repeated-edge
     gsql_run --graph g1 --repl

   The `serve` subcommand starts the installed-query service instead
   (docs/SERVICE.md):
     gsql_run serve --graph snb:0.2 --socket /tmp/gsql.sock \
       --install queries/khop.gsql *)

open Cmdliner

let load_graph spec =
  let unknown () =
    prerr_endline
      "unknown graph (expected snb[:sf], diamond:N, pages[:N[:links]], g1, g2 or cycle)";
    exit 2
  in
  (* Sizes are range-checked here, before the generators' own guards. *)
  let int ~min s = match int_of_string_opt s with Some n when n >= min -> n | _ -> unknown () in
  let scale s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ -> unknown ()
  in
  match String.split_on_char ':' spec with
  | [ "snb" ] -> (Ldbc.Snb.generate ~sf:0.1 ()).Ldbc.Snb.graph
  | [ "snb"; sf ] -> (Ldbc.Snb.generate ~sf:(scale sf) ()).Ldbc.Snb.graph
  | [ "diamond"; n ] -> (Pathsem.Toygraphs.diamond_chain (int ~min:0 n)).Pathsem.Toygraphs.g
  | [ "g1" ] -> (Pathsem.Toygraphs.g1 ()).Pathsem.Toygraphs.g
  | [ "g2" ] -> (Pathsem.Toygraphs.g2 ()).Pathsem.Toygraphs.g
  | [ "cycle" ] -> (Pathsem.Toygraphs.triangle_cycle ()).Pathsem.Toygraphs.g
  | [ "pages" ] -> (Pathsem.Toygraphs.web 64).Pathsem.Toygraphs.g
  | [ "pages"; n ] -> (Pathsem.Toygraphs.web (int ~min:1 n)).Pathsem.Toygraphs.g
  | [ "pages"; n; links ] ->
    (Pathsem.Toygraphs.web ~links:(int ~min:0 links) (int ~min:1 n)).Pathsem.Toygraphs.g
  | _ -> unknown ()

let parse_param graph s =
  match String.index_opt s '=' with
  | None ->
    prerr_endline ("bad --param (expected name=value): " ^ s);
    exit 2
  | Some i ->
    let name = String.sub s 0 i in
    let raw = String.sub s (i + 1) (String.length s - i - 1) in
    let value =
      match int_of_string_opt raw with
      | Some n -> Pgraph.Value.Int n
      | None ->
        (match float_of_string_opt raw with
         | Some f -> Pgraph.Value.Float f
         | None ->
           (match raw with
            | "true" -> Pgraph.Value.Bool true
            | "false" -> Pgraph.Value.Bool false
            | _ ->
              (* vertex:Type:attr:value looks a vertex up by attribute. *)
              (match String.split_on_char ':' raw with
               | [ "vertex"; ty; attr; v ] ->
                 (match Pgraph.Graph.find_vertex_by_attr graph ty attr (Pgraph.Value.Str v) with
                  | Some vid -> Pgraph.Value.Vertex vid
                  | None ->
                    prerr_endline (Printf.sprintf "no %s with %s = %s" ty attr v);
                    exit 2)
               | _ -> Pgraph.Value.Str raw)))
    in
    (name, value)

let print_result (r : Gsql.Eval.result) =
  if r.Gsql.Eval.r_printed <> "" then print_string r.Gsql.Eval.r_printed;
  List.iter
    (fun (name, tbl) ->
      Printf.printf "table %s (%d rows):\n%s\n" name (Gsql.Table.n_rows tbl)
        (Gsql.Table.to_string tbl))
    r.Gsql.Eval.r_tables;
  (match r.Gsql.Eval.r_return with
   | Some (Gsql.Eval.R_scalar v) -> Printf.printf "returned: %s\n" (Pgraph.Value.to_string v)
   | Some (Gsql.Eval.R_vset vs) -> Printf.printf "returned: vertex set of %d\n" (Array.length vs)
   | Some (Gsql.Eval.R_table t) -> Printf.printf "returned table:\n%s" (Gsql.Table.to_string t)
   | None -> ())

(* The plan compiled against the loaded graph's schema, as run_source and
   the catalog install it. *)
let explain_one graph src =
  let schema = Pgraph.Graph.schema graph in
  print_string
    (match Gsql.Parser.parse_source src with
     | `Query q -> Gsql.Explain.query ~schema q
     | `Block stmts -> Gsql.Explain.block ~schema stmts)

let write_trace path (a : Gsql.Explain.analysis) =
  let doc = Obs.Json.Obj [ ("trace", a.Gsql.Explain.an_trace); ("metrics", a.Gsql.Explain.an_metrics) ] in
  (match Obs.Trace.validate doc with
   | Ok () -> ()
   | Error msg -> Printf.eprintf "internal: trace failed schema check: %s\n%!" msg);
  match open_out path with
  | oc ->
    output_string oc (Obs.Json.pretty doc);
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "trace written to %s\n%!" path
  | exception Sys_error msg -> Printf.eprintf "cannot write trace: %s\n%!" msg

let analyze_one graph semantics params trace_file ~print_report src =
  let a = Gsql.Explain.analyze_source graph ?semantics ~params src in
  if print_report then print_string a.Gsql.Explain.an_report;
  print_result a.Gsql.Explain.an_result;
  match trace_file with Some path -> write_trace path a | None -> ()

(* Runs one query and reports a parse or runtime error on stderr; [false]
   when it failed. *)
let run_one graph semantics params ~explain ~analyze ~trace_file src =
  (* A leading EXPLAIN / EXPLAIN ANALYZE keyword does the same as the
     --explain / --analyze flags (handy in the repl). *)
  let mode, src = Gsql.Explain.strip_explain src in
  let mode = if analyze then `Analyze else if explain then `Explain else mode in
  match
    match mode, trace_file with
    | `Explain, _ -> explain_one graph src
    | `Analyze, _ -> analyze_one graph semantics params trace_file ~print_report:true src
    | `Plain, Some _ ->
      (* --trace without --analyze: execute under tracing, keep normal output. *)
      analyze_one graph semantics params trace_file ~print_report:false src
    | `Plain, None -> print_result (Gsql.Compile.run_source graph ?semantics ~params src)
  with
  | () -> true
  | exception Gsql.Eval.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n%!" msg;
    false
  | exception Gsql.Parser.Error msg ->
    Printf.eprintf "%s\n%!" msg;
    false

let repl graph semantics params =
  print_endline "GSQL repl — terminate a query with a line containing only ';;', ctrl-d to quit.";
  print_endline "Prefix a query with EXPLAIN or EXPLAIN ANALYZE to inspect its plan.";
  let buf = Buffer.create 256 in
  (try
     while true do
       print_string (if Buffer.length buf = 0 then "gsql> " else "....> ");
       flush stdout;
       let line = input_line stdin in
       if String.trim line = ";;" then begin
         (* An error is reported and the prompt comes back. *)
         ignore
           (run_one graph semantics params ~explain:false ~analyze:false ~trace_file:None
              (Buffer.contents buf));
         Buffer.clear buf
       end
       else begin
         Buffer.add_string buf line;
         Buffer.add_char buf '\n'
       end
     done
   with End_of_file -> print_newline ())

let main graph_spec query_file query_string param_specs semantics_name stats ic_name hops seed
    use_repl explain analyze trace_file =
  let graph = load_graph graph_spec in
  let semantics =
    match semantics_name with
    | None -> None
    | Some s ->
      (match Pathsem.Semantics.of_string s with
       | Some sem -> Some sem
       | None ->
         prerr_endline ("unknown semantics: " ^ s);
         exit 2)
  in
  let params = List.map (parse_param graph) param_specs in
  if stats then
    Printf.printf "graph: %d vertices, %d edges\n" (Pgraph.Graph.n_vertices graph)
      (Pgraph.Graph.n_edges graph);
  (match ic_name with
   | Some name ->
     let ic =
       match List.find_opt (fun q -> Ldbc.Ic.name_to_string q = name) Ldbc.Ic.all with
       | Some q -> q
       | None ->
         prerr_endline ("unknown IC query: " ^ name);
         exit 2
     in
     (* IC queries need the generator handles; regenerate with same spec. *)
     let t =
       match String.split_on_char ':' graph_spec with
       | [ "snb" ] -> Ldbc.Snb.generate ~sf:0.1 ()
       | [ "snb"; sf ] -> Ldbc.Snb.generate ~sf:(float_of_string sf) ()
       | _ ->
         prerr_endline "--ic requires --graph snb[:sf]";
         exit 2
     in
     print_result (Ldbc.Ic.run t ?semantics ~hops ~seed ic)
   | None -> ());
  let handle src =
    if not (run_one graph semantics params ~explain ~analyze ~trace_file src) then exit 1
  in
  (match query_file with
   | Some path ->
     let ic = open_in path in
     let n = in_channel_length ic in
     let src = really_input_string ic n in
     close_in ic;
     handle src
   | None -> ());
  (match query_string with
   | Some src -> handle src
   | None -> ());
  if use_repl then repl graph semantics params;
  if (not stats) && ic_name = None && query_file = None && query_string = None && not use_repl
  then begin
    prerr_endline "gsql_run: nothing to do";
    prerr_endline
      "usage: gsql_run [--graph SPEC] (--query FILE | --query-string SRC | --ic NAME | --stats \
       | --repl) [OPTION]...";
    prerr_endline "       gsql_run serve [OPTION]...   (installed-query service; see gsql_run serve --help)";
    prerr_endline "Run 'gsql_run --help' for the full option list.";
    exit 2
  end

let graph_arg =
  Arg.(value & opt string "snb:0.1" & info [ "graph"; "g" ] ~doc:"Graph to load: snb[:sf], diamond:N, g1, g2, cycle.")

let query_arg =
  Arg.(value & opt (some file) None & info [ "query"; "q" ] ~doc:"GSQL file to execute.")

let query_string_arg =
  Arg.(value & opt (some string) None & info [ "query-string"; "e" ] ~doc:"GSQL text to execute.")

let param_arg =
  Arg.(value & opt_all string [] & info [ "param"; "p" ] ~doc:"Query parameter name=value (value may be int, float, bool, string or vertex:Type:attr:value).")

let semantics_arg =
  Arg.(value & opt (some string) None
       & info [ "semantics"; "s" ]
           ~doc:"Path-legality semantics: all-shortest (default), shortest-enumerated, non-repeated-edge, non-repeated-vertex, existential, unrestricted:N.")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print graph size.")

let ic_arg =
  Arg.(value & opt (some string) None & info [ "ic" ] ~doc:"Run a built-in LDBC IC query (ic1, ic2, ic3, ic5, ic6, ic9, ic11).")

let hops_arg = Arg.(value & opt int 2 & info [ "hops" ] ~doc:"KNOWS hops for --ic.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Parameter seed for --ic.")
let repl_arg = Arg.(value & flag & info [ "repl" ] ~doc:"Interactive prompt.")

let explain_arg =
  Arg.(value & flag & info [ "explain" ] ~doc:"Print the query plan instead of executing.")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: execute the query with instrumentation on and print the plan \
                 annotated with live stats (per-block timings, binding-table sizes, BFS frontier \
                 sizes, accumulator merge counts) before the normal output.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Execute under tracing and write the span tree plus the metrics snapshot to \
                 $(docv) as JSON (schema: docs/OBSERVABILITY.md).")

let run_term =
  Term.(
    const main $ graph_arg $ query_arg $ query_string_arg $ param_arg $ semantics_arg
    $ stats_arg $ ic_arg $ hops_arg $ seed_arg $ repl_arg $ explain_arg $ analyze_arg
    $ trace_arg)

(* ------------------------------------------------------------------ *)
(* serve — the installed-query service (docs/SERVICE.md)               *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* --tenant-weights a=3,b=1: DRR admission weights (unlisted tenants
   weigh 1; values are floored at 1 by the server). *)
let parse_tenant_weights spec =
  let spec = String.trim spec in
  if spec = "" then Ok []
  else
    let parts = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "tenant weight %S: expected name=weight" part)
        | Some i -> (
          let name = String.trim (String.sub part 0 i) in
          let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
          match int_of_string_opt v with
          | Some w when w >= 1 && name <> "" -> go ((name, w) :: acc) rest
          | _ ->
            Error
              (Printf.sprintf "tenant weight %S: weight must be a positive integer" part)))
    in
    go [] parts

let serve graph_spec socket_path port workers queue_cap cache_cap timeout_ms max_steps
    max_rows max_conns semantics_name install_files trace_file data_dir compact_every
    tenant_weights_spec quota_steps quota_rows tenant_queue replica_of sync_replicas
    sync_timeout_ms max_staleness_ms =
  let usage msg =
    prerr_endline ("serve: " ^ msg);
    exit 2
  in
  (match port with
   | Some p when p < 0 || p > 65535 -> usage "--port must lie in 0..65535"
   | _ -> ());
  if max_conns < 1 then usage "--max-connections must be >= 1";
  let graph = load_graph graph_spec in
  let tenant_weights =
    match parse_tenant_weights tenant_weights_spec with
    | Ok ws -> ws
    | Error msg -> usage msg
  in
  let semantics =
    match semantics_name with
    | None -> None
    | Some s ->
      (match Pathsem.Semantics.of_string s with
       | Some sem -> Some sem
       | None ->
         prerr_endline ("unknown semantics: " ^ s);
         exit 2)
  in
  let listen =
    match (socket_path, port) with
    | Some path, None -> `Unix path
    | None, Some p -> `Tcp ("127.0.0.1", p)
    | Some _, Some _ -> usage "pass --socket or --port, not both"
    | None, None -> usage "pass --socket PATH or --port N"
  in
  (* Governor limits: the serve-level timeout doubles as the budget
     deadline default, so even a synchronous engine (no server sweep)
     interrupts runaway executions; 0 disables a ceiling. *)
  let limits =
    { Interrupt.l_timeout_ms = (if timeout_ms > 0 then Some timeout_ms else None);
      l_max_steps = (if max_steps > 0 then Some max_steps else None);
      l_max_rows = (if max_rows > 0 then Some max_rows else None) }
  in
  let faults = Service.Faults.from_env () in
  let engine =
    match data_dir with
    | None ->
      Service.Engine.create ~cache_capacity:cache_cap ?semantics ~limits ~graph ()
    | Some dir ->
      (* Durable mode: recover the committed state from <dir> (the --graph
         spec supplies the base graph until the first compaction), then
         attach the WAL so every commit is logged before publication. *)
      (match
         Store.Persist.open_dir ~hooks:(Service.Faults.wal_hooks faults)
           ~compact_every dir ~base:(fun () -> graph)
       with
       | persist, recovery ->
         if recovery.Store.Persist.r_truncated then
           Printf.eprintf "recovery: dropped a torn/corrupt WAL tail in %s\n%!" dir;
         Printf.eprintf "recovered %s at version %d (%d batches replayed)\n%!" dir
           recovery.Store.Persist.r_version recovery.Store.Persist.r_replayed;
         Service.Engine.create ~cache_capacity:cache_cap ?semantics ~limits ~persist
           ~version:recovery.Store.Persist.r_version
           ~graph:recovery.Store.Persist.r_graph ()
       | exception Store.Wal.Io_error msg ->
         Printf.eprintf "cannot open data dir %s: %s\n%!" dir msg;
         exit 2)
  in
  List.iter
    (fun path ->
      match Service.Engine.install engine (read_file path) with
      | Service.Protocol.Installed names ->
        Printf.eprintf "installed %s from %s\n%!" (String.concat ", " names) path
      | Service.Protocol.Error (_, msg, _) ->
        Printf.eprintf "cannot install %s: %s\n%!" path msg;
        exit 2
      | _ -> ())
    install_files;
  let cfg =
    { Service.Server.listen;
      workers;
      queue_capacity = queue_cap;
      per_tenant_queue =
        (if tenant_queue > 0 then tenant_queue
         else (Service.Server.default_config listen).Service.Server.per_tenant_queue);
      default_timeout_ms = timeout_ms;
      max_connections = max_conns;
      max_inflight = (Service.Server.default_config listen).Service.Server.max_inflight;
      max_frame_bytes = Service.Protocol.max_frame_bytes;
      tenant_weights;
      quota_steps;
      quota_rows;
      faults;
      replica_of;
      sync_replicas;
      sync_timeout_ms;
      max_staleness_ms }
  in
  (match replica_of with
   | Some addr -> (
     match Service.Protocol.endpoint_of_string addr with
     | Ok _ -> Printf.eprintf "replicating from %s\n%!" addr
     | Error msg ->
       prerr_endline ("serve: --replica-of: " ^ msg);
       exit 2)
   | None -> ());
  if not (Service.Faults.is_none cfg.Service.Server.faults) then
    Printf.eprintf "fault injection active: %s\n%!"
      (Service.Faults.to_string cfg.Service.Server.faults);
  let server = Service.Server.create cfg engine in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Service.Server.stop server));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Service.Server.stop server));
  (match Service.Server.endpoint server with
   | `Unix path -> Printf.eprintf "serving on unix:%s (ctrl-c to stop)\n%!" path
   | `Tcp (host, p) -> Printf.eprintf "serving on tcp:%s:%d (ctrl-c to stop)\n%!" host p);
  let tracing = trace_file <> None in
  if tracing then begin
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    Obs.Trace.start ()
  end;
  Service.Server.run server;
  if tracing then begin
    let trace = Obs.Trace.stop () in
    Obs.Metrics.set_enabled false;
    let doc = Obs.Json.Obj [ ("trace", trace); ("metrics", Obs.Metrics.dump ()) ] in
    (match Obs.Trace.validate doc with
     | Ok () -> ()
     | Error msg -> Printf.eprintf "internal: trace failed schema check: %s\n%!" msg);
    match trace_file with
    | Some path ->
      (match open_out path with
       | oc ->
         output_string oc (Obs.Json.pretty doc);
         output_char oc '\n';
         close_out oc;
         Printf.eprintf "trace written to %s\n%!" path
       | exception Sys_error msg -> Printf.eprintf "cannot write trace: %s\n%!" msg)
    | None -> ()
  end;
  prerr_endline "server stopped"

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:$(docv) (0 picks a free port, printed on stderr).")

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing invocations (default: the recommended domain count).")

let queue_arg =
  Arg.(value & opt int 64
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-control bound: invocations queued beyond the running ones before \
                 the server sheds load with an 'overloaded' error.")

let cache_arg =
  Arg.(value & opt int 128
       & info [ "cache" ] ~docv:"N"
           ~doc:"Result-cache capacity in entries (0 disables caching).")

let timeout_arg =
  Arg.(value & opt int 30_000
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline; clients may override per invocation. Doubles as \
                 the governor's default execution deadline, so a runaway query is cancelled at \
                 its next checkpoint and its worker reclaimed (0 disables). ")

let max_steps_arg =
  Arg.(value & opt int 0
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Governor step budget per execution: interpreter statements, BFS frontier \
                 states and scanned rows all count; exceeding it fails the invocation with \
                 'resource_limit' (0 = unlimited).")

let max_rows_arg =
  Arg.(value & opt int 0
       & info [ "max-rows" ] ~docv:"N"
           ~doc:"Governor row ceiling: a single binding table or BFS frontier larger than \
                 $(docv) fails the invocation with 'resource_limit' (0 = unlimited).")

let max_conns_arg =
  Arg.(value & opt int 64
       & info [ "max-connections" ] ~docv:"N" ~doc:"Concurrent client connection limit.")

let install_arg =
  Arg.(value & opt_all file []
       & info [ "install" ] ~docv:"FILE"
           ~doc:"GSQL file to install into the prepared-query catalog at startup (repeatable).")

let serve_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record service spans/metrics for the whole run and write them to $(docv) on \
                 shutdown (the registries are domain-safe, so the full worker pool stays on).")

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable mode: recover committed mutations from $(docv) on startup and \
                 write-ahead-log every commit (docs/DURABILITY.md). The --graph spec supplies \
                 the base graph until the first snapshot compaction.")

let compact_every_arg =
  Arg.(value & opt int 0
       & info [ "compact-every" ] ~docv:"N"
           ~doc:"With --data-dir: rewrite the snapshot and empty the WAL after every $(docv) \
                 commits (0 = never compact).")

let tenant_weights_arg =
  Arg.(value & opt string ""
       & info [ "tenant-weights" ] ~docv:"SPEC"
           ~doc:"Weighted fair admission: comma-separated name=weight pairs (e.g. \
                 'etl=3,dash=1'). A backlogged tenant is served $(i,weight) invocations per \
                 round of the deficit-round-robin scheduler; unlisted tenants weigh 1.")

let quota_steps_arg =
  Arg.(value & opt int 0
       & info [ "quota-steps" ] ~docv:"N"
           ~doc:"Per-tenant step quota: a token bucket refilled at $(docv) governor steps per \
                 second (burst = one second's worth). An exhausted tenant's executions are \
                 refused with 'resource_limit' and a machine-readable retry_after_ms until \
                 the bucket refills; cache hits keep flowing (0 = no quota).")

let quota_rows_arg =
  Arg.(value & opt int 0
       & info [ "quota-rows" ] ~docv:"N"
           ~doc:"Per-tenant row quota: a token bucket refilled at $(docv) result/frontier rows \
                 per second, enforced like --quota-steps (0 = no quota).")

let tenant_queue_arg =
  Arg.(value & opt int 0
       & info [ "tenant-queue" ] ~docv:"N"
           ~doc:"Per-tenant admission bound: each tenant queues at most $(docv) invocations, \
                 so a flooding tenant sheds its own backlog while others keep queuing \
                 (0 = the default of 16).")

let replica_of_arg =
  Arg.(value & opt (some string) None
       & info [ "replica-of" ] ~docv:"ADDR"
           ~doc:"Start as a read replica of the leader at $(docv) (unix:/path or \
                 tcp:host:port): subscribe to its committed-batch stream, apply it through \
                 the single-writer lane, answer mutating invokes with a 'not_leader' \
                 redirect. Promote with the client's 'promote' request on failover \
                 (docs/DURABILITY.md).")

let sync_replicas_arg =
  Arg.(value & opt int 0
       & info [ "sync-replicas" ] ~docv:"N"
           ~doc:"Synchronous replication: acknowledge a commit only after $(docv) follower \
                 acks. A quorum miss answers 'repl_lag' — the commit stands locally but is \
                 not confirmed replicated (0 = asynchronous).")

let sync_timeout_arg =
  Arg.(value & opt int 1_000
       & info [ "sync-timeout-ms" ] ~docv:"MS"
           ~doc:"With --sync-replicas: wait at most $(docv) for the ack quorum.")

let max_staleness_arg =
  Arg.(value & opt int 0
       & info [ "max-staleness-ms" ] ~docv:"MS"
           ~doc:"Follower read bound: refuse reads with 'stale' when the leader has not \
                 been heard from within $(docv) (0 = serve reads of any age).")

let serve_cmd =
  let doc = "Serve installed GSQL queries to concurrent clients (docs/SERVICE.md)." in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ graph_arg $ socket_arg $ port_arg $ workers_arg $ queue_arg $ cache_arg
      $ timeout_arg $ max_steps_arg $ max_rows_arg $ max_conns_arg $ semantics_arg
      $ install_arg $ serve_trace_arg $ data_dir_arg $ compact_every_arg
      $ tenant_weights_arg $ quota_steps_arg $ quota_rows_arg $ tenant_queue_arg
      $ replica_of_arg $ sync_replicas_arg $ sync_timeout_arg $ max_staleness_arg)

let cmd =
  let doc = "Execute GSQL queries over built-in graphs (paper reproduction CLI)." in
  Cmd.group ~default:run_term (Cmd.info "gsql_run" ~doc) [ serve_cmd ]

let () = exit (Cmd.eval cmd)
