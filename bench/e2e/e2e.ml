(* e2e — the repository's end-to-end serving benchmark (bench/e2e/README.md).

   For one workload: generate its SNB graph, write it as a Store.Persist
   snapshot, start the real `gsql_run serve` on it (several times, for
   set-up time), then drive it from this one thread over two Unix-socket
   connections — warm-up, an open loop at the workload's fixed rate, and a
   closed-loop saturation phase, with requests drawn from --seed — and
   check the answers.

   Usage:
     e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--server PATH]
     e2e --smoke [--server PATH] [--spec BENCHMARK.json]

   Run files go to .bench_run/e2e/<workload> under the current directory.

   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
   with --trace 1.  The line before it is the full report (every metric,
   within-run spreads, gate results, machine), ending in "claim": null.
   Exits non-zero when a correctness gate fails. *)

module P = Service.Protocol
module J = Obs.Json
module V = Pgraph.Value
module G = Pgraph.Graph
module W = Workload
module L = Load

let workload = ref ""
let seed = ref 42
let seconds = ref 25.0
let trace = ref false
let server = ref "_build/default/bin/gsql_run.exe"
let dir = ".bench_run/e2e"
let smoke = ref false
let spec = ref None

let usage () =
  prerr_endline
    "usage: e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--server PATH]\n\
    \       e2e --smoke [--server PATH] [--spec BENCHMARK.json]\n\
     workloads: ic-read, point-read, read-write, agg-report";
  exit 2

let () =
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as b) :: rest -> trace := b = "1"; parse rest
    | "--server" :: p :: rest -> server := p; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--spec" :: p :: rest -> spec := Some p; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not !smoke) && W.find !workload = None then usage ();
  if !seconds <= 0.0 then usage ()

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun n f -> n + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Correctness gates                                                   *)

type gate = {
  observe : L.record -> P.response -> unit;
  (* after the load, server still up: a blocking call and the last stats *)
  live : (P.request -> P.response) -> J.t -> string list;
  (* server stopped: its data dir *)
  final : data:string -> string list;
}

let result_of = function P.Result { rs_result; _ } -> Some rs_result | _ -> None

(* An uncached invocation, for gate calls after the load. *)
let invoke query params =
  P.Invoke
    { P.iv_query = query; iv_params = params; iv_timeout_ms = None; iv_no_cache = true;
      iv_tenant = None }

let installed_name src = (Gsql.Parser.parse_query src).Gsql.Ast.q_name

let ast_of_query =
  let tbl =
    List.map (fun (_, src) -> (installed_name src, Gsql.Parser.parse_query src)) W.all_sources
  in
  fun name -> List.assoc name tbl

let eval_result g query params =
  P.of_eval_result (Gsql.Eval.run_query g ~params (ast_of_query query))

(* Keeps the first [n] answers per query for checking after the load, so
   gate work never delays the clock-sensitive loop. *)
let sampler n =
  let samples = Hashtbl.create 8 in
  let observe (r : L.record) resp =
    match result_of resp with
    | Some res ->
      let q = r.L.req.W.query in
      let l = Option.value (Hashtbl.find_opt samples q) ~default:[] in
      if List.length l < n then Hashtbl.replace samples q (l @ [ (r.L.req, res) ])
    | None -> ()
  in
  (samples, observe)

let no_live _ _ = []

(* ic-read: sampled answers equal the interpreter on the same graph. *)
let ic_gate (snb : Ldbc.Snb.t) =
  let samples, observe = sampler 3 in
  let final ~data:_ =
    Hashtbl.fold
      (fun q l errs ->
        List.fold_left
          (fun errs ((req : W.req), res) ->
            if P.exec_result_equal res (eval_result snb.Ldbc.Snb.graph q req.W.params) then errs
            else Printf.sprintf "%s: served result differs from Gsql.Eval" q :: errs)
          errs l)
      samples []
  in
  { observe; live = no_live; final }

(* point-read: every answer for a key equals the key's first answer, and at
   least one cached answer was compared with an executed one. *)
let cache_gate () =
  let first = Hashtbl.create 512 in
  let errs = ref [] and crossed = ref 0 in
  let observe (r : L.record) resp =
    match result_of resp with
    | Some res when r.L.req.W.key >= 0 ->
      (match Hashtbl.find_opt first r.L.req.W.key with
       | None -> Hashtbl.replace first r.L.req.W.key (r.L.cached, res)
       | Some (cached0, res0) ->
         if cached0 <> r.L.cached then incr crossed;
         if not (P.exec_result_equal res0 res) then
           errs := Printf.sprintf "key %d: cached and executed answers differ" r.L.req.W.key :: !errs)
    | _ -> ()
  in
  let final ~data:_ =
    if !crossed = 0 then "no cached answer was compared with an executed one" :: !errs else !errs
  in
  { observe; live = no_live; final }

let knows_edges g =
  let knows = (Pgraph.Schema.edge_type_of_name (G.schema g) "KNOWS").Pgraph.Schema.et_id in
  let n = ref 0 in
  G.iter_edges g (fun e -> if G.edge_type_id g e = knows then incr n);
  !n

let knows_count = function
  | Some { P.x_return = Some (Gsql.Eval.R_scalar (V.Int n)); _ } -> n
  | _ -> -1

(* read-write: version and KNOWS edges = base + acknowledged writes, live
   and after recovering the stopped server's data dir. *)
let write_gate (snb : Ldbc.Snb.t) ~base_version =
  let g = snb.Ldbc.Snb.graph in
  let acked = ref 0 and live_knows = ref (-1) in
  let observe (r : L.record) _ =
    if r.L.req.W.kind = W.Write && r.L.outcome = L.Answered then incr acked
  in
  let base_bindings = lazy (knows_count (Some (eval_result g "KnowsCount" []))) in
  let live call stats =
    let errs = ref [] in
    let version = Option.bind (J.member "graph_version" stats) J.to_int_opt in
    if version <> Some (base_version + !acked) then
      errs :=
        Printf.sprintf "graph_version %s, expected %d + %d acknowledged writes"
          (Option.fold ~none:"missing" ~some:string_of_int version) base_version !acked
        :: !errs;
    live_knows := knows_count (result_of (call (invoke "KnowsCount" [])));
    let expected = Lazy.force base_bindings + (2 * !acked) in
    if !live_knows <> expected then
      errs := Printf.sprintf "KNOWS bindings %d, expected %d" !live_knows expected :: !errs;
    !errs
  in
  let final ~data =
    let p, rc = Store.Persist.open_dir data ~base:(fun () -> failwith "snapshot missing") in
    Store.Persist.close p;
    let rg = rc.Store.Persist.r_graph in
    List.filter_map Fun.id
      [ (if rc.Store.Persist.r_version = base_version + !acked then None
         else
           Some
             (Printf.sprintf "recovered version %d, expected %d" rc.Store.Persist.r_version
                (base_version + !acked)));
        (if knows_edges rg = knows_edges g + !acked then None
         else Some (Printf.sprintf "recovered %d KNOWS edges, expected %d" (knows_edges rg)
                      (knows_edges g + !acked)));
        (if knows_count (Some (eval_result rg "KnowsCount" [])) = !live_knows then None
         else Some "recovered graph disagrees with the live server's KnowsCount") ]
  in
  (acked, { observe; live; final })

(* agg-report: answers match Sqlagg GROUPING SETS over the same rows, and
   the two strategies agree with each other. *)
let agg_gate (snb : Ldbc.Snb.t) =
  let samples, observe = sampler 2 in
  let full = Hashtbl.create 2 in
  let queries = [ "MultiGroupAcc"; "MultiGroupGs" ] in
  let live call _ =
    List.iter
      (fun q ->
        Option.iter (Hashtbl.replace full q)
          (result_of (call (invoke q (W.multigroup_params ~full:true)))))
      queries;
    []
  in
  let final ~data:_ =
    let reference =
      W.sql_reference (W.agg_rows snb.Ldbc.Snb.graph ~year_lo:2010 ~year_hi:2012)
    in
    let sampled q = List.map snd (Option.value (Hashtbl.find_opt samples q) ~default:[]) in
    let full_of q = Option.to_list (Hashtbl.find_opt full q) in
    let check ~gs q =
      List.concat_map (W.check_multigroup ~gs reference) (sampled q @ full_of q)
    in
    let agree = function
      | a :: _, g :: _ -> W.check_acc_vs_gs a g
      | _ -> [ "missing an answer of each MultiGroup query to compare" ]
    in
    check ~gs:false "MultiGroupAcc" @ check ~gs:true "MultiGroupGs"
    @ agree (sampled "MultiGroupAcc", sampled "MultiGroupGs")
    @ agree (full_of "MultiGroupAcc", full_of "MultiGroupGs")
  in
  { observe; live; final }

(* ------------------------------------------------------------------ *)
(* One workload run                                                    *)

type run = {
  w : W.t;
  run_dir : string;
  res : L.result;
  plan : L.plan;
  setup_s : float list;
  generate_s : float;
  rss_mb : float;
  wal_growth : int;   (* data-dir bytes added by the load *)
  acked_writes : int;
  errors : string list;
  layers : (string * float * string) list;
}

(* Phase lengths as shares of --seconds, the 3 / 20 / 8 s shape of a 31 s
   run: 10% warm-up, 65% open loop, 25% saturation. *)
let plan_of (w : W.t) seconds =
  { L.rate = w.W.rate; warm_s = 0.10 *. seconds; open_s = 0.65 *. seconds;
    sat_s = 0.25 *. seconds; window = 4 }

let run_workload (w : W.t) ~seed ~seconds ~trace ~spawns =
  let run_dir = Filename.concat dir w.W.name in
  rm_rf run_dir;
  mkdir_p run_dir;
  let data = Filename.concat run_dir "data" in
  let sock = Filename.concat run_dir "s.sock" in
  let log = Filename.concat run_dir "server.log" in
  (* Inputs: graph, snapshot, query files.  The graph seed is fixed: at
     300-1200 persons with zipf hubs, which first name a hub draws moves
     point-read throughput by a quarter from one graph seed to the next, a
     difference in the inputs and not in the code.  [seed] drives the
     request parameters, the arrival mix and the write stream. *)
  let t0 = Unix.gettimeofday () in
  let snb = Ldbc.Snb.generate ~seed:W.graph_seed ~sf:w.W.sf () in
  let generate_s = Unix.gettimeofday () -. t0 in
  let base_version = 1 in
  let p, _ = Store.Persist.open_dir data ~base:(fun () -> snb.Ldbc.Snb.graph) in
  Store.Persist.compact p snb.Ldbc.Snb.graph ~version:base_version;
  Store.Persist.close p;
  let installs =
    List.map
      (fun (name, src) ->
        let path = Filename.concat run_dir (name ^ ".gsql") in
        write_file path src;
        path)
      w.W.sources
  in
  (* Set-up: spawn -> first ping, [spawns] times; the last server stays. *)
  let rec setup k acc =
    let spawn_t = Unix.gettimeofday () in
    let srv = L.spawn ~exe:!server ~sock ~data ~installs ~log in
    let s = L.wait_ready srv ~sock ~spawn_t in
    if k = spawns then (srv, List.rev (s :: acc))
    else begin
      L.stop srv ~sock;
      setup (k + 1) (s :: acc)
    end
  in
  let srv, setup_s = setup 1 [] in
  let data_before = dir_bytes data in
  let acked, gate =
    match w.W.name with
    | "ic-read" -> (ref 0, ic_gate snb)
    | "point-read" -> (ref 0, cache_gate ())
    | "read-write" -> write_gate snb ~base_version
    | _ -> (ref 0, agg_gate snb)
  in
  let rng = Pgraph.Prng.create (seed + 1) in
  let plan = plan_of w seconds in
  let res, live_errs =
    L.run ~sock ~plan ~next:(W.stream w snb rng) ~trace ~on_response:gate.observe
      ~after:(fun call stats -> gate.live call stats)
  in
  let rss_mb = L.vm_hwm_mb srv.L.pid in
  L.stop srv ~sock;
  let wal_growth = dir_bytes data - data_before in
  let final_errs = gate.final ~data in
  let layers =
    if trace then
      Layers.measure ~snb ~w ~snapshot:(Filename.concat data "snapshot.json") ~dir:run_dir
        ~requests:(W.stream w snb (Pgraph.Prng.create (seed + 1)))
    else []
  in
  { w; run_dir; res; plan; setup_s; generate_s; rss_mb; wal_growth; acked_writes = !acked;
    errors = live_errs @ final_errs; layers }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let answered (r : L.record) = r.L.outcome = L.Answered
let measured (r : L.record) = r.L.phase <> L.Warm

let open_reads run =
  List.filter
    (fun r -> r.L.phase = L.Open && r.L.req.W.kind = W.Read && answered r)
    run.res.L.records

let open_writes run =
  List.filter
    (fun r -> r.L.phase = L.Open && r.L.req.W.kind = W.Write && answered r)
    run.res.L.records

let pct xs p = Stats.percentile (Stats.sorted xs) p

(* Quarter-window values of [f] over records bucketed by [time]. *)
let quarters ~t_lo ~t_hi ~time f rs =
  let span = (t_hi -. t_lo) /. 4.0 in
  List.init 4 (fun q ->
      let lo = t_lo +. (float_of_int q *. span) in
      f (List.filter (fun r -> time r >= lo && time r < lo +. span) rs))

let saturation_ok run =
  List.filter
    (fun r -> r.L.phase = L.Sat && answered r && r.L.done_t <= run.res.L.t_end)
    run.res.L.records

(* Answers per second of saturation, over the measured span from the
   phase start to the last answer counted. *)
let throughput run =
  let ok = saturation_ok run in
  let last = List.fold_left (fun t r -> Float.max t r.L.done_t) run.res.L.t_sat ok in
  if ok = [] then 0.0 else float_of_int (List.length ok) /. (last -. run.res.L.t_sat)

let attempted run = List.length (List.filter measured run.res.L.records)
let failed run = List.length (List.filter (fun r -> measured r && not (answered r)) run.res.L.records)

(* Failed measured requests by error code (the text before the first ':'). *)
let failures run =
  List.fold_left
    (fun acc (r : L.record) ->
      match r.L.outcome with
      | L.Failed msg when measured r ->
        let code = List.hd (String.split_on_char ':' msg) in
        (code, 1 + Option.value (List.assoc_opt code acc) ~default:0) :: List.remove_assoc code acc
      | _ -> acc)
    [] run.res.L.records

let stat run path =
  let rec go j = function
    | [] -> Option.bind (J.to_int_opt j) (fun n -> Some (float_of_int n))
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  match (go run.res.L.stats_after path, go run.res.L.stats_before path) with
  | Some a, Some b -> a -. b
  | _ -> Float.nan

(* End-to-end metrics: (name, value, unit, within-run spread).  Latency is
   the mean, not a percentile: the server answers on a 20 ms select tick
   counted from the request's arrival, so at agg-report's rate every
   latency sits on a 20 ms lattice (42, 62, 83, 104 ms ...) and any
   percentile jumps a whole step when execution speed drifts a few percent
   across a lattice point.  The mean moves smoothly. *)
let end_to_end run =
  let mean_ms rs = Stats.mean (List.map L.latency_ms rs) in
  let quarter_means =
    quarters ~t_lo:run.res.L.t_open ~t_hi:run.res.L.t_sat ~time:(fun (r : L.record) -> r.L.sched)
      mean_ms (open_reads run)
  in
  [ ("setup_s", Stats.median run.setup_s, "s", Stats.range_frac run.setup_s);
    ("read_mean_ms", mean_ms (open_reads run), "ms", Stats.range_frac quarter_means);
    ("server_rss_peak_mb", run.rss_mb, "MB", 0.0) ]

(* Open-loop read percentiles and saturation throughput: reported in every
   run and, unbounded, among the per-layer metrics of a traced run.  They
   vary too much from run to run on a shared 2-vCPU machine to bound (the
   percentiles by the tick lattice above, throughput by about 10% in
   execution speed between runs). *)
let load_metrics run =
  let lat = List.map L.latency_ms (open_reads run) in
  [ ("read_p50_ms", pct lat 0.5, "ms"); ("read_p90_ms", pct lat 0.9, "ms");
    ("read_p99_ms", pct lat 0.99, "ms"); ("throughput_rps", throughput run, "1/s") ]

(* The read-write write path and the sample counts behind the percentiles
   (p99 has fewer than ten samples beyond it below 1000 reads). *)
let extras run =
  let writes = List.map L.latency_ms (open_writes run) in
  let write_metrics =
    if run.w.W.name <> "read-write" then []
    else
      [ ("write_p50_ms", pct writes 0.5, "ms"); ("write_p95_ms", pct writes 0.95, "ms");
        ( "disk_bytes_per_write",
          float_of_int run.wal_growth /. float_of_int (max 1 run.acked_writes),
          "bytes" ) ]
  in
  [ ("open_read_samples", float_of_int (List.length (open_reads run)), "count");
    ("open_write_samples", float_of_int (List.length writes), "count") ]
  @ write_metrics

(* How late the open-loop generator sent, at the 99th percentile.  A run
   whose generator lags by more than one inter-arrival gap did not offer
   the workload's rate, and its report says it is not valid. *)
let lag_p99_ms run =
  List.filter (fun r -> r.L.phase <> L.Sat) run.res.L.records
  |> List.map (fun r -> (r.L.sent -. r.L.sched) *. 1000.0)
  |> fun lags -> pct lags 0.99

let valid run = lag_p99_ms run <= 1000.0 /. run.plan.L.rate

(* Per-layer metrics derived from the traced load itself. *)
let traced_layers run =
  let recs = run.res.L.records in
  let traced = List.filter (fun r -> r.L.traced && answered r) recs in
  let us f = List.map (fun r -> f r *. 1e6) traced in
  let reads_open = open_reads run in
  let traced_reads = List.filter (fun r -> r.L.traced) reads_open in
  let residual r = L.latency_ms r -. r.L.rs_ms -. L.codec_ms r in
  let executed = List.filter (fun r -> answered r && (not r.L.cached) && measured r) recs in
  let lookups = stat run [ "cache"; "hits" ] +. stat run [ "cache"; "misses" ] in
  let p50_of rs = pct (List.map L.latency_ms rs) 0.5 in
  let untraced_reads = List.filter (fun r -> not r.L.traced) reads_open in
  let meas = List.filter measured recs in
  [ ("protocol.encode_us", Stats.median (us (fun r -> r.L.encode_s)), "us");
    ("protocol.decode_us", Stats.median (us (fun r -> r.L.decode_s)), "us");
    ( "protocol.resp_bytes",
      Stats.median (List.map (fun r -> float_of_int r.L.resp_bytes) (List.filter answered recs)),
      "bytes" );
    ("server.residual_p50_ms", pct (List.map residual traced_reads) 0.5, "ms");
    ("server.residual_p99_ms", pct (List.map residual traced_reads) 0.99, "ms");
    ("server.shed", stat run [ "overloaded" ] +. stat run [ "inflight_shed" ], "count");
    ("cache.hit_ratio", (if lookups > 0.0 then stat run [ "cache"; "hits" ] /. lookups else 0.0), "ratio");
    ("cache.lookups", lookups, "count");
    ("cache.evictions", stat run [ "cache"; "evictions" ], "count");
    ("cache.invalidations", stat run [ "cache"; "invalidations" ], "count");
    ("engine.exec_p50_ms", pct (List.map (fun r -> r.L.rs_ms) executed) 0.5, "ms");
    ("engine.exec_p99_ms", pct (List.map (fun r -> r.L.rs_ms) executed) 0.99, "ms");
    ("csr.builds", stat run [ "csr"; "builds" ], "count");
    ("csr.hits", stat run [ "csr"; "hits" ], "count");
    ("gen.lag_p99_ms", lag_p99_ms run, "ms");
    ("trace.overhead_frac", (p50_of traced_reads /. p50_of untraced_reads) -. 1.0, "frac");
    ("snb.generate_s", run.generate_s, "s");
    ( "failed_frac",
      float_of_int (List.length (List.filter (fun r -> not (answered r)) meas))
      /. float_of_int (max 1 (List.length meas)),
      "frac" ) ]

(* Client latency = client codec + rs_ms + residual, as means over [rs]. *)
let split rs =
  let m f = Stats.mean (List.map f rs) in
  let codec = m L.codec_ms and exec = m (fun r -> r.L.rs_ms) and total = m L.latency_ms in
  Printf.sprintf "client codec %.4f ms + rs_ms %.4f ms + residual %.4f ms = %.4f ms (%d reads)"
    codec exec (total -. codec -. exec) total (List.length rs)

(* The split of the client mean over every traced open-loop read, and of
   the client p50 over those whose latency lies between p40 and p60. *)
let print_splits run =
  let rs = List.filter (fun r -> r.L.traced) (open_reads run) in
  let lat = List.map L.latency_ms rs in
  let lo = pct lat 0.4 and hi = pct lat 0.6 in
  let band = List.filter (fun r -> let l = L.latency_ms r in l >= lo && l <= hi) rs in
  Printf.printf "\n== %s split of client latency ==\n  mean:            %s\n  p50 (%8.3f ms): %s\n"
    run.w.W.name (split rs) (pct lat 0.5) (split band)

(* The traced open-loop requests as Obs.Trace spans, one tree per request:
   the client's view (due time to decoded answer) over the generator's lag,
   the client encode, the server (bytes out to bytes back) and the client
   decode.  The server span's child is the execution the server reports
   (rs_ms), so the server span's self time is the residual. *)
let trace_doc run =
  let span name ms ?(attrs = []) children =
    { Obs.Trace.sp_name = name; sp_attrs = List.rev attrs; sp_elapsed_ms = ms;
      sp_children = List.rev children }
  in
  let request (r : L.record) =
    let ms t = t *. 1000.0 in
    span "client/request" (L.latency_ms r)
      ~attrs:
        [ ("query", J.Str r.L.req.W.query); ("conn", J.Int r.L.conn);
          ("due_ms", J.Float (ms (r.L.sched -. run.res.L.t_open))); ("cached", J.Bool r.L.cached) ]
      [ span "client/lag" (ms (r.L.sent -. r.L.sched -. r.L.encode_s)) [];
        span "protocol/encode" (ms r.L.encode_s) [];
        span "server" (ms (r.L.done_t -. r.L.decode_s -. r.L.sent))
          [ span "engine/exec" r.L.rs_ms [] ];
        span "protocol/decode" (ms r.L.decode_s) [] ]
  in
  let traced = List.filter (fun r -> r.L.traced && answered r && r.L.phase = L.Open) run.res.L.records in
  J.Obj
    [ ("spans", J.List (List.map (fun r -> Obs.Trace.span_to_json (request r)) traced));
      ("dropped_spans", J.Int 0) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let git_rev () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))) ~default:"unknown"
  | Some rev -> rev
  | None -> Option.value (Sys.getenv_opt "GIT_REV") ~default:"unknown"

let metric_json l =
  J.Obj (List.map (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])) l)

let print_table title rows =
  Printf.printf "\n== %s ==\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) rows

let report run ~seed ~trace =
  let e2e = end_to_end run in
  let e2e3 = List.map (fun (n, v, u, _) -> (n, v, u)) e2e in
  let extra = load_metrics run @ extras run in
  let per_layer = if trace then load_metrics run @ traced_layers run @ run.layers else [] in
  print_table (run.w.W.name ^ " end to end") (e2e3 @ extra);
  if trace then begin
    let doc = trace_doc run in
    (match Obs.Trace.validate doc with
     | Ok () -> write_file (Filename.concat run.run_dir "trace.json") (J.to_string doc)
     | Error msg -> failwith ("trace: " ^ msg));
    print_table (run.w.W.name ^ " per layer") per_layer;
    print_splits run
  end;
  if not (valid run) then
    Printf.eprintf "e2e: %s: generator lag p99 %.3f ms exceeds the %.3f ms inter-arrival gap; the run is not valid\n%!"
      run.w.W.name (lag_p99_ms run) (1000.0 /. run.plan.L.rate);
  List.iter (fun e -> Printf.printf "GATE FAIL %s: %s\n" run.w.W.name e) run.errors;
  let env =
    J.Obj
      [ ("nproc", J.Int (Domain.recommended_domain_count ())); ("ocaml", J.Str Sys.ocaml_version);
        ("git_rev", J.Str (git_rev ())); ("seed", J.Int seed); ("runs", J.Int 1);
        ("spread", J.Obj (List.map (fun (n, _, _, s) -> (n, J.Float s)) e2e)) ]
  in
  let plan = run.plan in
  let summary =
    J.Obj
      [ ("workload", J.Str run.w.W.name);
        ( "load",
          J.Obj
            [ ("rate_per_s", J.Float plan.L.rate); ("warm_s", J.Float plan.L.warm_s);
              ("open_s", J.Float plan.L.open_s); ("saturation_s", J.Float plan.L.sat_s);
              ("window_per_conn", J.Int plan.L.window); ("connections", J.Int 2) ] );
        ("setup_s_each", J.List (List.map (fun s -> J.Float s) run.setup_s));
        ("valid", J.Bool (valid run)); ("end_to_end", metric_json e2e3); ("extra", metric_json extra);
        ("per_layer", metric_json per_layer);
        ("failures", J.Obj (List.map (fun (code, n) -> (code, J.Int n)) (failures run)));
        ("gates", J.Obj [ ("passed", J.Bool (run.errors = [])); ("errors", J.List (List.map (fun e -> J.Str e) run.errors)) ]);
        ("env", env); ("claim", J.Null) ]
  in
  print_endline (J.to_string summary);
  let final =
    J.Obj
      [ ("correct", J.Bool (run.errors = [])); ("attempted", J.Int (attempted run));
        ("failed", J.Int (failed run)); ("metrics", metric_json (if trace then per_layer else e2e3)) ]
  in
  print_endline (J.to_string final);
  (e2e3, per_layer)

(* The names BENCHMARK.json lists under [section]. *)
let spec_names path section =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match J.parse text with
  | Error msg -> failwith ("spec: " ^ msg)
  | Ok j ->
    Option.value ~default:[] (Option.bind (J.member section j) J.to_list_opt)
    |> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_str_opt)

let () =
  try
    if !smoke then begin
      (* Every workload for about a second on a tiny graph, traced, with
         all gates — and the printed metric names must match the spec. *)
      let bad = ref 0 in
      List.iter
        (fun (w : W.t) ->
          let run = run_workload { w with W.sf = 0.1 } ~seed:42 ~seconds:1.0 ~trace:true ~spawns:1 in
          let e2e, layers = report run ~seed:42 ~trace:true in
          let names l = List.sort compare (List.map (fun (n, _, _) -> n) l) in
          (match !spec with
           | Some path ->
             if names e2e <> List.sort compare (spec_names path "end_to_end")
                || names layers <> List.sort compare (spec_names path "per_layer")
             then begin
               incr bad;
               Printf.eprintf "e2e smoke: %s metric names differ from %s\n%!" w.W.name path
             end
           | None -> ());
          if run.errors <> [] || failed run > 0 then begin
            incr bad;
            Printf.eprintf "e2e smoke: %s failed (%d gate errors, %d failed requests)\n%!"
              w.W.name (List.length run.errors) (failed run)
          end)
        W.all;
      if !bad > 0 then exit 1;
      prerr_endline "e2e smoke: ok"
    end
    else begin
      let w = Option.get (W.find !workload) in
      let run = run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace ~spawns:5 in
      ignore (report run ~seed:!seed ~trace:!trace);
      if run.errors <> [] then exit 1
    end
  with e ->
    Printf.eprintf "e2e: %s\n%!" (Printexc.to_string e);
    L.kill_all ();
    exit 1
