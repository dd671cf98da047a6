(* Load driver for the installed-query service (docs/SERVICE.md).

   By default it self-hosts: spawns a server domain on a throwaway
   Unix-domain socket over the diamond-chain graph, installs a CountPaths
   query, then fans out client domains.  Point it at a live server instead
   with --connect (Unix socket path) or --tcp host:port — in that case the
   target must already have CountPaths installed (e.g. started with
   `gsql_run serve --graph diamond:12 --install ...`).

   Phases per self-hosted run:
     executed        — every request sets no_cache, so each one runs the
                       installed compiled plan on a worker domain (service
                       overhead + real execution under concurrency);
     executed-interp — same, with the engine toggled to the Gsql.Eval
                       tree-walker (Engine.set_interp): the
                       interpreter-vs-compiled ablation under service
                       concurrency (docs/COMPILER.md);
     cached          — same invocation without no_cache: after the first
                       miss the whole phase is result-cache hits (pure
                       service overhead).
   Against a remote server (--connect/--tcp) the ablation phase is
   skipped — the engine toggle is not a protocol operation.

   Reports throughput and p50/p95/p99 client-side latency per phase, plus
   the server's own cache counters and the governor line (cancellations /
   reclaimed / workers_leaked — CI greps it under fault injection).
   Knobs: --clients N (default 4), --requests N per client per phase
   (default 50), --workers N (self-host only), --timeout-ms MS per
   invocation (timed-out requests are counted, not fatal), --retries N
   (client-side retry on overloaded/transport errors).  BENCH_JSON=<dir>
   writes a BENCH_gsql_client.json sidecar in the same spirit as
   bench/main.ml's suites. *)

module V = Pgraph.Value
module P = Service.Protocol
module J = Obs.Json

let query_src = {|
CREATE QUERY CountPaths (string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM  V:s -(E>*)- V:t
      WHERE s.name = srcName AND t.name = tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
|}

let diamond_n = 12

let params =
  [ ("srcName", V.Str "v0"); ("tgtName", V.Str ("v" ^ string_of_int diamond_n)) ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type target = Self_host | Connect of Service.Server.endpoint

let usage () =
  prerr_endline
    "usage: gsql_client [--connect SOCKET | --tcp HOST:PORT] [--clients N] \
     [--requests N] [--workers N] [--timeout-ms MS] [--retries N] \
     [--tenant NAME] [--tenants NAME:CLIENTS:WINDOW,...] \
     [--invoke QUERY [--param k=v]...] [--status]";
  exit 2

let target = ref Self_host
let clients = ref 4
let requests = ref 50
let workers = ref None
let timeout_ms = ref None
let retries = ref 0

(* --status: one status round-trip instead of a load run — prints the
   node's replication role line (CI's failover-smoke job greps it). *)
let status_only = ref false

(* --tenant stamps every invocation of the normal phases with one tenant
   identity; --tenants switches to the fairness mode: a comma-separated
   load mix of tenant groups, each NAME:CLIENTS:WINDOW — CLIENTS pipelined
   connections keeping WINDOW invocations in flight, all groups running
   concurrently against the same server.  Naming a group "flood" makes the
   tenant-flood fault knob (GSQL_FAULTS) hit exactly that group's
   executions, which is how CI builds a hostile-heavy + polite-light mix. *)
let tenant = ref None
let tenants_spec : (string * int * int) list ref = ref []

(* --invoke switches the driver from the two CountPaths phases to a single
   phase against an arbitrary installed query (CI drives mutating queries
   on a --data-dir server this way, then checks commits across a crash). *)
let invoke_query = ref None
let invoke_params : (string * V.t) list ref = ref []

let parse_typed_param s =
  match String.index_opt s '=' with
  | None -> usage ()
  | Some i ->
    let name = String.sub s 0 i in
    let raw = String.sub s (i + 1) (String.length s - i - 1) in
    let value =
      match int_of_string_opt raw with
      | Some n -> V.Int n
      | None ->
        (match float_of_string_opt raw with
         | Some f -> V.Float f
         | None ->
           (match raw with
            | "true" -> V.Bool true
            | "false" -> V.Bool false
            | _ -> V.Str raw))
    in
    (name, value)

let () =
  let rec parse = function
    | [] -> ()
    | "--connect" :: path :: rest ->
      target := Connect (`Unix path);
      parse rest
    | "--tcp" :: hp :: rest ->
      (match String.index_opt hp ':' with
       | Some i ->
         let host = String.sub hp 0 i in
         let port = int_of_string (String.sub hp (i + 1) (String.length hp - i - 1)) in
         target := Connect (`Tcp (host, port))
       | None -> usage ());
      parse rest
    | "--clients" :: n :: rest ->
      clients := int_of_string n;
      parse rest
    | "--requests" :: n :: rest ->
      requests := int_of_string n;
      parse rest
    | "--workers" :: n :: rest ->
      workers := Some (int_of_string n);
      parse rest
    | "--timeout-ms" :: n :: rest ->
      timeout_ms := Some (int_of_string n);
      parse rest
    | "--retries" :: n :: rest ->
      retries := int_of_string n;
      parse rest
    | "--status" :: rest ->
      status_only := true;
      parse rest
    | "--tenant" :: name :: rest ->
      tenant := Some name;
      parse rest
    | "--tenants" :: spec :: rest ->
      tenants_spec :=
        List.map
          (fun part ->
            match String.split_on_char ':' part with
            | [ name; c; w ] when name <> "" -> (name, int_of_string c, int_of_string w)
            | [ name; c ] when name <> "" -> (name, int_of_string c, 1)
            | _ -> usage ())
          (String.split_on_char ',' spec);
      parse rest
    | "--invoke" :: name :: rest ->
      invoke_query := Some name;
      parse rest
    | "--param" :: kv :: rest ->
      invoke_params := !invoke_params @ [ parse_typed_param kv ];
      parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !clients < 1 || !requests < 1 then usage ();
  List.iter (fun (_, c, w) -> if c < 1 || w < 1 then usage ()) !tenants_spec

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

type phase_stats = {
  ph_name : string;
  ph_total : int;
  ph_wall_s : float;
  ph_p50 : float;
  ph_p95 : float;
  ph_p99 : float;
  ph_cached : int;  (** responses that came back with [cached] set *)
  ph_timeouts : int;  (** timeout / resource_limit errors (governor fired) *)
  ph_errors : int;  (** any other protocol error *)
}

let throughput st = float_of_int st.ph_total /. st.ph_wall_s

(* One phase: [clients] domains, each opening its own connection and firing
   [requests] synchronous invocations.  Client-side latency per request.
   Errors are outcomes, not failures: under induced deadlines (--timeout-ms
   plus GSQL_FAULTS delays) a run is *supposed* to collect timeouts. *)
let run_phase ep ~name ~no_cache ~query ~params =
  let worker () =
    let c = Service.Client.connect ?recv_timeout_ms:None ep in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        let lat = Array.make !requests 0.0 in
        let cached = ref 0 and timeouts = ref 0 and errors = ref 0 in
        for i = 0 to !requests - 1 do
          let t0 = Unix.gettimeofday () in
          (match
             Service.Client.invoke c ?timeout_ms:!timeout_ms ?tenant:!tenant
               ~retries:!retries ~no_cache ~query ~params ()
           with
           | P.Result { rs_cached = true; _ } -> incr cached
           | P.Result _ -> ()
           | P.Error ((P.Timeout | P.Resource_limit), _, _) -> incr timeouts
           | P.Error (code, msg, _) ->
             incr errors;
             Printf.eprintf "request failed: %s: %s\n%!" (P.err_code_to_string code) msg
           | _ ->
             prerr_endline "unexpected response";
             exit 1);
          lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.0
        done;
        (lat, !cached, !timeouts, !errors))
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init !clients (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  let wall = Unix.gettimeofday () -. t0 in
  let lats = Array.concat (List.map (fun (l, _, _, _) -> l) results) in
  Array.sort compare lats;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  { ph_name = name;
    ph_total = Array.length lats;
    ph_wall_s = wall;
    ph_p50 = percentile lats 50.0;
    ph_p95 = percentile lats 95.0;
    ph_p99 = percentile lats 99.0;
    ph_cached = sum (fun (_, c, _, _) -> c);
    ph_timeouts = sum (fun (_, _, t, _) -> t);
    ph_errors = sum (fun (_, _, _, e) -> e) }

(* ------------------------------------------------------------------ *)
(* Fairness mode (--tenants)                                           *)

type tenant_stats = {
  tn_name : string;
  tn_clients : int;
  tn_window : int;
  tn_ok : int;        (** successful results (latency sample set) *)
  tn_shed : int;      (** [overloaded] — global, per-tenant or inflight shed *)
  tn_quota : int;     (** [resource_limit] — quota denials / budget blows *)
  tn_timeouts : int;
  tn_errors : int;
  tn_wall_s : float;
  tn_p50 : float;
  tn_p95 : float;
  tn_p99 : float;
}

(* One pipelined connection: keep [window] invocations in flight via
   send/recv, correlate latency per id.  Percentiles are computed over
   successes only — a shed answer comes back in microseconds and would
   otherwise flatter the flooding tenant's latency. *)
let fairness_worker ep ~tenant ~window () =
  let c = Service.Client.connect ep in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      let n = !requests in
      let inflight = Hashtbl.create (2 * window) in
      let lats = ref [] in
      let ok = ref 0 and shed = ref 0 and quota = ref 0 in
      let timeouts = ref 0 and errors = ref 0 in
      let sent = ref 0 and recvd = ref 0 in
      let req =
        P.Invoke
          { P.iv_query = "CountPaths"; iv_params = params; iv_timeout_ms = !timeout_ms;
            iv_no_cache = true; iv_tenant = Some tenant }
      in
      while !recvd < n do
        while !sent < n && !sent - !recvd < window do
          let id = Service.Client.send c req in
          Hashtbl.replace inflight id (Unix.gettimeofday ());
          incr sent
        done;
        let id, resp = Service.Client.recv c in
        incr recvd;
        match Hashtbl.find_opt inflight id with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove inflight id;
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          (match resp with
           | P.Result _ ->
             incr ok;
             lats := ms :: !lats
           | P.Error (P.Overloaded, _, _) -> incr shed
           | P.Error (P.Resource_limit, _, _) -> incr quota
           | P.Error (P.Timeout, _, _) -> incr timeouts
           | _ -> incr errors)
      done;
      (!lats, !ok, !shed, !quota, !timeouts, !errors))

(* Every group's domains are spawned before any join, so the mix runs
   concurrently: the flooding group is live while the light one measures. *)
let run_fairness ep =
  let t0 = Unix.gettimeofday () in
  let spawned =
    List.map
      (fun (name, nclients, window) ->
        ( name, nclients, window,
          List.init nclients (fun _ ->
              Domain.spawn (fairness_worker ep ~tenant:name ~window)) ))
      !tenants_spec
  in
  let stats =
    List.map
      (fun (name, nclients, window, doms) ->
        let rs = List.map Domain.join doms in
        let lats = Array.of_list (List.concat_map (fun (l, _, _, _, _, _) -> l) rs) in
        Array.sort compare lats;
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
        { tn_name = name; tn_clients = nclients; tn_window = window;
          tn_ok = sum (fun (_, o, _, _, _, _) -> o);
          tn_shed = sum (fun (_, _, s, _, _, _) -> s);
          tn_quota = sum (fun (_, _, _, q, _, _) -> q);
          tn_timeouts = sum (fun (_, _, _, _, t, _) -> t);
          tn_errors = sum (fun (_, _, _, _, _, e) -> e);
          tn_wall_s = 0.0;
          tn_p50 = percentile lats 50.0;
          tn_p95 = percentile lats 95.0;
          tn_p99 = percentile lats 99.0 })
      spawned
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.map (fun st -> { st with tn_wall_s = wall }) stats

(* The greppable contract for CI's fairness-smoke job. *)
let print_fairness stats =
  Printf.printf "gsql_client fairness: %d requests/client, groups: %s\n" !requests
    (String.concat ","
       (List.map (fun (n, c, w) -> Printf.sprintf "%s:%d:%d" n c w) !tenants_spec));
  List.iter
    (fun st ->
      Printf.printf
        "fairness tenant %s: clients: %d window: %d ok: %d shed: %d quota_denials: %d \
         timeouts: %d errors: %d p50: %.3f p95: %.3f p99: %.3f\n"
        st.tn_name st.tn_clients st.tn_window st.tn_ok st.tn_shed st.tn_quota
        st.tn_timeouts st.tn_errors st.tn_p50 st.tn_p95 st.tn_p99)
    stats

let fairness_json st =
  J.Obj
    [ ("tenant", J.Str st.tn_name);
      ("clients", J.Int st.tn_clients);
      ("window", J.Int st.tn_window);
      ("ok", J.Int st.tn_ok);
      ("shed", J.Int st.tn_shed);
      ("quota_denials", J.Int st.tn_quota);
      ("timeouts", J.Int st.tn_timeouts);
      ("errors", J.Int st.tn_errors);
      ("wall_s", J.Float st.tn_wall_s);
      ("p50_ms", J.Float st.tn_p50);
      ("p95_ms", J.Float st.tn_p95);
      ("p99_ms", J.Float st.tn_p99) ]

let write_fairness_sidecar stats server_stats =
  match Sys.getenv_opt "BENCH_JSON" with
  | None -> ()
  | Some dir ->
    let doc =
      J.Obj
        [ ("suite", J.Str "gsql_client_fairness");
          ("requests_per_client", J.Int !requests);
          ("timeout_ms", (match !timeout_ms with Some t -> J.Int t | None -> J.Null));
          ("tenants", J.List (List.map fairness_json stats));
          ("server", server_stats) ]
    in
    let path = Filename.concat dir "BENCH_fairness.json" in
    let oc = open_out path in
    output_string oc (J.pretty doc);
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "[sidecar] %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let print_table stats =
  let headers =
    [ "phase"; "requests"; "req/s"; "p50 ms"; "p95 ms"; "p99 ms"; "cached"; "timeouts";
      "errors" ]
  in
  let rows =
    List.map
      (fun st ->
        [ st.ph_name;
          string_of_int st.ph_total;
          Printf.sprintf "%.0f" (throughput st);
          Printf.sprintf "%.3f" st.ph_p50;
          Printf.sprintf "%.3f" st.ph_p95;
          Printf.sprintf "%.3f" st.ph_p99;
          string_of_int st.ph_cached;
          string_of_int st.ph_timeouts;
          string_of_int st.ph_errors ])
      stats
  in
  let all = headers :: rows in
  let widths =
    List.mapi
      (fun i _ -> List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all)
      headers
  in
  let render row =
    String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%*s" w cell) widths row)
  in
  Printf.printf "gsql_client: %d clients x %d requests/phase\n" !clients !requests;
  print_endline (render headers);
  print_endline (String.make (String.length (render headers)) '-');
  List.iter (fun row -> print_endline (render row)) rows

let phase_json st =
  J.Obj
    [ ("phase", J.Str st.ph_name);
      ("requests", J.Int st.ph_total);
      ("wall_s", J.Float st.ph_wall_s);
      ("throughput_rps", J.Float (throughput st));
      ("p50_ms", J.Float st.ph_p50);
      ("p95_ms", J.Float st.ph_p95);
      ("p99_ms", J.Float st.ph_p99);
      ("cached", J.Int st.ph_cached);
      ("timeouts", J.Int st.ph_timeouts);
      ("errors", J.Int st.ph_errors) ]

let write_sidecar stats server_stats =
  match Sys.getenv_opt "BENCH_JSON" with
  | None -> ()
  | Some dir ->
    let doc =
      J.Obj
        [ ("suite", J.Str "gsql_client");
          ("clients", J.Int !clients);
          ("requests_per_client", J.Int !requests);
          ("timeout_ms", (match !timeout_ms with Some t -> J.Int t | None -> J.Null));
          ("retries", J.Int !retries);
          ("phases", J.List (List.map phase_json stats));
          ("server", server_stats) ]
    in
    let path = Filename.concat dir "BENCH_gsql_client.json" in
    let oc = open_out path in
    output_string oc (J.pretty doc);
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "[sidecar] %s\n%!" path

(* ------------------------------------------------------------------ *)

let stats_int fields k =
  match List.assoc_opt k fields with Some (J.Int n) -> Some n | _ -> None

(* Fetch the server stats, waiting (bounded) for every cancelled worker to
   be reclaimed so the governor line is deterministic: right after a
   timeout a worker may still be unwinding to its next checkpoint. *)
let fetch_server_stats ep =
  let fetch () =
    let c = Service.Client.connect ep in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () -> match Service.Client.stats c with P.Stats_snapshot j -> j | _ -> J.Null)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let j = fetch () in
    let leaked =
      match j with J.Obj fields -> stats_int fields "workers_leaked" | _ -> None
    in
    match leaked with
    | Some n when n > 0 && Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      settle ()
    | _ -> j
  in
  settle ()

(* The greppable contract for CI's failover-smoke job.  A transport
   failure (refused connection, reset, closed mid-call) is a failed
   status check, not a crash. *)
let print_status ep =
  let fail msg =
    Printf.eprintf "status failed: %s\n" msg;
    exit 1
  in
  let c =
    try Service.Client.connect ep
    with Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      match Service.Client.status c with
      | exception Service.Client.Error msg -> fail msg
      | P.Status st ->
        Printf.printf
          "server status: role: %s epoch: %d version: %d read_only: %s lag_ms: %s \
           leader: %s replicas: %d\n"
          st.P.st_role st.P.st_epoch st.P.st_version
          (Option.value ~default:"no" st.P.st_read_only)
          (match st.P.st_lag_ms with
           | Some ms -> Printf.sprintf "%.0f" ms
           | None -> "-")
          (Option.value ~default:"-" st.P.st_leader)
          st.P.st_replicas
      | P.Error (code, msg, _) -> fail (P.err_code_to_string code ^ ": " ^ msg)
      | _ -> fail "unexpected status response")

let () =
  (match (!status_only, !target) with
   | true, Connect ep ->
     print_status ep;
     exit 0
   | true, Self_host ->
     prerr_endline "--status needs --connect or --tcp";
     exit 2
   | false, _ -> ());
  let self_hosted, engine_opt, ep =
    match !target with
    | Connect ep -> (None, None, ep)
    | Self_host ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "gsql_client_%d.sock" (Unix.getpid ()))
      in
      let graph = (Pathsem.Toygraphs.diamond_chain diamond_n).Pathsem.Toygraphs.g in
      let engine = Service.Engine.create ~graph () in
      (match Service.Engine.install engine query_src with
       | P.Installed _ -> ()
       | P.Error (_, msg, _) ->
         Printf.eprintf "install failed: %s\n" msg;
         exit 1
       | _ ->
         prerr_endline "install failed";
         exit 1);
      let cfg =
        { (Service.Server.default_config (`Unix path)) with
          Service.Server.workers = !workers }
      in
      let server = Service.Server.create cfg engine in
      let runner = Domain.spawn (fun () -> Service.Server.run server) in
      (Some (server, runner, path), Some engine, `Unix path)
  in
  Fun.protect
    ~finally:(fun () ->
      match self_hosted with
      | None -> ()
      | Some (server, runner, path) ->
        Service.Server.stop server;
        Domain.join runner;
        if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Warm the connection path once so listen backlog jitter stays out of
         the measured phases. *)
      let c = Service.Client.connect ep in
      (match Service.Client.ping c with
       | P.Pong -> ()
       | _ ->
         prerr_endline "server did not answer ping";
         exit 1);
      Service.Client.close c;
      if !tenants_spec <> [] then begin
        let fstats = run_fairness ep in
        print_fairness fstats;
        let server_stats = fetch_server_stats ep in
        (match server_stats with
         | J.Obj fields ->
           let geti k = Option.value ~default:0 (stats_int fields k) in
           Printf.printf
             "server governor: cancellations: %d reclaimed: %d workers_leaked: %d \
              timeouts: %d\n"
             (geti "cancellations") (geti "reclaimed") (geti "workers_leaked")
             (geti "timeouts");
           Printf.printf "server shed: overloaded: %d inflight_shed: %d quota_denials: %d\n"
             (geti "overloaded") (geti "inflight_shed") (geti "quota_denials")
         | _ -> ());
        write_fairness_sidecar fstats server_stats
      end
      else begin
      let stats =
        match !invoke_query with
        | Some query ->
          [ run_phase ep ~name:("invoke:" ^ query) ~no_cache:false ~query
              ~params:!invoke_params ]
        | None ->
          let executed =
            run_phase ep ~name:"executed" ~no_cache:true ~query:"CountPaths" ~params
          in
          (* The ablation toggle is engine-level, not a protocol op: only
             meaningful when we hold the engine (self-hosted).  No phase
             runs while it flips, so workers never see a torn setting. *)
          let interp =
            match engine_opt with
            | None -> []
            | Some engine ->
              let was = Service.Engine.use_interp engine in
              Service.Engine.set_interp engine true;
              let st =
                run_phase ep ~name:"executed-interp" ~no_cache:true ~query:"CountPaths"
                  ~params
              in
              Service.Engine.set_interp engine was;
              [ st ]
          in
          (executed :: interp)
          @ [ run_phase ep ~name:"cached" ~no_cache:false ~query:"CountPaths" ~params ]
      in
      print_table stats;
      (match
         ( List.find_opt (fun st -> st.ph_name = "executed") stats,
           List.find_opt (fun st -> st.ph_name = "executed-interp") stats )
       with
       | Some c, Some i when c.ph_p50 > 0.0 ->
         Printf.printf "ablation: interp p50 %.3fms vs compiled p50 %.3fms (%.2fx)\n"
           i.ph_p50 c.ph_p50 (i.ph_p50 /. c.ph_p50)
       | _ -> ());
      (* CI parses this under --invoke: successful responses == commits for
         a mutating query on a healthy server. *)
      List.iter
        (fun st ->
          Printf.printf "phase %s: ok: %d timeouts: %d errors: %d\n" st.ph_name
            (st.ph_total - st.ph_timeouts - st.ph_errors)
            st.ph_timeouts st.ph_errors)
        stats;
      let server_stats = fetch_server_stats ep in
      (match server_stats with
       | J.Obj fields ->
         (match List.assoc_opt "cache" fields with
          | Some (J.Obj cf) ->
            let geti k = Option.value ~default:0 (stats_int cf k) in
            Printf.printf "server cache: %d hits / %d misses\n" (geti "hits") (geti "misses")
          | _ -> ());
         let geti k = Option.value ~default:0 (stats_int fields k) in
         (* The governor line CI greps under fault injection. *)
         Printf.printf
           "server governor: cancellations: %d reclaimed: %d workers_leaked: %d timeouts: %d\n"
           (geti "cancellations") (geti "reclaimed") (geti "workers_leaked") (geti "timeouts");
         (* The mvcc line CI compares across a kill -9 + restart. *)
         Printf.printf "server mvcc: graph_version: %d commits: %d read_only: %s\n"
           (geti "graph_version") (geti "commits")
           (match List.assoc_opt "read_only" fields with
            | Some (J.Bool false) | None -> "no"
            | _ -> "yes")
       | _ -> ());
      write_sidecar stats server_stats
      end)
