(* Shared timing and rendering helpers for the benchmark harness. *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, (t1 -. t0) *. 1000.0)

(* Median wall-clock of [n] runs — the paper's Appendix B methodology
   ("for each graph, we ran each query 5 times, computing the median"). *)
let median_ms ?(runs = 5) f =
  let times =
    List.init runs (fun _ ->
        let _, ms = time_once f in
        ms)
  in
  let sorted = List.sort compare times in
  List.nth sorted (runs / 2)

let ms_to_string ms =
  if ms < 1.0 then Printf.sprintf "%.3fms"
      ms
  else if ms < 1000.0 then Printf.sprintf "%.1fms" ms
  else if ms < 60_000.0 then Printf.sprintf "%.2fs" (ms /. 1000.0)
  else Printf.sprintf "%dm%02ds" (int_of_float ms / 60000) (int_of_float ms mod 60000 / 1000)

let print_rule width = print_endline (String.make width '-')

let print_table ~title headers rows =
  Printf.printf "\n== %s ==\n" title;
  let all = headers :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) headers)
      all
  in
  let render row =
    String.concat "  "
      (List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths row)
  in
  print_endline (render headers);
  print_rule (String.length (render headers));
  List.iter (fun row -> print_endline (render row)) rows

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with Failure _ -> default)
  | None -> default

let getenv_flag name = Sys.getenv_opt name <> None

(* Machine-readable sidecars: when BENCH_JSON names a directory, each suite
   runs with the metrics registry on and writes BENCH_<suite>.json there —
   wall time plus the Obs.Metrics dump (merge ops, BFS hops, product-state
   expansions, ...), so runs can be diffed across commits without scraping
   the human-readable tables. *)
let with_sidecar name f =
  match Sys.getenv_opt "BENCH_JSON" with
  | None -> f ()
  | Some dir ->
    let was_enabled = Obs.Metrics.enabled () in
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let result, ms =
      time_once (fun () ->
          Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled) f)
    in
    let doc =
      Obs.Json.Obj
        [ ("suite", Obs.Json.Str name);
          ("wall_ms", Obs.Json.Float ms);
          ("metrics", Obs.Metrics.dump ()) ]
    in
    let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
    let oc = open_out path in
    output_string oc (Obs.Json.pretty doc);
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "[sidecar] %s\n%!" path;
    result

(* The text of a shipped queries/*.gsql file; benches run from the repo
   root (dune exec) or one directory below it. *)
let read_query file =
  let dir = List.find Sys.file_exists [ "queries"; "../queries" ] in
  In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
