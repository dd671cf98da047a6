(* compare — judge a change against its parent from saved e2e runs
   (choosing-metrics §8).

   Usage: compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

   Each directory holds the saved stdout of e2e runs, one file per run.
   Runs are paired in seed order per workload.  For every end-to-end
   metric of BENCHMARK.json, each workload gets its own row:
     improved    at least 10 pairs, the change wins at least 9 in 10 (ties
                 count for neither), and the medians differ by more than
                 the parent's interquartile distance;
     regressed   the change's median is worse than the parent's by more
                 than the metric's bound;
     unresolved  the parent's own spread (IQR / median) exceeds the bound,
                 unless every change run beats every parent run;
     unchanged   otherwise.
   Exits 1 when any row regressed. *)

module J = Obs.Json

type metric = { name : string; lower_better : bool; bound : float }

type run = { workload : string; seed : int; file : string; values : (string * float) list }

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      go [])

let load_spec path =
  match J.parse (String.concat "\n" (read_lines path)) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j ->
    Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.to_list_opt)
    |> List.filter_map (fun m ->
           match
             ( Option.bind (J.member "name" m) J.to_str_opt,
               Option.bind (J.member "better" m) J.to_str_opt,
               Option.bind (J.member "bound" m) J.to_float_opt )
           with
           | Some name, Some better, Some bound -> Some { name; lower_better = better = "lower"; bound }
           | _ -> None)

(* A run file: the report line names the workload and seed; the last line
   carries the metrics. *)
let load_run path =
  let parsed = List.filter_map (fun l -> Result.to_option (J.parse l)) (read_lines path) in
  let report = List.find_opt (fun j -> J.member "workload" j <> None) parsed in
  match (report, List.rev parsed) with
  | Some rep, last :: _ ->
    (match (J.member "metrics" last, Option.bind (J.member "workload" rep) J.to_str_opt) with
     | Some (J.Obj ms), Some workload ->
       let seed =
         Option.value ~default:0
           (Option.bind (J.member "env" rep) (fun e -> Option.bind (J.member "seed" e) J.to_int_opt))
       in
       let values =
         List.filter_map
           (fun (k, v) -> Option.map (fun f -> (k, f)) (Option.bind (J.member "value" v) J.to_float_opt))
           ms
       in
       Some { workload; seed; file = Filename.basename path; values }
     | _ -> None)
  | _ -> None

let load_dir d =
  Sys.readdir d |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f -> load_run (Filename.concat d f))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse spec dirs = function
    | [] -> (spec, List.rev dirs)
    | "--spec" :: p :: rest -> parse p dirs rest
    | d :: rest -> parse spec (d :: dirs) rest
  in
  let spec, dirs = parse "BENCHMARK.json" [] args in
  let parent_dir, change_dir =
    match dirs with
    | [ p; c ] -> (p, c)
    | _ ->
      prerr_endline "usage: compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]";
      exit 2
  in
  let metrics = load_spec spec in
  let parent = load_dir parent_dir and change = load_dir change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  let regressed = ref false in
  Printf.printf "%-11s %-20s %-30s %-30s %8s %6s  %s\n" "workload" "metric" "parent med [q1, q3]"
    "change med [q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun wl ->
      let runs side =
        List.filter (fun r -> r.workload = wl) side
        |> List.sort (fun a b -> compare (a.seed, a.file) (b.seed, b.file))
      in
      let p_runs = runs parent and c_runs = runs change in
      List.iter
        (fun m ->
          let vals rs = List.filter_map (fun r -> List.assoc_opt m.name r.values) rs in
          let pv = vals p_runs and cv = vals c_runs in
          if List.length pv >= 2 && List.length cv >= 2 then begin
            let better a b = if m.lower_better then a < b else a > b in
            let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
            let pairs = zip pv cv in
            let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
            let p1, pm, p3 = Stats.quartiles pv and c1, cm, c3 = Stats.quartiles cv in
            let delta = (cm -. pm) /. Float.abs pm in
            let worse = if m.lower_better then delta else -.delta in
            let dominates = List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv in
            let verdict =
              if worse > m.bound then (regressed := true; "regressed")
              else if List.length pairs >= 10 && wins * 10 >= 9 * List.length pairs
                      && Float.abs (cm -. pm) > p3 -. p1 && worse < 0.0
              then "improved"
              else if (p3 -. p1) /. Float.abs pm > m.bound && not dominates then "unresolved"
              else "unchanged"
            in
            Printf.printf "%-11s %-20s %9.4g [%8.4g, %8.4g] %9.4g [%8.4g, %8.4g] %+7.2f%% %3d/%-3d %s\n" wl m.name pm
              p1 p3 cm c1 c3 (100.0 *. delta) wins (List.length pairs) verdict
          end)
        metrics)
    workloads;
  if !regressed then exit 1
