(* In-process per-layer probes for the traced run: each calls one layer's
   public entry point directly on the workload's own graph, so a change to
   that layer shows here even when service overhead hides it end to end. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module Spec = Accum.Spec
module Acc = Accum.Acc

let now = Unix.gettimeofday

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

let median_ms ~runs f = Stats.median (List.init runs (fun _ -> snd (time_ms f)))

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Parameters for running each benchmark query in-process. *)
let params_for (snb : Ldbc.Snb.t) name =
  let names = Workload.first_names snb in
  let ic n = Ldbc.Ic.default_params snb ~seed:7 n in
  match name with
  | "ic1" -> ic Ldbc.Ic.Ic1
  | "ic3" -> ic Ldbc.Ic.Ic3
  | "ic6" -> ic Ldbc.Ic.Ic6
  | "ic9" -> ic Ldbc.Ic.Ic9
  | "khop" -> [ ("firstName", V.Str names.(0)); ("hops", V.Int 2) ]
  | "common_friends" ->
    [ ("nameA", V.Str names.(0)); ("nameB", V.Str names.(Array.length names - 1)) ]
  | _ -> Workload.multigroup_params ~full:false

let compiled_queries =
  [ "ic1"; "ic3"; "ic6"; "ic9"; "khop"; "common_friends"; "multigroup_acc"; "multigroup_gs" ]

(* Appendix B accumulator feeds (bench/appendixb.ml's specs) over match
   rows [city; gender; browser; year; month; length; date; bday]. *)
let heap_specs =
  List.map
    (fun (cap, fields) -> Spec.Heap_acc { Spec.h_capacity = cap; h_fields = fields })
    [ (20, [ (0, Spec.Desc); (1, Spec.Desc) ]); (20, [ (0, Spec.Asc); (1, Spec.Desc) ]);
      (20, [ (1, Spec.Desc); (0, Spec.Desc) ]); (20, [ (1, Spec.Asc); (0, Spec.Desc) ]);
      (10, [ (2, Spec.Asc); (1, Spec.Desc) ]); (10, [ (2, Spec.Desc); (1, Spec.Desc) ]) ]

let keys cols (row : V.t array) = V.Vtuple (Array.map (fun c -> row.(c)) cols)
let key_cols = [| [| 3 |]; [| 0; 2; 3; 4; 5 |]; [| 0; 1; 2; 3; 4 |] |]

let feed_acc rows =
  let sets =
    [| Acc.create (Spec.Group_by (1, heap_specs)); Acc.create (Spec.Group_by (5, [ Spec.Sum_int ]));
       Acc.create (Spec.Group_by (5, [ Spec.Avg_acc ])) |]
  in
  List.iter
    (fun row ->
      let ht = V.Vtuple [| row.(6); row.(5); row.(7) |] in
      Acc.input sets.(0) (V.Vtuple [| keys key_cols.(0) row; V.Vtuple (Array.make 6 ht) |]);
      Acc.input sets.(1) (V.Vtuple [| keys key_cols.(1) row; V.Vtuple [| V.Int 1 |] |]);
      Acc.input sets.(2) (V.Vtuple [| keys key_cols.(2) row; V.Vtuple [| row.(5) |] |]))
    rows

let feed_gs rows =
  let all = heap_specs @ [ Spec.Sum_int; Spec.Avg_acc ] in
  let sets = Array.map (fun cols -> Acc.create (Spec.Group_by (Array.length cols, all))) key_cols in
  List.iter
    (fun row ->
      let ht = V.Vtuple [| row.(6); row.(5); row.(7) |] in
      let inputs = V.Vtuple (Array.append (Array.make 6 ht) [| V.Int 1; row.(5) |]) in
      Array.iteri (fun i cols -> Acc.input sets.(i) (V.Vtuple [| keys cols row; inputs |])) key_cols)
    rows

(* Nanoseconds per input row, repeating the feed until 100 ms elapsed. *)
let ns_per_row rows feed =
  let n = max 1 (List.length rows) in
  let reps = ref 0 and total = ref 0.0 in
  while !total < 100.0 && !reps < 50 do
    total := !total +. snd (time_ms (fun () -> feed rows));
    incr reps
  done;
  !total *. 1e6 /. float_of_int (!reps * n)

(* [measure] returns (metric, value, unit) triples.  [snapshot] is the
   served snapshot file; [dir] is scratch space; [requests] is the
   workload's request stream (fresh, same seed) for the private engine. *)
let measure ~(snb : Ldbc.Snb.t) ~(w : Workload.t) ~snapshot ~dir ~requests =
  let g = snb.Ldbc.Snb.graph in
  let schema = G.schema g in
  let out = ref [] in
  let emit name value unit = out := (name, value, unit) :: !out in
  (* Store.Persist: recovery of the served snapshot. *)
  let probe = Filename.concat dir "probe" in
  Unix.mkdir probe 0o755;
  copy_file snapshot (Filename.concat probe "snapshot.json");
  let open_once () =
    let p, rc = Store.Persist.open_dir probe ~base:(fun () -> failwith "snapshot missing") in
    Store.Persist.close p;
    rc.Store.Persist.r_graph
  in
  emit "persist.open_ms" (median_ms ~runs:3 (fun () -> ignore (open_once ()))) "ms";
  let recovered = open_once () in
  (* Gsql.Catalog: install of the workload's files. *)
  emit "catalog.install_ms"
    (median_ms ~runs:5 (fun () ->
         let cat = Gsql.Catalog.create () in
         List.iter (fun (_, src) -> ignore (Gsql.Catalog.install ~schema cat src)) w.Workload.sources))
    "ms";
  (* Service.Engine.invoke on a private engine: up to 200 requests or 3 s. *)
  let engine = Service.Engine.create ~graph:recovered () in
  List.iter (fun (_, src) -> ignore (Service.Engine.install engine src)) w.Workload.sources;
  let deadline = now () +. 3.0 in
  let rec invoke_loop acc n =
    if n >= 200 || now () > deadline then acc
    else
      let (r : Workload.req) = requests () in
      let iv =
        { Service.Protocol.iv_query = r.Workload.query; iv_params = r.Workload.params;
          iv_timeout_ms = None; iv_no_cache = r.Workload.no_cache; iv_tenant = None }
      in
      let _, ms = time_ms (fun () -> Service.Engine.invoke engine iv) in
      invoke_loop (ms :: acc) (n + 1)
  in
  emit "engine.invoke_ms" (Stats.median (invoke_loop [] 0)) "ms";
  (* Gsql.Compile: each benchmark query's plan on this graph. *)
  List.iter
    (fun name ->
      let plan = Gsql.Compile.compile ~schema (Gsql.Parser.parse_query (Workload.src name)) in
      let params = params_for snb name in
      emit ("compile.run_ms." ^ name)
        (median_ms ~runs:3 (fun () -> ignore (Gsql.Compile.run plan ~params g)))
        "ms")
    compiled_queries;
  (* Pathsem: cold DARPE -> DFA, then the counting kernel from 200 seeded
     persons with one reused scratch. *)
  let knows3 = Darpe.Parse.parse "KNOWS*1..3" in
  emit "darpe.dfa_ms"
    (median_ms ~runs:20 (fun () ->
         Pathsem.Engine.clear_cache ();
         ignore (Pathsem.Engine.compile g knows3)))
    "ms";
  let dfa = Pathsem.Engine.compile g knows3 in
  let rng = Pgraph.Prng.create 11 in
  let scratch = Pathsem.Count.create_scratch () in
  let sources = List.init 200 (fun _ -> Ldbc.Snb.random_person snb rng) in
  let times, reached =
    List.split
      (List.map
         (fun s ->
           let r, ms = time_ms (fun () -> Pathsem.Count.single_source ~scratch g dfa s) in
           (ms, float_of_int (Array.fold_left (fun n d -> if d >= 0 then n + 1 else n) 0 r.Pathsem.Count.sr_dist)))
         sources)
  in
  emit "count.single_source_ms" (Stats.median times) "ms";
  emit "count.reached" (Stats.mean reached) "count";
  (* Pgraph: CSR freeze and the copy-on-write snapshot a commit takes. *)
  emit "csr.build_ms" (median_ms ~runs:5 (fun () -> ignore (Pgraph.Csr.build g))) "ms";
  let persons = snb.Ldbc.Snb.persons in
  let knows_edge i =
    let a = persons.(i mod Array.length persons) and b = persons.((i + 7) mod Array.length persons) in
    (a, b, [ ("since", V.datetime_of_ymd 2012 1 1) ])
  in
  emit "graph.snapshot_ms"
    (median_ms ~runs:50 (fun () ->
         let a, b, attrs = knows_edge 0 in
         ignore (G.add_edge (G.snapshot g) "KNOWS" a b attrs)))
    "ms";
  (* Store.Persist / Store.Wal: AddKnows-shaped commits, fsync included. *)
  let commit_dir = Filename.concat dir "commit" in
  let p, _ = Store.Persist.open_dir commit_dir ~base:(fun () -> g) in
  let commits = 100 in
  let commit_ms =
    List.init commits (fun i ->
        let a, b, attrs = knows_edge i in
        snd
          (time_ms (fun () ->
               Store.Persist.commit p g ~version:(i + 1) ~ops:[ G.M_add_edge ("KNOWS", a, b, attrs) ])))
  in
  Store.Persist.close p;
  let sorted = Stats.sorted commit_ms in
  emit "persist.commit_p50_ms" (Stats.percentile sorted 0.5) "ms";
  emit "persist.commit_p99_ms" (Stats.percentile sorted 0.99) "ms";
  emit "wal.bytes_per_commit"
    (float_of_int (file_size (Filename.concat commit_dir "wal.log")) /. float_of_int commits)
    "bytes";
  (* Accum.Acc: Appendix B inputs, dedicated vs grouping-set accumulators. *)
  let rows = Workload.agg_rows g ~year_lo:2010 ~year_hi:2012 in
  emit "acc.qacc_input_ns" (ns_per_row rows feed_acc) "ns";
  emit "acc.qgs_input_ns" (ns_per_row rows feed_gs) "ns";
  List.rev !out
