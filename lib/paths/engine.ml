module G = Pgraph.Graph
module B = Pgraph.Bignat

type binding = {
  b_src : int;
  b_dst : int;
  b_mult : B.t;
  b_dist : int;
}

(* DFA compilation is memoized on (schema physical identity, DARPE syntax):
   iterative GSQL queries re-evaluate the same pattern every loop
   iteration.  The table is guarded by a mutex — service worker domains
   and the per-source fan-out below evaluate patterns concurrently. *)
let cache : (string, Darpe.Dfa.t) Hashtbl.t = Hashtbl.create 32
let cache_schema : Pgraph.Schema.t option ref = ref None
let cache_lock = Mutex.create ()

let compile g ast =
  let schema = G.schema g in
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      (match !cache_schema with
       | Some s when s == schema -> ()
       | _ ->
         Hashtbl.reset cache;
         cache_schema := Some schema);
      let key = Darpe.Ast.to_string ast in
      match Hashtbl.find_opt cache key with
      | Some dfa -> dfa
      | None ->
        let dfa = Darpe.Dfa.compile schema ast in
        Hashtbl.add cache key dfa;
        dfa)

let clear_cache () =
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      Hashtbl.reset cache;
      cache_schema := None)

(* Telemetry: one "path_match" span per pattern evaluation, labelled with
   the DARPE, semantics and engine (counting vs enumeration) so EXPLAIN
   ANALYZE can show the Theorem 6.1/7.1 trade-off per block. *)
let m_enum_paths = Obs.Metrics.counter "paths.enum.paths"
let m_matches = Obs.Metrics.counter "paths.match_pairs"
let m_fanout_spawned = Obs.Metrics.counter "paths.engine.fanout.spawned"
let m_fanout_joined = Obs.Metrics.counter "paths.engine.fanout.joined"

(* Below this many sources a counting evaluation stays on the calling
   domain: spawn + join overhead beats the win on small seed sets. *)
let fanout_threshold = 4

(* Per-source counting work for one slice of the source array, bindings
   accumulated newest-first (the order the sequential loop produced).
   The kernel hands over only the reached targets, in ascending vertex
   order, and runs on its domain's scratch. *)
let count_slice g dfa ~mult_of ~dst_ok (sources : int array) (offset, len) =
  let out = ref [] in
  for i = offset to offset + len - 1 do
    let src = sources.(i) in
    Interrupt.tick ();
    Count.iter_reached g dfa src (fun dst d c ->
        if dst_ok dst then
          out := { b_src = src; b_dst = dst; b_mult = mult_of c; b_dist = d } :: !out)
  done;
  !out

(* Counting semantics fan sources out across domains: contiguous balanced
   slices (the Accum.Parallel machinery), each worker counting on its own
   domain's BFS scratch, under the caller's inherited Interrupt budget —
   the cancel flag and step counter are shared atomics, so cancelling the
   caller stops every slice.  Every spawned domain is joined even when a slice
   raises (Interrupted included), so cancellation never leaks a domain;
   the first failure is re-raised after the joins.  The spawned/joined
   counters are the leak witness tests assert on.

   Result order is pinned to the sequential loop's: slices are
   concatenated last-slice-first, matching a single newest-first push
   stream over sources in order. *)
let count_parallel ~workers g dfa ~mult_of ~dst_ok (sources : int array) =
  let n = Array.length sources in
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> Accum.Parallel.default_workers n
  in
  if workers <= 1 || n < fanout_threshold then
    count_slice g dfa ~mult_of ~dst_ok sources (0, n)
  else begin
    (* Freeze the CSR index (and the DFA, above) before spawning so the
       workers race on neither cache. *)
    ignore (Pgraph.Csr.of_graph g);
    let record = Obs.Metrics.enabled () in
    let budget = Interrupt.current () in
    let run slice =
      Interrupt.with_current budget (fun () ->
          count_slice g dfa ~mult_of ~dst_ok sources slice)
    in
    match Accum.Parallel.slices n workers with
    | [] -> []
    | first :: rest ->
      let domains =
        List.map
          (fun slice ->
            if record then Obs.Metrics.incr m_fanout_spawned 1;
            Domain.spawn (fun () -> run slice))
          rest
      in
      let mine = try Ok (run first) with e -> Error e in
      let partials =
        List.map
          (fun d ->
            let r = try Ok (Domain.join d) with e -> Error e in
            if record then Obs.Metrics.incr m_fanout_joined 1;
            r)
          domains
      in
      (match mine with
       | Error e -> raise e
       | Ok first_out ->
         let outs =
           List.map
             (function Ok out -> out | Error e -> raise e)
             partials
         in
         List.concat (List.rev (first_out :: outs)))
  end

let match_pairs_inner ?workers g ast sem ~sources ~dst_ok =
  let dfa = compile g ast in
  match (sem : Semantics.t) with
  | Semantics.All_shortest -> count_parallel ~workers g dfa ~mult_of:Fun.id ~dst_ok sources
  | Semantics.Existential ->
    count_parallel ~workers g dfa ~mult_of:(fun _ -> B.one) ~dst_ok sources
  | Semantics.Shortest_enumerated
  | Semantics.Non_repeated_edge
  | Semantics.Non_repeated_vertex
  | Semantics.Unrestricted_bounded _ ->
    (* The exponential baseline stays sequential on purpose: it models the
       engines the paper compares against, and its cost is path explosion,
       not source count. *)
    let out = ref [] in
    Array.iter
      (fun src ->
        Interrupt.tick ();
        (* Per-destination multiplicity accumulated by materializing every
           legal path — the exponential baseline. *)
        let counts : (int, B.t ref) Hashtbl.t = Hashtbl.create 64 in
        Enumerate.iter_paths g dfa sem ~src ~dst:None (fun p ->
            Obs.Metrics.incr m_enum_paths 1;
            let dst = p.Enumerate.p_vertices.(Array.length p.Enumerate.p_vertices - 1) in
            if dst_ok dst then
              match Hashtbl.find_opt counts dst with
              | Some r -> r := B.succ !r
              | None -> Hashtbl.add counts dst (ref B.one));
        Hashtbl.iter
          (fun dst r -> out := { b_src = src; b_dst = dst; b_mult = !r; b_dist = -1 } :: !out)
          counts)
      sources;
    !out

let engine_name (sem : Semantics.t) =
  match sem with
  | Semantics.All_shortest | Semantics.Existential -> "counting"
  | Semantics.Shortest_enumerated | Semantics.Non_repeated_edge | Semantics.Non_repeated_vertex
  | Semantics.Unrestricted_bounded _ -> "enumeration"

let match_pairs ?workers g ast sem ~sources ~dst_ok =
  Obs.Metrics.incr m_matches 1;
  if not (Obs.Trace.enabled ()) then match_pairs_inner ?workers g ast sem ~sources ~dst_ok
  else
    Obs.Trace.span "path_match" (fun () ->
        Obs.Trace.set_attr "darpe" (Obs.Json.Str (Darpe.Ast.to_string ast));
        Obs.Trace.set_attr "semantics" (Obs.Json.Str (Semantics.to_string sem));
        Obs.Trace.set_attr "engine" (Obs.Json.Str (engine_name sem));
        Obs.Trace.set_attr "sources" (Obs.Json.Int (Array.length sources));
        let bindings = match_pairs_inner ?workers g ast sem ~sources ~dst_ok in
        Obs.Trace.set_attr "bindings" (Obs.Json.Int (List.length bindings));
        let mult =
          List.fold_left (fun acc b -> acc +. B.to_float b.b_mult) 0.0 bindings
        in
        Obs.Trace.set_attr "multiplicity_total" (Obs.Json.Float mult);
        bindings)

let count_single_pair g ast sem ~src ~dst =
  let dfa = compile g ast in
  match (sem : Semantics.t) with
  | Semantics.All_shortest ->
    (match Count.single_pair g dfa src dst with
     | Some (_, c) -> c
     | None -> B.zero)
  | Semantics.Existential -> if Count.exists_path g dfa src dst then B.one else B.zero
  | Semantics.Shortest_enumerated
  | Semantics.Non_repeated_edge
  | Semantics.Non_repeated_vertex
  | Semantics.Unrestricted_bounded _ -> Enumerate.count_paths g dfa sem ~src ~dst
