(* Experiment E5 — ablations for the design choices DESIGN.md calls out.

   (a) Wasteful-aggregation grid (paper Example 13 generalized): vary the
       number of grouping sets g and aggregates-per-set a; GROUPING-SET
       semantics costs Θ(g·a) accumulator updates per row, dedicated
       accumulators Θ(g).
   (b) GSQL overhead: PageRank as a compiled GSQL plan vs the same
       algorithm driving the accumulator library directly.
   (c) DFA memoization: repeated pattern queries with a cold vs warm
       automaton cache.
   (d) Multiplicity shortcut: evaluating ACCUM once with µ-scaled input vs
       the µ-repetition semantics it replaces (Theorem 7.1's core trick). *)

module G = Pgraph.Graph
module V = Pgraph.Value
module Store = Accum.Store
module Spec = Accum.Spec
module Acc = Accum.Acc
module B = Pgraph.Bignat

let wasteful_grid () =
  let rng = Pgraph.Prng.create 99 in
  let n_rows = 20_000 in
  let rows =
    Array.init n_rows (fun _ ->
        (Pgraph.Prng.int rng 40, Pgraph.Prng.int rng 1000))
  in
  let run_strategy ~sets ~aggs ~dedicated =
    (* Each grouping set keys on (k mod primes.(i)); aggregates are sums. *)
    let accs =
      Array.init sets (fun _ ->
          Acc.create (Spec.Group_by (1, List.init (if dedicated then 1 else aggs) (fun _ -> Spec.Sum_int))))
    in
    Array.iter
      (fun (k, v) ->
        Array.iteri
          (fun i acc ->
            let key = [| V.Int (k mod (3 + i)) |] in
            let inputs =
              Array.make (if dedicated then 1 else aggs) (V.Int v)
            in
            Acc.input acc (V.Vtuple [| V.Vtuple key; V.Vtuple inputs |]))
          accs)
      rows
  in
  let grid_rows = ref [] in
  List.iter
    (fun sets ->
      List.iter
        (fun aggs ->
          let t_gs = Util.median_ms ~runs:3 (fun () -> run_strategy ~sets ~aggs ~dedicated:false) in
          let t_acc = Util.median_ms ~runs:3 (fun () -> run_strategy ~sets ~aggs ~dedicated:true) in
          grid_rows :=
            [ string_of_int sets; string_of_int aggs; Util.ms_to_string t_gs;
              Util.ms_to_string t_acc; Printf.sprintf "%.2fx" (t_gs /. t_acc) ]
            :: !grid_rows)
        [ 2; 4; 8 ])
    [ 1; 3 ];
  Util.print_table ~title:"Ablation (a) — wasteful aggregation: GROUPING-SET style vs dedicated"
    [ "grouping sets"; "aggs/set"; "all-aggs"; "dedicated"; "ratio" ]
    (List.rev !grid_rows)

(* PageRank driving the accumulator library directly, the same update
   rule as queries/pagerank.gsql (paper Figure 4) on a Page/LinkTo graph:
   each iteration is one ACCUM snapshot phase (score fractions buffered
   per out-edge, committed once) and one POST_ACCUM-style phase over the
   vertices with out-edges.  Returns every vertex's score. *)
let direct_pagerank g ~damping ~iterations =
  let n = G.n_vertices g in
  let store = Store.create () in
  Store.declare_vertex store "score" Spec.Sum_float ~n_vertices:n;
  Store.set_vertex_init store "score" (V.Float 1.0);
  Store.declare_vertex store "received" Spec.Sum_float ~n_vertices:n;
  let score v = V.to_float (Store.read store (Store.Vertex_acc ("score", v))) in
  for _ = 1 to iterations do
    let phase = Store.begin_phase store in
    G.iter_vertices g (fun v ->
        let deg = G.out_degree g v in
        if deg > 0 then begin
          let fraction = V.Float (score v /. float_of_int deg) in
          G.iter_adjacent g v (fun h ->
              if h.G.h_rel = G.Out then
                Store.buffer_input phase (Store.Vertex_acc ("received", h.G.h_other)) fraction B.one)
        end);
    Store.commit store phase;
    let post = Store.begin_phase store in
    G.iter_vertices g (fun v ->
        if G.out_degree g v > 0 then begin
          let received = V.to_float (Store.read store (Store.Vertex_acc ("received", v))) in
          Store.buffer_assign post (Store.Vertex_acc ("score", v))
            (V.Float (1.0 -. damping +. (damping *. received)));
          Store.buffer_assign post (Store.Vertex_acc ("received", v)) (V.Float 0.0)
        end);
    Store.commit store post
  done;
  Array.init n score

let gsql_overhead () =
  let { Pathsem.Toygraphs.g; _ } = Pathsem.Toygraphs.web ~links:9000 1500 in
  let iterations = 5 and damping = 0.85 in
  let src = Util.read_query "pagerank.gsql" in
  let params =
    [ ("maxChange", V.Float 0.0); ("maxIteration", V.Int iterations);
      ("dampingFactor", V.Float damping) ]
  in
  let run_gsql () = Gsql.Compile.run_source g ~params src in
  (* Both sides compute the same ranking before either is timed: the
     query's top-10 (url, score) rows against the direct scores. *)
  let direct = direct_pagerank g ~damping ~iterations in
  let url v = V.to_string (G.vertex_attr g v "url") in
  let expected =
    List.stable_sort (fun a b -> Float.compare direct.(b) direct.(a))
      (List.init (Array.length direct) Fun.id)
    |> List.filteri (fun i _ -> i < 10)
  in
  let rows = (Gsql.Eval.table (run_gsql ()) "Ranks").Gsql.Table.rows in
  if List.length rows <> List.length expected then failwith "ablation (b): top-10 sizes differ";
  List.iter2
    (fun v row ->
      match row with
      | [| u; score |]
        when V.to_string u = url v && Float.abs (V.to_float score -. direct.(v)) <= 1e-9 -> ()
      | _ -> failwith ("ablation (b): GSQL and direct PageRank differ at " ^ url v))
    expected rows;
  let t_direct = Util.median_ms ~runs:3 (fun () -> ignore (direct_pagerank g ~damping ~iterations)) in
  let t_gsql = Util.median_ms ~runs:3 (fun () -> ignore (run_gsql ())) in
  Util.print_table
    ~title:
      "Ablation (b) — compiled GSQL vs direct accumulator API (5 PageRank iters, 1.5k \
       pages / 9k links)"
    [ "direct accumulators"; "GSQL (compiled)"; "GSQL overhead" ]
    [ [ Util.ms_to_string t_direct; Util.ms_to_string t_gsql;
        Printf.sprintf "%.2fx" (t_gsql /. t_direct) ] ]

let dfa_cache () =
  let { Pathsem.Toygraphs.g; vertex } = Pathsem.Toygraphs.diamond_chain 20 in
  (* A bounded repetition expands to a large Thompson NFA, so compilation
     (eliminated by the cache) is a real fraction of a single evaluation —
     the situation iterative queries hit every loop iteration. *)
  let ast = Darpe.Parse.parse "(E>.E>)*1..20 | E>*2..40" in
  let run_query () =
    ignore
      (Pathsem.Engine.count_single_pair g ast Pathsem.Semantics.All_shortest
         ~src:(vertex "v0") ~dst:(vertex "v20"))
  in
  let t_cold =
    Util.median_ms ~runs:5 (fun () ->
        Pathsem.Engine.clear_cache ();
        run_query ())
  in
  Pathsem.Engine.clear_cache ();
  run_query ();
  let t_warm = Util.median_ms ~runs:5 run_query in
  Util.print_table ~title:"Ablation (c) — DFA memoization (repeated pattern evaluation)"
    [ "cold cache"; "warm cache"; "speedup" ]
    [ [ Util.ms_to_string t_cold; Util.ms_to_string t_warm;
        Printf.sprintf "%.2fx" (t_cold /. t_warm) ] ]

let multiplicity_shortcut () =
  (* SumAccum receiving one µ-scaled input vs µ individual inputs. *)
  let mu = 1_000_000 in
  let t_scaled =
    Util.median_ms ~runs:5 (fun () ->
        let a = Acc.create Spec.Sum_int in
        Acc.input_mult a (V.Int 1) (B.of_int mu))
  in
  let t_repeat =
    Util.median_ms ~runs:3 (fun () ->
        let a = Acc.create Spec.Sum_int in
        for _ = 1 to mu do Acc.input a (V.Int 1) done)
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "Ablation (d) — Theorem 7.1 multiplicity shortcut (µ = %d identical ACCUM inputs)" mu)
    [ "µ-scaled single input"; "µ repetitions"; "speedup" ]
    [ [ Util.ms_to_string t_scaled; Util.ms_to_string t_repeat;
        Printf.sprintf "%.0fx" (t_repeat /. Float.max t_scaled 0.0001) ] ]

(* (e) Single-pass multi-aggregation (Example 4's claim), measured inside
   the language: three grouping criteria computed by one accumulator pass
   vs three conventional SELECT ... GROUP BY blocks re-matching the same
   pattern. *)
let single_pass_vs_multi_pass () =
  let t = Ldbc.Snb.generate ~sf:1.0 () in
  let g = t.Ldbc.Snb.graph in
  let accum_src = {|
    GroupByAccum<string city, SumAccum<int>> @@byCity;
    GroupByAccum<string browser, SumAccum<int>> @@byBrowser;
    GroupByAccum<int y, AvgAccum> @@avgLenByYear;
    S = SELECT m
        FROM Person:c -(IS_LOCATED_IN>)- City:city, Person:c -(LIKES>)- Comment:m
        ACCUM @@byCity += (city.name -> 1),
              @@byBrowser += (m.browserUsed -> 1),
              @@avgLenByYear += (year(m.creationDate) -> m.length);
    RETURN (@@byCity.size(), @@byBrowser.size(), @@avgLenByYear.size());
  |}
  in
  let conventional_src = {|
    SELECT city.name AS city, count(*) AS n INTO ByCity
    FROM Person:c -(IS_LOCATED_IN>)- City:city, Person:c -(LIKES>)- Comment:m
    GROUP BY city.name;
    SELECT m.browserUsed AS browser, count(*) AS n INTO ByBrowser
    FROM Person:c -(IS_LOCATED_IN>)- City:city, Person:c -(LIKES>)- Comment:m
    GROUP BY m.browserUsed;
    SELECT year(m.creationDate) AS y, avg(m.length) AS avgLen INTO AvgLenByYear
    FROM Person:c -(IS_LOCATED_IN>)- City:city, Person:c -(LIKES>)- Comment:m
    GROUP BY year(m.creationDate);
  |}
  in
  let t_accum = Util.median_ms ~runs:3 (fun () -> ignore (Gsql.Compile.run_source g accum_src)) in
  let t_conv =
    Util.median_ms ~runs:3 (fun () -> ignore (Gsql.Compile.run_source g conventional_src))
  in
  Util.print_table
    ~title:
      "Ablation (e) — single-pass accumulators vs three conventional GROUP BY passes (in GSQL)"
    [ "accumulators (1 pass)"; "GROUP BY (3 passes)"; "ratio" ]
    [ [ Util.ms_to_string t_accum; Util.ms_to_string t_conv;
        Printf.sprintf "%.2fx" (t_conv /. t_accum) ] ]

(* (f) Parallel aggregation: the §4.3 "well-suited to parallel processing"
   claim — per-domain private accumulators merged at the barrier. *)
let parallel_aggregation () =
  let rng = Pgraph.Prng.create 5 in
  let items = Array.init 500_000 (fun _ -> Pgraph.Prng.int rng 10_000) in
  let feed acc x = Acc.input acc (V.Vtuple [| V.Int (x mod 64); V.Int x |]) in
  let spec = Spec.Map_acc Spec.Avg_acc in
  let time_with workers =
    Util.median_ms ~runs:3 (fun () ->
        ignore (Accum.Parallel.map_reduce ~workers spec items ~feed))
  in
  let t1 = time_with 1 in
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.map
      (fun w ->
        let t = time_with w in
        [ string_of_int w; Util.ms_to_string t; Printf.sprintf "%.2fx" (t1 /. t) ])
      [ 1; 2; 4 ]
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "Ablation (f) — parallel aggregation (500k inputs into MapAccum<_, AvgAccum>; %d core%s \
          available)"
         cores (if cores = 1 then "" else "s"))
    [ "domains"; "time"; "speedup" ] rows;
  if cores = 1 then
    print_endline
      "note: this machine exposes a single core, so extra domains only add overhead; the\n\
       determinism guarantee (partitioned + merged = sequential) is what the tests verify."

let run () =
  wasteful_grid ();
  gsql_overhead ();
  dfa_cache ();
  multiplicity_shortcut ();
  single_pass_vs_multi_pass ();
  parallel_aggregation ()
