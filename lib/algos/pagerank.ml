module G = Pgraph.Graph
module V = Pgraph.Value
module B = Pgraph.Bignat
module Store = Accum.Store
module Spec = Accum.Spec

type options = {
  damping : float;
  max_iterations : int;
  max_change : float;
}

let default_options = { damping = 0.85; max_iterations = 20; max_change = 1e-9 }

let vertex_filter g = function
  | None -> fun _ -> true
  | Some name ->
    (match Pgraph.Schema.find_vertex_type (G.schema g) name with
     | Some vt -> fun v -> G.vertex_type_id g v = vt.Pgraph.Schema.vt_id
     | None -> invalid_arg ("Pagerank: unknown vertex type " ^ name))

let edge_filter g = function
  | None -> fun _ -> true
  | Some name ->
    (match Pgraph.Schema.find_edge_type (G.schema g) name with
     | Some et -> fun e -> G.edge_type_id g e = et.Pgraph.Schema.et_id
     | None -> invalid_arg ("Pagerank: unknown edge type " ^ name))

(* Direct accumulator-library implementation: each iteration is one ACCUM
   snapshot phase (score fractions buffered, committed once) followed by a
   POST_ACCUM-style pass. *)
let run_impl g options vertex_type edge_type =
  let n = G.n_vertices g in
  let v_ok = vertex_filter g vertex_type and e_ok = edge_filter g edge_type in
  let store = Store.create () in
  Store.declare_vertex store "score" Spec.Sum_float ~n_vertices:n;
  Store.set_vertex_init store "score" (V.Float 1.0);
  Store.declare_vertex store "received" Spec.Sum_float ~n_vertices:n;
  Store.declare_global store "maxDifference" Spec.Max_acc;
  let score v = V.to_float (Store.read store (Store.Vertex_acc ("score", v))) in
  let out_degree v =
    let d = ref 0 in
    G.iter_adjacent g v (fun h ->
        if h.G.h_rel = G.Out && e_ok h.G.h_edge && v_ok h.G.h_other then incr d);
    !d
  in
  let iters = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iters < options.max_iterations do
    Store.assign_now store (Store.Global "maxDifference") (V.Float 0.0);
    (* ACCUM phase: every (v, n) edge contributes score(v)/outdeg(v). *)
    let phase = Store.begin_phase store in
    G.iter_vertices g (fun v ->
        if v_ok v then begin
          let deg = out_degree v in
          if deg > 0 then begin
            let fraction = score v /. float_of_int deg in
            G.iter_adjacent g v (fun h ->
                if h.G.h_rel = G.Out && e_ok h.G.h_edge && v_ok h.G.h_other then
                  Store.buffer_input phase
                    (Store.Vertex_acc ("received", h.G.h_other))
                    (V.Float fraction) B.one)
          end
        end);
    Store.commit store phase;
    (* POST_ACCUM phase per distinct source vertex. *)
    let post = Store.begin_phase store in
    G.iter_vertices g (fun v ->
        if v_ok v && out_degree v > 0 then begin
          let received = V.to_float (Store.read store (Store.Vertex_acc ("received", v))) in
          let old_score = score v in
          let new_score = 1.0 -. options.damping +. (options.damping *. received) in
          Store.buffer_assign post (Store.Vertex_acc ("score", v)) (V.Float new_score);
          Store.buffer_assign post (Store.Vertex_acc ("received", v)) (V.Float 0.0);
          Store.buffer_input post (Store.Global "maxDifference")
            (V.Float (Float.abs (new_score -. old_score)))
            B.one
        end);
    Store.commit store post;
    incr iters;
    let diff = Store.read store (Store.Global "maxDifference") in
    continue_ := (not (V.is_null diff)) && V.to_float diff > options.max_change
  done;
  (Array.init n score, !iters)

let run g ?(options = default_options) ?vertex_type ?edge_type () =
  fst (run_impl g options vertex_type edge_type)

let iterations_used g ?(options = default_options) () = snd (run_impl g options None None)

let gsql_source ~vertex_type ~edge_type =
  Printf.sprintf
    {|
  MaxAccum<float> @@maxDifference = 9999999.0;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;

  AllV = {%s.*};
  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
    @@maxDifference = 0;
    S = SELECT v
        FROM AllV:v -(%s>)- %s:n
        ACCUM n.@received_score += v.@score / v.outdegree('%s')
        POST_ACCUM v.@score = 1 - dampingFactor + dampingFactor * v.@received_score,
                   v.@received_score = 0,
                   @@maxDifference += abs(v.@score - v.@score');
  END;
  SELECT v AS vid, v.@score AS score INTO Scores
  FROM AllV:v -(%s>*0..0)- %s:w;
|}
    vertex_type edge_type vertex_type edge_type edge_type vertex_type

let run_gsql g ?(options = default_options) ~vertex_type ~edge_type () =
  let params =
    [ ("maxChange", V.Float options.max_change);
      ("maxIteration", V.Int options.max_iterations);
      ("dampingFactor", V.Float options.damping) ]
  in
  let result =
    Gsql.Compile.run_source g ~params (gsql_source ~vertex_type ~edge_type)
  in
  let n = G.n_vertices g in
  let out = Array.make n 1.0 in
  List.iter
    (fun row ->
      match row with
      | [| V.Vertex vid; score |] -> out.(vid) <- V.to_float score
      | _ -> ())
    (Gsql.Eval.table result "Scores").Gsql.Table.rows;
  out
