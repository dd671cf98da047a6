(* Definitional answers for the graph algorithms shipped as queries/*.gsql,
   computed on the simple undirected view of a Person/KNOWS graph
   ({!Fixtures.knows_graph}): an edge joins its endpoints both ways,
   parallel edges count once and self-loops not at all.  Each is the
   textbook algorithm written for clarity, not speed. *)

module G = Pgraph.Graph

(* Distinct neighbours of every vertex, ascending, self excluded. *)
let neighbours g =
  let adj = Array.make (G.n_vertices g) [] in
  G.iter_vertices g (fun v ->
      G.iter_adjacent g v (fun h ->
          let u = h.G.h_other in
          if u <> v && not (List.mem u adj.(v)) then adj.(v) <- u :: adj.(v)));
  Array.map (List.sort compare) adj

(* wcc.gsql: union-find with the smaller root kept, so a component's
   label is its minimum vertex id; (label, size) by size desc, label asc. *)
let components g =
  let n = G.n_vertices g in
  let parent = Array.init n Fun.id in
  let rec find v = if parent.(v) = v then v else find parent.(v) in
  Array.iteri
    (fun v us ->
      List.iter
        (fun u ->
          let a = find u and b = find v in
          parent.(max a b) <- min a b)
        us)
    (neighbours g);
  let size = Array.make n 0 in
  for v = 0 to n - 1 do
    let r = find v in
    size.(r) <- size.(r) + 1
  done;
  List.filter (fun r -> size.(r) > 0) (List.init n Fun.id)
  |> List.map (fun r -> (r, size.(r)))
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)

(* Breadth-first hop distances from [src], -1 if unreached. *)
let hop_distances g src =
  let adj = neighbours g in
  let dist = Array.make (G.n_vertices g) (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
      adj.(v)
  done;
  dist

(* sssp.gsql's rows: (vertex, hops) of the vertices [src] reaches,
   nearest first, then by id. *)
let reached g src =
  Array.to_list (hop_distances g src)
  |> List.mapi (fun v d -> (v, d))
  |> List.filter (fun (_, d) -> d >= 0)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)

(* kcore.gsql: remove a vertex with fewer than [k] surviving neighbours
   until none is left; the survivors, ascending. *)
let k_core g k =
  let adj = neighbours g in
  let alive = Array.make (Array.length adj) true in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun v us ->
        if alive.(v) && List.length (List.filter (fun u -> alive.(u)) us) < k then begin
          alive.(v) <- false;
          changed := true
        end)
      adj
  done;
  List.filter (fun v -> alive.(v)) (List.init (Array.length adj) Fun.id)

(* triangles.gsql: vertex triples a < b < c that are pairwise adjacent. *)
let triangles g =
  let adj = neighbours g in
  let n = ref 0 in
  Array.iteri
    (fun a bs ->
      List.iter
        (fun b ->
          if a < b then List.iter (fun c -> if b < c && List.mem c adj.(a) then incr n) adj.(b))
        bs)
    adj;
  !n

(* label_propagation.gsql: every vertex starts with its own id as label;
   each round, all at once, a vertex with neighbours adopts the label most
   of them carry (the smallest among equally common ones).  Stops when a
   round changes nothing or after [rounds] rounds. *)
let label_propagation ?(rounds = 20) g =
  let adj = neighbours g in
  let label = Array.init (Array.length adj) Fun.id in
  let adopt v us =
    let count l = List.length (List.filter (fun u -> label.(u) = l) us) in
    let labels = List.sort_uniq compare (List.map (fun u -> label.(u)) us) in
    let top = List.fold_left (fun m l -> max m (count l)) 0 labels in
    match List.find_opt (fun l -> count l = top) labels with
    | Some l -> l
    | None -> label.(v)
  in
  let rec go i =
    if i < rounds then begin
      let next = Array.mapi adopt adj in
      if next <> label then begin
        Array.blit next 0 label 0 (Array.length label);
        go (i + 1)
      end
    end
  in
  go 0;
  label

(* closeness.gsql: reached / (sum of hop distances to the reached), over
   the vertices reachable from [v]; 0 when [v] reaches none. *)
let closeness g v =
  let reached = ref 0 and sum = ref 0 in
  Array.iter
    (fun d ->
      if d > 0 then begin
        incr reached;
        sum := !sum + d
      end)
    (hop_distances g v);
  if !sum = 0 then 0.0 else float_of_int !reached /. float_of_int !sum

(* The [k] most central vertices, closeness desc then id asc. *)
let top_closeness g k =
  List.init (G.n_vertices g) (fun v -> (v, closeness g v))
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < k)
