module G = Pgraph.Graph
module Csr = Pgraph.Csr
module B = Pgraph.Bignat

type source_result = {
  sr_src : int;
  sr_dist : int array;
  sr_count : B.t array;
}

(* Telemetry (docs/OBSERVABILITY.md): the counting engine's cost story is
   told per hop — frontier width in product states and the running path
   multiplicity — which is exactly the evidence for Theorem 6.1's
   polynomial bound (the per-hop work never exceeds |V|·|Q|, however many
   paths the counts represent). *)
let m_bfs_sources = Obs.Metrics.counter "paths.count.sources"
let m_bfs_hops = Obs.Metrics.counter "paths.count.hops"
let m_bfs_states = Obs.Metrics.counter "paths.count.product_states"
let h_frontier = Obs.Metrics.histogram "paths.count.frontier"

(* Flat BFS working state, one per domain and reused across sources,
   graphs and DFAs.  [stamp] generation-marks which product states the
   current source has discovered, so successive runs skip the O(|V|·|Q|)
   clears: dist.(p)/count.(p) are meaningful iff stamp.(p) = gen.  [queue]
   holds the product states in the order they were first stamped — one
   BFS queue whose level ranges are the frontiers, and afterwards the list
   of touched states the collapse walks.  The per-vertex collapse state
   ([vstamp]/[vdist]/[vcount]) is stamped with the same [gen], and
   [gen] only grows, so arrays (re)allocated at zero never look current. *)
type scratch = {
  mutable cap : int;
  mutable dist : int array;
  mutable count : B.t array;
  mutable stamp : int array;
  mutable queue : int array;
  mutable vcap : int;
  mutable vstamp : int array;
  mutable vdist : int array;
  mutable vcount : B.t array;
  mutable targets : int array;  (* reached vertices, first-stamp order *)
  mutable gen : int;
  mutable busy : bool;  (* a domain scratch in use further up the stack *)
}

let create_scratch () =
  { cap = 0; dist = [||]; count = [||]; stamp = [||]; queue = [||]; vcap = 0;
    vstamp = [||]; vdist = [||]; vcount = [||]; targets = [||]; gen = 0;
    busy = false }

let ensure scratch n nv =
  if scratch.cap < n then begin
    scratch.cap <- n;
    scratch.dist <- Array.make n (-1);
    scratch.count <- Array.make n B.zero;
    scratch.stamp <- Array.make n 0;
    scratch.queue <- Array.make n 0
  end;
  if scratch.vcap < nv then begin
    scratch.vcap <- nv;
    scratch.vstamp <- Array.make nv 0;
    scratch.vdist <- Array.make nv (-1);
    scratch.vcount <- Array.make nv B.zero;
    scratch.targets <- Array.make nv 0
  end

let domain_scratch = Domain.DLS.new_key create_scratch

(* Runs [f] on the caller's scratch, else on this domain's.  A domain
   scratch already in use (a callback of an outer run counting again)
   hands the inner run a fresh one instead. *)
let with_scratch scratch f =
  match scratch with
  | Some sc -> f sc
  | None ->
    let sc = Domain.DLS.get domain_scratch in
    if sc.busy then f (create_scratch ())
    else begin
      sc.busy <- true;
      match f sc with
      | r ->
        sc.busy <- false;
        r
      | exception e ->
        sc.busy <- false;
        raise e
    end

(* Product-state indexing: pid = v * |Q| + q.  Runs the BFS from [src]
   and collapses the touched states into the scratch's per-vertex arrays;
   returns the reached vertices in ascending order.  Work is proportional
   to the product states reached and their edges, not to |V|·|Q|. *)
let solve scratch g (dfa : Darpe.Dfa.t) src ~hop_widths =
  let record = Obs.Metrics.enabled () in
  let csr = Csr.of_graph g in
  let nq = dfa.Darpe.Dfa.n_states in
  let nv = csr.Csr.nv in
  ensure scratch (nv * nq) nv;
  scratch.gen <- scratch.gen + 1;
  let gen = scratch.gen in
  let dist = scratch.dist
  and count = scratch.count
  and stamp = scratch.stamp
  and queue = scratch.queue in
  let trans = dfa.Darpe.Dfa.trans
  and live = dfa.Darpe.Dfa.live
  and n_symbols = dfa.Darpe.Dfa.n_symbols in
  let seg_row = csr.Csr.seg_row
  and seg_sym = csr.Csr.seg_sym
  and seg_off = csr.Csr.seg_off
  and nbr = csr.Csr.nbr in
  let start = (src * nq) + dfa.Darpe.Dfa.start in
  stamp.(start) <- gen;
  dist.(start) <- 0;
  count.(start) <- B.one;
  if record then Obs.Metrics.incr m_bfs_sources 1;
  queue.(0) <- start;
  (* The frontier at level d is queue.(lo) .. queue.(hi - 1). *)
  let lo = ref 0 and hi = ref 1 and tail = ref 1 in
  let level = ref 0 in
  while !lo < !hi do
    let d = !level in
    let governed = Interrupt.governed () in
    if record || governed || hop_widths <> None then begin
      let width = !hi - !lo in
      if record then begin
        Obs.Metrics.incr m_bfs_hops 1;
        Obs.Metrics.incr m_bfs_states width;
        Obs.Metrics.observe h_frontier (float_of_int width)
      end;
      (* Governor checkpoint, once per hop: the frontier width is both
         the step charge for this hop and the row ceiling subject. *)
      if governed then begin
        Interrupt.check_rows width;
        Interrupt.tick_n width
      end;
      match hop_widths with Some ws -> ws := width :: !ws | None -> ()
    end;
    for i = !lo to !hi - 1 do
      let p = queue.(i) in
      let v = p / nq and q = p mod nq in
      let c = count.(p) in
      (* One DFA transition per (etype, rel) segment, then a contiguous
         scan of the segment's neighbor slots — the CSR payoff. *)
      for s = seg_row.(v) to seg_row.(v + 1) - 1 do
        let sym = seg_sym.(s) in
        let q' = if sym < n_symbols then trans.(q).(sym) else -1 in
        if q' >= 0 && live.(q') then
          for j = seg_off.(s) to seg_off.(s + 1) - 1 do
            let p' = (nbr.(j) * nq) + q' in
            if stamp.(p') <> gen then begin
              stamp.(p') <- gen;
              dist.(p') <- d + 1;
              count.(p') <- c;
              queue.(!tail) <- p';
              incr tail
            end
            else if dist.(p') = d + 1 then count.(p') <- B.add count.(p') c
          done
      done
    done;
    lo := !hi;
    hi := !tail;
    incr level
  done;
  (* Collapse the touched product states to per-vertex results over
     accepting DFA states: the shortest satisfying path length is the min
     over accepting states, and its count sums the accepting states at
     that distance (disjoint path sets, by DFA determinism).  The queue is
     in BFS order, so a vertex's first accepting state has its minimum
     distance. *)
  let accepting = dfa.Darpe.Dfa.accepting in
  let vstamp = scratch.vstamp
  and vdist = scratch.vdist
  and vcount = scratch.vcount in
  let targets = scratch.targets in
  let n_reached = ref 0 in
  for i = 0 to !tail - 1 do
    let p = queue.(i) in
    if accepting.(p mod nq) then begin
      let v = p / nq in
      if vstamp.(v) <> gen then begin
        vstamp.(v) <- gen;
        vdist.(v) <- dist.(p);
        vcount.(v) <- count.(p);
        targets.(!n_reached) <- v;
        incr n_reached
      end
      else if dist.(p) = vdist.(v) then vcount.(v) <- B.add vcount.(v) count.(p)
    end
  done;
  let reached = Array.sub targets 0 !n_reached in
  Array.sort Int.compare reached;
  reached

(* [solve], wrapped in a "bfs" trace span when tracing is on. *)
let solve_traced scratch g dfa src =
  if not (Obs.Trace.enabled ()) then solve scratch g dfa src ~hop_widths:None
  else
    Obs.Trace.span "bfs" (fun () ->
        let ws = ref [] in
        let reached = solve scratch g dfa src ~hop_widths:(Some ws) in
        let paths =
          Array.fold_left (fun acc v -> acc +. B.to_float scratch.vcount.(v)) 0.0 reached
        in
        Obs.Trace.set_attr "src" (Obs.Json.Int src);
        Obs.Trace.set_attr "hops" (Obs.Json.Int (List.length !ws));
        Obs.Trace.set_attr "frontiers"
          (Obs.Json.List (List.rev_map (fun w -> Obs.Json.Int w) !ws));
        Obs.Trace.set_attr "reached" (Obs.Json.Int (Array.length reached));
        Obs.Trace.set_attr "paths_total" (Obs.Json.Float paths);
        reached)

let iter_reached ?scratch g dfa src f =
  with_scratch scratch (fun sc ->
      Array.iter (fun v -> f v sc.vdist.(v) sc.vcount.(v)) (solve_traced sc g dfa src))

let single_source ?scratch g dfa src =
  let nv = G.n_vertices g in
  let sr_dist = Array.make nv (-1) in
  let sr_count = Array.make nv B.zero in
  iter_reached ?scratch g dfa src (fun v d c ->
      sr_dist.(v) <- d;
      sr_count.(v) <- c);
  { sr_src = src; sr_dist; sr_count }

let single_pair g dfa s t =
  with_scratch None (fun sc ->
      ignore (solve_traced sc g dfa s);
      if sc.vstamp.(t) = sc.gen then Some (sc.vdist.(t), sc.vcount.(t)) else None)

let all_pairs g dfa ~sources f =
  Array.iter (fun s -> iter_reached g dfa s (fun t d c -> f s t d c)) sources

let exists_path g dfa s t = single_pair g dfa s t <> None
