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

(* Flat BFS working state, reused across sources (and across hops within a
   source).  [stamp] generation-marks which product states the current
   source has discovered, so successive runs skip the O(|V|·|Q|) clears:
   dist.(p)/count.(p) are meaningful iff stamp.(p) = gen.  One scratch per
   domain — the parallel per-source engine gives each worker its own. *)
type scratch = {
  mutable cap : int;
  mutable dist : int array;
  mutable count : B.t array;
  mutable stamp : int array;
  mutable cur : int array;  (* frontier, product-state ids *)
  mutable nxt : int array;
  mutable gen : int;
}

let create_scratch () =
  { cap = 0; dist = [||]; count = [||]; stamp = [||]; cur = [||]; nxt = [||]; gen = 0 }

let ensure scratch n =
  if scratch.cap < n then begin
    scratch.cap <- n;
    scratch.dist <- Array.make n (-1);
    scratch.count <- Array.make n B.zero;
    scratch.stamp <- Array.make n 0;
    scratch.cur <- Array.make n 0;
    scratch.nxt <- Array.make n 0;
    scratch.gen <- 0
  end

(* Product-state indexing: pid = v * |Q| + q. *)
let single_source_inner ?scratch g (dfa : Darpe.Dfa.t) src ~hop_widths =
  let record = Obs.Metrics.enabled () in
  let csr = Csr.of_graph g in
  let nq = dfa.Darpe.Dfa.n_states in
  let nv = csr.Csr.nv in
  let n = nv * nq in
  let scratch = match scratch with Some s -> s | None -> create_scratch () in
  ensure scratch n;
  scratch.gen <- scratch.gen + 1;
  let gen = scratch.gen in
  let dist = scratch.dist
  and count = scratch.count
  and stamp = scratch.stamp in
  let cur = ref scratch.cur and nxt = ref scratch.nxt in
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
  !cur.(0) <- start;
  let cur_len = ref 1 in
  let level = ref 0 in
  while !cur_len > 0 do
    let d = !level in
    let governed = Interrupt.governed () in
    if record || governed || hop_widths <> None then begin
      let width = !cur_len in
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
    let frontier = !cur and next = !nxt in
    let nxt_len = ref 0 in
    for i = 0 to !cur_len - 1 do
      let p = frontier.(i) in
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
              next.(!nxt_len) <- p';
              incr nxt_len
            end
            else if dist.(p') = d + 1 then count.(p') <- B.add count.(p') c
          done
      done
    done;
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp;
    cur_len := !nxt_len;
    incr level
  done;
  scratch.cur <- !cur;
  scratch.nxt <- !nxt;
  (* Collapse product states to per-vertex results over accepting DFA
     states: the shortest satisfying path length is the min over accepting
     states, and its count sums the accepting states at that distance
     (disjoint path sets, by DFA determinism). *)
  let accepting = dfa.Darpe.Dfa.accepting in
  let sr_dist = Array.make nv (-1) in
  let sr_count = Array.make nv B.zero in
  for v = 0 to nv - 1 do
    for q = 0 to nq - 1 do
      if accepting.(q) then begin
        let p = (v * nq) + q in
        if stamp.(p) = gen then begin
          let dq = dist.(p) in
          if sr_dist.(v) = -1 || dq < sr_dist.(v) then begin
            sr_dist.(v) <- dq;
            sr_count.(v) <- count.(p)
          end
          else if dq = sr_dist.(v) then sr_count.(v) <- B.add sr_count.(v) count.(p)
        end
      end
    done
  done;
  { sr_src = src; sr_dist; sr_count }

(* The pre-CSR kernel — Vec-of-half adjacency walk with list frontiers.
   Kept as the differential-testing reference (test_csr.ml proves random
   graphs agree) and for the ablation bench; not on any hot path. *)
let single_source_legacy g (dfa : Darpe.Dfa.t) src =
  let nq = dfa.Darpe.Dfa.n_states in
  let nv = G.n_vertices g in
  let n = nv * nq in
  let dist = Array.make n (-1) in
  let count = Array.make n B.zero in
  let pid v q = (v * nq) + q in
  let start = pid src dfa.Darpe.Dfa.start in
  dist.(start) <- 0;
  count.(start) <- B.one;
  let frontier = ref [ start ] in
  let level = ref 0 in
  while !frontier <> [] do
    let next = ref [] in
    let d = !level in
    if Interrupt.governed () then begin
      let width = List.length !frontier in
      Interrupt.check_rows width;
      Interrupt.tick_n width
    end;
    List.iter
      (fun p ->
        let v = p / nq and q = p mod nq in
        let c = count.(p) in
        G.iter_adjacent g v (fun h ->
            let etype = G.edge_type_id g h.G.h_edge in
            let q' = Darpe.Dfa.step dfa q ~etype ~rel:h.G.h_rel in
            if q' >= 0 && dfa.Darpe.Dfa.live.(q') then begin
              let p' = pid h.G.h_other q' in
              if dist.(p') = -1 then begin
                dist.(p') <- d + 1;
                count.(p') <- c;
                next := p' :: !next
              end
              else if dist.(p') = d + 1 then count.(p') <- B.add count.(p') c
            end))
      !frontier;
    frontier := !next;
    incr level
  done;
  let sr_dist = Array.make nv (-1) in
  let sr_count = Array.make nv B.zero in
  for v = 0 to nv - 1 do
    for q = 0 to nq - 1 do
      if dfa.Darpe.Dfa.accepting.(q) then begin
        let dq = dist.(pid v q) in
        if dq >= 0 then
          if sr_dist.(v) = -1 || dq < sr_dist.(v) then begin
            sr_dist.(v) <- dq;
            sr_count.(v) <- count.(pid v q)
          end
          else if dq = sr_dist.(v) then sr_count.(v) <- B.add sr_count.(v) count.(pid v q)
      end
    done
  done;
  { sr_src = src; sr_dist; sr_count }

let single_source ?scratch g dfa src =
  if not (Obs.Trace.enabled ()) then single_source_inner ?scratch g dfa src ~hop_widths:None
  else
    Obs.Trace.span "bfs" (fun () ->
        let ws = ref [] in
        let r = single_source_inner ?scratch g dfa src ~hop_widths:(Some ws) in
        let reached = ref 0 and paths = ref 0.0 in
        Array.iteri
          (fun v d ->
            if d >= 0 then begin
              incr reached;
              paths := !paths +. B.to_float r.sr_count.(v)
            end)
          r.sr_dist;
        Obs.Trace.set_attr "src" (Obs.Json.Int src);
        Obs.Trace.set_attr "hops" (Obs.Json.Int (List.length !ws));
        Obs.Trace.set_attr "frontiers"
          (Obs.Json.List (List.rev_map (fun w -> Obs.Json.Int w) !ws));
        Obs.Trace.set_attr "reached" (Obs.Json.Int !reached);
        Obs.Trace.set_attr "paths_total" (Obs.Json.Float !paths);
        r)

let single_pair g dfa s t =
  let r = single_source g dfa s in
  if r.sr_dist.(t) = -1 then None else Some (r.sr_dist.(t), r.sr_count.(t))

let all_pairs g dfa ~sources f =
  let scratch = create_scratch () in
  Array.iter
    (fun s ->
      let r = single_source ~scratch g dfa s in
      Array.iteri (fun t d -> if d >= 0 then f s t d r.sr_count.(t)) r.sr_dist)
    sources

let exists_path g dfa s t = single_pair g dfa s t <> None
