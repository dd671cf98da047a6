(* Path-legality semantics — asserts the paper's exact numbers on its own
   example graphs, plus cross-engine consistency properties. *)

module B = Pgraph.Bignat
module G = Pgraph.Graph
module T = Pathsem.Toygraphs
module Sem = Pathsem.Semantics

let count g darpe sem ~src ~dst =
  Pathsem.Engine.count_single_pair g (Darpe.Parse.parse darpe) sem ~src ~dst

let check_count name expected actual = Alcotest.(check string) name expected (B.to_string actual)

(* --- Example 9 / Figure 5: multiplicities 3 / 4 / 2 / 1 on G1. --- *)
let test_example9_g1 () =
  let { T.g; vertex } = T.g1 () in
  let src = vertex "1" and dst = vertex "5" in
  check_count "non-repeated-vertex = 3" "3"
    (count g "E>*" Sem.Non_repeated_vertex ~src ~dst);
  check_count "non-repeated-edge = 4" "4"
    (count g "E>*" Sem.Non_repeated_edge ~src ~dst);
  check_count "all-shortest = 2" "2" (count g "E>*" Sem.All_shortest ~src ~dst);
  check_count "existential = 1" "1" (count g "E>*" Sem.Existential ~src ~dst);
  check_count "shortest-enumerated = 2" "2"
    (count g "E>*" Sem.Shortest_enumerated ~src ~dst)

(* --- Example 10 / Figure 6: shortest-path matches where the non-repeating
   semantics find nothing. --- *)
let test_example10_g2 () =
  let { T.g; vertex } = T.g2 () in
  let src = vertex "1" and dst = vertex "4" in
  let pattern = "E>*.F>.E>*" in
  check_count "NRV finds none" "0" (count g pattern Sem.Non_repeated_vertex ~src ~dst);
  check_count "NRE finds none" "0" (count g pattern Sem.Non_repeated_edge ~src ~dst);
  check_count "all-shortest finds one" "1" (count g pattern Sem.All_shortest ~src ~dst);
  (* And the witness has length 7: 1-2-3-5-6-2-3-4. *)
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse pattern) in
  (match Pathsem.Count.single_pair g dfa src dst with
   | Some (len, c) ->
     Alcotest.(check int) "witness length" 7 len;
     check_count "witness count" "1" c
   | None -> Alcotest.fail "expected a match")

(* --- Example 11 / Figure 7: 2^k paths, all semantics coincide. --- *)
let test_example11_diamond () =
  let { T.g; vertex } = T.diamond_chain 8 in
  let src = vertex "v0" in
  List.iter
    (fun k ->
      let dst = vertex (Printf.sprintf "v%d" k) in
      let expected = B.to_string (B.pow2 k) in
      check_count (Printf.sprintf "ASP 2^%d" k) expected (count g "E>*" Sem.All_shortest ~src ~dst);
      check_count (Printf.sprintf "NRE 2^%d" k) expected (count g "E>*" Sem.Non_repeated_edge ~src ~dst);
      check_count (Printf.sprintf "NRV 2^%d" k) expected
        (count g "E>*" Sem.Non_repeated_vertex ~src ~dst);
      check_count (Printf.sprintf "ASP-enum 2^%d" k) expected
        (count g "E>*" Sem.Shortest_enumerated ~src ~dst))
    [ 1; 2; 3; 5; 8 ]

let test_diamond_counting_scales () =
  (* The counting engine handles counts far beyond enumeration reach. *)
  let { T.g; vertex } = T.diamond_chain 60 in
  check_count "2^60 paths counted, none materialized"
    (B.to_string (B.pow2 60))
    (count g "E>*" Sem.All_shortest ~src:(vertex "v0") ~dst:(vertex "v60"))

(* --- §6.1 fixed-unique-length pattern on a cycle. --- *)
let test_fixed_unique_length_cycle () =
  let { T.g; vertex } = T.triangle_cycle () in
  let src = vertex "v" and dst = vertex "u" in
  let pattern = "A>.(B>|D>)._>.A>" in
  check_count "ASP matches through the cycle" "1" (count g pattern Sem.All_shortest ~src ~dst);
  check_count "NRV rejects (revisits v)" "0" (count g pattern Sem.Non_repeated_vertex ~src ~dst);
  check_count "NRE rejects (reuses A)" "0" (count g pattern Sem.Non_repeated_edge ~src ~dst)

(* --- Unrestricted semantics: infinitely many paths, bounded variant. --- *)
let test_unrestricted_bounded () =
  let { T.g; vertex } = T.g1 () in
  let src = vertex "1" and dst = vertex "5" in
  (* Length <= 4: only the two shortest paths exist. *)
  check_count "bound 4" "2" (count g "E>*" (Sem.Unrestricted_bounded 4) ~src ~dst);
  (* Raising the bound admits longer paths, including cycle wraps:
     len 5 does not divide into the graph's path lengths; at 7 the 6-hop
     detour via 9-10-11-12 and the 3-7-8-3 wrap (7 hops) appear. *)
  check_count "bound 7" "4" (count g "E>*" (Sem.Unrestricted_bounded 7) ~src ~dst);
  (* The count grows strictly with the bound — unrestricted semantics is
     non-terminating without one. *)
  let c10 = count g "E>*" (Sem.Unrestricted_bounded 10) ~src ~dst in
  let c13 = count g "E>*" (Sem.Unrestricted_bounded 13) ~src ~dst in
  Alcotest.(check bool) "monotone growth" true (B.compare c13 c10 > 0)

(* --- Distances and empty-word acceptance. --- *)
let test_distances () =
  let { T.g; vertex } = T.g1 () in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*") in
  let r = Pathsem.Count.single_source g dfa (vertex "1") in
  Alcotest.(check int) "dist to 5" 4 r.Pathsem.Count.sr_dist.(vertex "5");
  Alcotest.(check int) "dist to 2" 1 r.Pathsem.Count.sr_dist.(vertex "2");
  (* Kleene star accepts the empty word: the source matches itself with one
     zero-length path. *)
  Alcotest.(check int) "dist to self" 0 r.Pathsem.Count.sr_dist.(vertex "1");
  check_count "self count" "1" r.Pathsem.Count.sr_count.(vertex "1");
  (* Under E>*1.. the empty path no longer matches, and vertex 1 has no
     incoming E edge, so it is unreachable from itself. *)
  let dfa1 = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*1..") in
  let r1 = Pathsem.Count.single_source g dfa1 (vertex "1") in
  Alcotest.(check int) "no self match" (-1) r1.Pathsem.Count.sr_dist.(vertex "1")

let test_mixed_direction_pattern () =
  (* x -A-> y <-B- z : reachable from x via A>.<B *)
  let s = Pgraph.Schema.create () in
  let _ = Pgraph.Schema.add_vertex_type s "V" [] in
  let _ = Pgraph.Schema.add_edge_type s "A" ~directed:true [] in
  let _ = Pgraph.Schema.add_edge_type s "B" ~directed:true [] in
  let _ = Pgraph.Schema.add_edge_type s "U" ~directed:false [] in
  let g = G.create s in
  let x = G.add_vertex g "V" [] and y = G.add_vertex g "V" [] and z = G.add_vertex g "V" []
  and w = G.add_vertex g "V" [] in
  let _ = G.add_edge g "A" x y [] in
  let _ = G.add_edge g "B" z y [] in
  let _ = G.add_edge g "U" z w [] in
  check_count "A>.<B" "1"
    (Pathsem.Engine.count_single_pair g (Darpe.Parse.parse "A>.<B") Sem.All_shortest ~src:x ~dst:z);
  check_count "A>.<B.U crosses undirected" "1"
    (Pathsem.Engine.count_single_pair g (Darpe.Parse.parse "A>.<B.U") Sem.All_shortest ~src:x ~dst:w);
  check_count "undirected traversed from either side" "1"
    (Pathsem.Engine.count_single_pair g (Darpe.Parse.parse "U") Sem.All_shortest ~src:w ~dst:z)

let test_match_pairs_interface () =
  let { T.g; vertex } = T.diamond_chain 3 in
  let src = vertex "v0" in
  let bindings =
    Pathsem.Engine.match_pairs g (Darpe.Parse.parse "E>*1..") Sem.All_shortest
      ~sources:[| src |] ~dst_ok:(fun _ -> true)
  in
  (* Reachable: every a_i, b_i and v_1..v_3 — 9 vertices. *)
  Alcotest.(check int) "binding count" 9 (List.length bindings);
  let v3 = vertex "v3" in
  let b = List.find (fun b -> b.Pathsem.Engine.b_dst = v3) bindings in
  check_count "v3 multiplicity" "8" b.Pathsem.Engine.b_mult;
  Alcotest.(check int) "v3 distance" 6 b.Pathsem.Engine.b_dist

let test_backward_dists_consistent () =
  let { T.g; vertex } = T.g1 () in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*") in
  let src = vertex "1" and dst = vertex "5" in
  let bdist = Pathsem.Enumerate.backward_product_dists g dfa ~dst in
  let nq = dfa.Darpe.Dfa.n_states in
  let fwd = Pathsem.Count.single_source g dfa src in
  (* Forward distance to dst equals backward distance from (src, start). *)
  Alcotest.(check int) "fwd = bwd" fwd.Pathsem.Count.sr_dist.(dst)
    bdist.((src * nq) + dfa.Darpe.Dfa.start)

(* --- Properties: on random DAGs all shortest-path engines agree, and the
   enumerative shortest engine always matches the counting engine. --- *)

let random_dag seed nv extra =
  let s = Pgraph.Schema.create () in
  let _ = Pgraph.Schema.add_vertex_type s "V" [] in
  let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
  let g = G.create s in
  for _ = 1 to nv do ignore (G.add_vertex g "V" []) done;
  let rng = Pgraph.Prng.create seed in
  (* Edges only i -> j with i < j: acyclic by construction. *)
  for _ = 1 to extra do
    let i = Pgraph.Prng.int rng (nv - 1) in
    let j = Pgraph.Prng.int_in_range rng (i + 1) (nv - 1) in
    ignore (G.add_edge g "E" i j [])
  done;
  g

(* Theorem 6.1 as the counting kernel's oracle.  For every source and
   every target, [sr_dist] must be the length and [sr_count] the number of
   the shortest satisfying paths the enumerator materializes (it prunes by
   a backward product BFS, independent of the forward kernel) — on cyclic
   graphs with directed, undirected, parallel and self-loop edges, over the
   fixed mixed patterns and random DARPEs.  Sources alternate between two
   graphs of different |V| and DFAs of different |Q|, and between the
   scratch this domain keeps and one the caller passes (the [?scratch]
   path bench/e2e/layers.ml takes), so a stale stamp or a missed growth
   of either scratch shows up as a wrong answer. *)
let random_mixed_pattern rng =
  let pick a = a.(Pgraph.Prng.int rng (Array.length a)) in
  let atom () =
    let ty = pick [| "A"; "B"; "U" |] in
    match Pgraph.Prng.int rng 5 with
    | 0 -> ty ^ ">"
    | 1 -> "<" ^ ty
    | 2 -> ty
    | 3 -> ty ^ "?"
    | _ -> "_>"
  in
  let piece () =
    let a = atom () in
    match Pgraph.Prng.int rng 6 with
    | 0 -> a ^ "*"
    | 1 -> a ^ "*1..2"
    | 2 -> a ^ "*0..0"
    | _ -> a
  in
  match Pgraph.Prng.int rng 4 with
  | 0 -> piece ()
  | 1 -> piece () ^ "." ^ piece ()
  | 2 -> "(" ^ atom () ^ "|" ^ atom () ^ ")*"
  | _ -> "(" ^ atom () ^ "|" ^ atom () ^ ")"

let check_against_enumeration ?scratch g dfa ~label src =
  let r = Pathsem.Count.single_source ?scratch g dfa src in
  for dst = 0 to G.n_vertices g - 1 do
    let n = ref 0 and len = ref (-1) in
    Pathsem.Enumerate.iter_paths g dfa Sem.Shortest_enumerated ~src ~dst:(Some dst) (fun p ->
        incr n;
        len := Array.length p.Pathsem.Enumerate.p_edges);
    let d = r.Pathsem.Count.sr_dist.(dst) and c = r.Pathsem.Count.sr_count.(dst) in
    if d <> !len || not (B.equal c (B.of_int !n)) then
      QCheck.Test.fail_reportf "%s: %d -> %d: kernel dist %d count %s, enumerated %d paths of length %d"
        label src dst d (B.to_string c) !n !len
  done

let prop_counting_agrees_with_enumeration =
  QCheck.Test.make ~name:"counting = enumerated shortest on mixed cyclic graphs and DARPEs"
    ~count:40
    (QCheck.triple QCheck.small_int (QCheck.int_range 2 9) (QCheck.int_range 0 24))
    (fun (seed, nv, ne) ->
      let small = Testkit.Fixtures.random_mixed seed nv ne in
      let large = Testkit.Fixtures.random_mixed (seed + 1) (nv + 4) (ne + 8) in
      let rng = Pgraph.Prng.create (seed + 99) in
      let patterns =
        Testkit.Fixtures.mixed_patterns @ List.init 3 (fun _ -> random_mixed_pattern rng)
      in
      let compile g pat = (pat, Pathsem.Engine.compile g (Darpe.Parse.parse pat)) in
      let caller = Pathsem.Count.create_scratch () in
      List.iteri
        (fun i pat ->
          (* Pair each pattern with a neighbour so consecutive runs switch
             both graph size and DFA size. *)
          let other = List.nth patterns ((i + 1) mod List.length patterns) in
          let pa, da = compile small pat and pb, db = compile large other in
          for src = 0 to G.n_vertices large - 1 do
            let scratch = if src mod 2 = 0 then Some caller else None in
            if src < nv then check_against_enumeration ?scratch small da ~label:pa src;
            check_against_enumeration ?scratch large db ~label:pb src
          done)
        patterns;
      true)

let prop_enumerated_paths_are_valid =
  QCheck.Test.make ~name:"enumerated paths satisfy the DARPE and legality" ~count:40
    (QCheck.triple QCheck.small_int (QCheck.int_range 3 8) (QCheck.int_range 0 16))
    (fun (seed, nv, ne) ->
      let g = random_dag seed nv ne in
      let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*1..") in
      let ok = ref true in
      Pathsem.Enumerate.iter_paths g dfa Sem.Non_repeated_edge ~src:0 ~dst:None (fun p ->
          let open Pathsem.Enumerate in
          (* Edges distinct. *)
          let sorted = Array.copy p.p_edges in
          Array.sort compare sorted;
          for i = 1 to Array.length sorted - 1 do
            if sorted.(i) = sorted.(i - 1) then ok := false
          done;
          (* Path is connected and satisfies the automaton. *)
          let word =
            Array.to_list
              (Array.mapi
                 (fun i e ->
                   let u = p.p_vertices.(i) and v = p.p_vertices.(i + 1) in
                   if not ((G.edge_src g e = u && G.edge_dst g e = v)
                           || (G.edge_src g e = v && G.edge_dst g e = u))
                   then ok := false;
                   let rel = if G.edge_src g e = u then G.Out else G.In in
                   (G.edge_type_id g e, rel))
                 p.p_edges)
          in
          if Array.length p.p_edges > 0 && not (Darpe.Dfa.matches_word dfa word) then ok := false);
      !ok)

let prop_nrv_subset_of_nre =
  QCheck.Test.make ~name:"NRV count <= NRE count" ~count:40
    (QCheck.triple QCheck.small_int (QCheck.int_range 3 7) (QCheck.int_range 0 14))
    (fun (seed, nv, ne) ->
      (* On arbitrary (possibly cyclic) random graphs. *)
      let s = Pgraph.Schema.create () in
      let _ = Pgraph.Schema.add_vertex_type s "V" [] in
      let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
      let g = G.create s in
      for _ = 1 to nv do ignore (G.add_vertex g "V" []) done;
      let rng = Pgraph.Prng.create (seed + 7777) in
      for _ = 1 to ne do
        let i = Pgraph.Prng.int rng nv and j = Pgraph.Prng.int rng nv in
        if i <> j then ignore (G.add_edge g "E" i j [])
      done;
      let ast = Darpe.Parse.parse "E>*" in
      let ok = ref true in
      for src = 0 to nv - 1 do
        for dst = 0 to nv - 1 do
          let nrv = Pathsem.Engine.count_single_pair g ast Sem.Non_repeated_vertex ~src ~dst in
          let nre = Pathsem.Engine.count_single_pair g ast Sem.Non_repeated_edge ~src ~dst in
          if B.compare nrv nre > 0 then ok := false
        done
      done;
      !ok)



let test_all_pairs_flavor () =
  (* The all-paths SDMC flavor (paper §6): union of single-source results. *)
  let { T.g; vertex } = T.diamond_chain 3 in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*1..") in
  let total = ref B.zero in
  let pairs = ref 0 in
  Pathsem.Count.all_pairs g dfa
    ~sources:(Array.init (G.n_vertices g) (fun i -> i))
    (fun _src _dst _dist count ->
      incr pairs;
      total := B.add !total count);
  Alcotest.(check bool) "some pairs" true (!pairs > 0);
  (* The v0→v3 pair contributes its 8 shortest paths to the union. *)
  let c = ref B.zero in
  Pathsem.Count.all_pairs g dfa ~sources:[| vertex "v0" |] (fun _ dst _ count ->
      if dst = vertex "v3" then c := count);
  check_count "v0->v3 in all-pairs" "8" !c

let test_semantics_string_roundtrip () =
  List.iter
    (fun sem ->
      Alcotest.(check bool)
        (Sem.to_string sem ^ " roundtrips")
        true
        (Sem.of_string (Sem.to_string sem) = Some sem))
    [ Sem.All_shortest; Sem.Shortest_enumerated; Sem.Non_repeated_edge;
      Sem.Non_repeated_vertex; Sem.Existential; Sem.Unrestricted_bounded 7 ];
  Alcotest.(check bool) "unknown rejected" true (Sem.of_string "bogus" = None);
  Alcotest.(check bool) "bad bound rejected" true (Sem.of_string "unrestricted:x" = None);
  Alcotest.(check bool) "enumerative classification" true
    (Sem.is_enumerative Sem.Non_repeated_edge && not (Sem.is_enumerative Sem.All_shortest))

(* --- Witness extraction (paper §4.3 "proof of connectivity") --- *)

let test_witness_single () =
  let { T.g; vertex } = T.g1 () in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*") in
  (match Pathsem.Witness.shortest g dfa ~src:(vertex "1") ~dst:(vertex "5") with
   | Some p ->
     Alcotest.(check int) "witness length" 4 (Array.length p.Pathsem.Enumerate.p_edges);
     Alcotest.(check int) "starts at src" (vertex "1") p.Pathsem.Enumerate.p_vertices.(0);
     Alcotest.(check int) "ends at dst" (vertex "5")
       p.Pathsem.Enumerate.p_vertices.(Array.length p.Pathsem.Enumerate.p_vertices - 1)
   | None -> Alcotest.fail "expected a witness");
  Alcotest.(check bool) "no witness when unreachable" true
    (Pathsem.Witness.shortest g dfa ~src:(vertex "5") ~dst:(vertex "1") = None)

let test_witness_k_shortest () =
  (* Diamond 30 has 2^30 shortest paths; extracting 5 witnesses must be
     instant (cost O(k·length), not O(2^30)). *)
  let { T.g; vertex } = T.diamond_chain 30 in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*") in
  let witnesses =
    Pathsem.Witness.k_shortest g dfa ~src:(vertex "v0") ~dst:(vertex "v30") ~k:5
  in
  Alcotest.(check int) "five witnesses" 5 (List.length witnesses);
  (* All distinct, all of length 60, all valid per the DFA. *)
  let as_lists = List.map (fun p -> Array.to_list p.Pathsem.Enumerate.p_edges) witnesses in
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare as_lists));
  List.iter
    (fun p -> Alcotest.(check int) "length 60" 60 (Array.length p.Pathsem.Enumerate.p_edges))
    witnesses;
  (* k larger than the path count truncates. *)
  let { T.g = g2; vertex = v2 } = T.diamond_chain 2 in
  let dfa2 = Pathsem.Engine.compile g2 (Darpe.Parse.parse "E>*") in
  Alcotest.(check int) "only 4 exist" 4
    (List.length (Pathsem.Witness.k_shortest g2 dfa2 ~src:(v2 "v0") ~dst:(v2 "v2") ~k:100))

let test_witness_to_value () =
  let { T.g; vertex } = T.diamond_chain 1 in
  let dfa = Pathsem.Engine.compile g (Darpe.Parse.parse "E>*") in
  match Pathsem.Witness.shortest g dfa ~src:(vertex "v0") ~dst:(vertex "v1") with
  | Some p ->
    (match Pathsem.Witness.to_value p with
     | Pgraph.Value.Vlist [ Pgraph.Value.Vertex a; Pgraph.Value.Edge _;
                            Pgraph.Value.Vertex _; Pgraph.Value.Edge _;
                            Pgraph.Value.Vertex b ] ->
       Alcotest.(check int) "starts at v0" (vertex "v0") a;
       Alcotest.(check int) "ends at v1" (vertex "v1") b
     | v -> Alcotest.failf "unexpected rendering %s" (Pgraph.Value.to_string v))
  | None -> Alcotest.fail "expected witness"


(* Independent reference: for the exact-length pattern E>*k, every
   satisfying path has length k, so all are shortest and the SDMC count
   must equal the (s,t) entry of the adjacency matrix raised to the k-th
   power — on arbitrary graphs, cycles included. *)
let prop_counting_matches_matrix_power =
  QCheck.Test.make ~name:"SDMC of E>*k = adjacency^k (cyclic graphs)" ~count:40
    (QCheck.triple QCheck.small_int (QCheck.int_range 2 7) (QCheck.int_range 1 5))
    (fun (seed, nv, k) ->
      let s = Pgraph.Schema.create () in
      let _ = Pgraph.Schema.add_vertex_type s "V" [] in
      let _ = Pgraph.Schema.add_edge_type s "E" ~directed:true [] in
      let g = G.create s in
      for _ = 1 to nv do ignore (G.add_vertex g "V" []) done;
      let rng = Pgraph.Prng.create (seed + 555) in
      let adj = Array.make_matrix nv nv 0 in
      for _ = 1 to nv * 2 do
        let i = Pgraph.Prng.int rng nv and j = Pgraph.Prng.int rng nv in
        if i <> j then begin
          ignore (G.add_edge g "E" i j []);
          adj.(i).(j) <- adj.(i).(j) + 1
        end
      done;
      (* adjacency^k by repeated multiplication. *)
      let mul a b =
        Array.init nv (fun i ->
            Array.init nv (fun j ->
                let acc = ref 0 in
                for l = 0 to nv - 1 do acc := !acc + (a.(i).(l) * b.(l).(j)) done;
                !acc))
      in
      let rec power m i = if i = 1 then m else mul (power m (i - 1)) adj in
      let mk = power adj k in
      let ast = Darpe.Parse.parse (Printf.sprintf "E>*%d" k) in
      let ok = ref true in
      for src = 0 to nv - 1 do
        for dst = 0 to nv - 1 do
          let c = Pathsem.Engine.count_single_pair g ast Sem.All_shortest ~src ~dst in
          let expected = mk.(src).(dst) in
          if B.to_string c <> string_of_int expected then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "pathsem"
    [ ( "paper-examples",
        [ Alcotest.test_case "example 9 (G1)" `Quick test_example9_g1;
          Alcotest.test_case "example 10 (G2)" `Quick test_example10_g2;
          Alcotest.test_case "example 11 (diamond)" `Quick test_example11_diamond;
          Alcotest.test_case "diamond 2^60" `Quick test_diamond_counting_scales;
          Alcotest.test_case "fixed-unique-length cycle" `Quick test_fixed_unique_length_cycle ] );
      ( "engines",
        [ Alcotest.test_case "unrestricted bounded" `Quick test_unrestricted_bounded;
          Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "mixed directions" `Quick test_mixed_direction_pattern;
          Alcotest.test_case "match_pairs" `Quick test_match_pairs_interface;
          Alcotest.test_case "backward dists" `Quick test_backward_dists_consistent ] );
      ( "flavors",
        [ Alcotest.test_case "all-pairs SDMC" `Quick test_all_pairs_flavor;
          Alcotest.test_case "semantics strings" `Quick test_semantics_string_roundtrip ] );
      ( "witnesses",
        [ Alcotest.test_case "single" `Quick test_witness_single;
          Alcotest.test_case "k-shortest from 2^30" `Quick test_witness_k_shortest;
          Alcotest.test_case "to_value" `Quick test_witness_to_value ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_counting_matches_matrix_power;
            prop_counting_agrees_with_enumeration;
            prop_enumerated_paths_are_valid;
            prop_nrv_subset_of_nre ] ) ]
