(* Accumulator library: combiner behaviour, snapshot semantics,
   multiplicity shortcuts, merging, and order-invariance properties. *)

module V = Pgraph.Value
module B = Pgraph.Bignat
module Spec = Accum.Spec
module Acc = Accum.Acc
module Store = Accum.Store

let value = Alcotest.testable V.pp V.equal

let check_read name expected acc = Alcotest.check value name expected (Acc.read acc)

let test_sum () =
  let a = Acc.create Spec.Sum_int in
  check_read "initial" (V.Int 0) a;
  Acc.input a (V.Int 3);
  Acc.input a (V.Int 4);
  check_read "3+4" (V.Int 7) a;
  let f = Acc.create Spec.Sum_float in
  Acc.input f (V.Float 1.5);
  Acc.input f (V.Int 2);
  check_read "float sum promotes ints" (V.Float 3.5) f;
  let s = Acc.create Spec.Sum_string in
  Acc.input s (V.Str "ab");
  Acc.input s (V.Str "cd");
  check_read "string concat" (V.Str "abcd") s

let test_min_max () =
  let mn = Acc.create Spec.Min_acc and mx = Acc.create Spec.Max_acc in
  check_read "empty min is null" V.Null mn;
  List.iter (fun v -> Acc.input mn v; Acc.input mx v) [ V.Int 5; V.Int 2; V.Int 9; V.Int 2 ];
  check_read "min" (V.Int 2) mn;
  check_read "max" (V.Int 9) mx;
  Acc.input mn (V.Float 1.5);
  check_read "min across numeric kinds" (V.Float 1.5) mn

let test_avg_order_invariant () =
  let a = Acc.create Spec.Avg_acc in
  check_read "empty avg" (V.Float 0.0) a;
  List.iter (fun v -> Acc.input a (V.Int v)) [ 1; 2; 3; 4 ];
  check_read "avg" (V.Float 2.5) a;
  (* Same inputs, different order. *)
  let b = Acc.create Spec.Avg_acc in
  List.iter (fun v -> Acc.input b (V.Int v)) [ 4; 3; 2; 1 ];
  Alcotest.check value "order invariant" (Acc.read a) (Acc.read b)

let test_bool () =
  let o = Acc.create Spec.Or_acc and a = Acc.create Spec.And_acc in
  check_read "or empty" (V.Bool false) o;
  check_read "and empty" (V.Bool true) a;
  Acc.input o (V.Bool false);
  Acc.input o (V.Bool true);
  check_read "or" (V.Bool true) o;
  Acc.input a (V.Bool true);
  Acc.input a (V.Bool false);
  check_read "and" (V.Bool false) a

let test_collections () =
  let s = Acc.create Spec.Set_acc in
  List.iter (fun v -> Acc.input s (V.Int v)) [ 3; 1; 3; 2 ];
  check_read "set dedups and sorts" (V.Vlist [ V.Int 1; V.Int 2; V.Int 3 ]) s;
  Alcotest.(check int) "set size" 3 (Acc.size s);
  let b = Acc.create Spec.Bag_acc in
  List.iter (fun v -> Acc.input b (V.Int v)) [ 3; 1; 3 ];
  check_read "bag keeps duplicates" (V.Vlist [ V.Int 1; V.Int 3; V.Int 3 ]) b;
  Alcotest.(check int) "bag size counts multiplicity" 3 (Acc.size b);
  let l = Acc.create Spec.List_acc in
  List.iter (fun v -> Acc.input l (V.Int v)) [ 3; 1; 3 ];
  check_read "list keeps order" (V.Vlist [ V.Int 3; V.Int 1; V.Int 3 ]) l

let test_map_nested () =
  let m = Acc.create (Spec.Map_acc Spec.Sum_int) in
  Acc.input m (V.Vtuple [| V.Str "a"; V.Int 1 |]);
  Acc.input m (V.Vtuple [| V.Str "b"; V.Int 5 |]);
  Acc.input m (V.Vtuple [| V.Str "a"; V.Int 2 |]);
  Alcotest.check value "per-key sums" (V.Int 3) (Acc.map_find m (V.Str "a"));
  Alcotest.check value "other key" (V.Int 5) (Acc.map_find m (V.Str "b"));
  Alcotest.check value "missing key" V.Null (Acc.map_find m (V.Str "z"));
  check_read "read as sorted pairs"
    (V.Vlist [ V.Vtuple [| V.Str "a"; V.Int 3 |]; V.Vtuple [| V.Str "b"; V.Int 5 |] ])
    m;
  (* Two-level nesting: map of maps. *)
  let mm = Acc.create (Spec.Map_acc (Spec.Map_acc Spec.Sum_int)) in
  Acc.input mm (V.Vtuple [| V.Str "x"; V.Vtuple [| V.Int 1; V.Int 10 |] |]);
  Acc.input mm (V.Vtuple [| V.Str "x"; V.Vtuple [| V.Int 1; V.Int 5 |] |]);
  Alcotest.check value "nested map"
    (V.Vlist [ V.Vtuple [| V.Int 1; V.Int 15 |] ])
    (Acc.map_find mm (V.Str "x"))

let heap_spec = Spec.Heap_acc { Spec.h_capacity = 3; Spec.h_fields = [ (1, Spec.Desc) ] }

let test_heap () =
  let h = Acc.create heap_spec in
  let tup name score = V.Vtuple [| V.Str name; V.Int score |] in
  List.iter (fun (n, s) -> Acc.input h (tup n s))
    [ ("a", 5); ("b", 9); ("c", 1); ("d", 7); ("e", 8) ];
  (* Top-3 by score descending: b(9), e(8), d(7). *)
  check_read "top-k retained in order" (V.Vlist [ tup "b" 9; tup "e" 8; tup "d" 7 ]) h;
  Alcotest.(check int) "capacity respected" 3 (Acc.size h)

let test_heap_lexicographic () =
  let spec =
    Spec.Heap_acc { Spec.h_capacity = 10; Spec.h_fields = [ (0, Spec.Asc); (1, Spec.Desc) ] }
  in
  let h = Acc.create spec in
  let tup a b = V.Vtuple [| V.Int a; V.Int b |] in
  List.iter (fun (a, b) -> Acc.input h (tup a b)) [ (2, 1); (1, 5); (1, 9); (2, 8) ];
  check_read "asc then desc" (V.Vlist [ tup 1 9; tup 1 5; tup 2 8; tup 2 1 ]) h

let test_group_by () =
  (* Example 12: GroupByAccum with sum/min/avg nested aggregates. *)
  let g = Acc.create (Spec.Group_by (2, [ Spec.Sum_float; Spec.Min_acc; Spec.Avg_acc ])) in
  let feed k1 k2 a1 a2 a3 =
    Acc.input g
      (V.Vtuple
         [| V.Vtuple [| V.Str k1; V.Int k2 |];
            V.Vtuple [| V.Float a1; V.Int a2; V.Float a3 |] |])
  in
  feed "x" 1 1.0 5 10.0;
  feed "x" 1 2.0 3 20.0;
  feed "y" 2 5.0 7 30.0;
  check_read "grouped aggregates"
    (V.Vlist
       [ V.Vtuple [| V.Str "x"; V.Int 1; V.Float 3.0; V.Int 3; V.Float 15.0 |];
         V.Vtuple [| V.Str "y"; V.Int 2; V.Float 5.0; V.Int 7; V.Float 30.0 |] ])
    g;
  (* Null inputs skip individual nested accumulators — the grouping-set
     simulation of Example 12 depends on this. *)
  Acc.input g
    (V.Vtuple [| V.Vtuple [| V.Str "y"; V.Int 2 |]; V.Vtuple [| V.Float 1.0; V.Null; V.Null |] |]);
  (match Acc.read g with
   | V.Vlist [ _; V.Vtuple row ] ->
     Alcotest.check value "sum updated" (V.Float 6.0) row.(2);
     Alcotest.check value "min untouched" (V.Int 7) row.(3)
   | other -> Alcotest.failf "unexpected read: %s" (V.to_string other))

let test_assign () =
  let a = Acc.create Spec.Sum_int in
  Acc.input a (V.Int 10);
  Acc.assign a (V.Int 3);
  check_read "assign overwrites" (V.Int 3) a;
  Acc.input a (V.Int 1);
  check_read "input after assign" (V.Int 4) a;
  let s = Acc.create Spec.Set_acc in
  Acc.assign s (V.Vlist [ V.Int 2; V.Int 2; V.Int 1 ]);
  check_read "set assign dedups" (V.Vlist [ V.Int 1; V.Int 2 ]) s;
  let mn = Acc.create Spec.Min_acc in
  Acc.input mn (V.Int 1);
  Acc.assign mn V.Null;
  check_read "min cleared by null" V.Null mn

let test_input_mult_shortcuts () =
  (* Theorem 7.1's reduced inputs: µ-scaled sums, weighted averages, bumped
     bag counts, min(µ, capacity) heap copies, single input for
     multiplicity-insensitive types. *)
  let mu = B.pow2 40 in
  let si = Acc.create Spec.Sum_int in
  Acc.input_mult si (V.Int 3) mu;
  check_read "sum_int scaled" (V.Int (3 * (1 lsl 40))) si;
  let sf = Acc.create Spec.Sum_float in
  Acc.input_mult sf (V.Float 0.5) (B.of_int 6);
  check_read "sum_float scaled" (V.Float 3.0) sf;
  let avg = Acc.create Spec.Avg_acc in
  Acc.input_mult avg (V.Int 10) (B.of_int 3);
  Acc.input_mult avg (V.Int 2) (B.of_int 1);
  check_read "weighted avg" (V.Float 8.0) avg;
  let bag = Acc.create Spec.Bag_acc in
  Acc.input_mult bag (V.Str "x") (B.of_int 5);
  Alcotest.(check int) "bag multiplicity" 5 (Acc.size bag);
  let set = Acc.create Spec.Set_acc in
  Acc.input_mult set (V.Str "x") mu;
  Alcotest.(check int) "set inputs once" 1 (Acc.size set);
  let mn = Acc.create Spec.Min_acc in
  Acc.input_mult mn (V.Int 4) mu;
  check_read "min unaffected by multiplicity" (V.Int 4) mn;
  let h = Acc.create heap_spec in
  Acc.input_mult h (V.Vtuple [| V.Str "a"; V.Int 1 |]) mu;
  Alcotest.(check int) "heap capped at capacity" 3 (Acc.size h)

let test_input_mult_equivalence () =
  (* For every multiplicity-sensitive accumulator, input_mult µ must equal µ
     plain inputs. *)
  let mu = 7 in
  let check spec mk_input name =
    let a = Acc.create spec and b = Acc.create spec in
    Acc.input_mult a mk_input (B.of_int mu);
    for _ = 1 to mu do Acc.input b mk_input done;
    Alcotest.check value name (Acc.read b) (Acc.read a)
  in
  check Spec.Sum_int (V.Int 3) "sum_int";
  check Spec.Sum_float (V.Float 1.5) "sum_float";
  check Spec.Avg_acc (V.Int 4) "avg";
  check Spec.Bag_acc (V.Str "v") "bag";
  check Spec.List_acc (V.Int 1) "list";
  check Spec.Sum_string (V.Str "ab") "sum_string";
  check heap_spec (V.Vtuple [| V.Str "a"; V.Int 1 |]) "heap";
  check (Spec.Map_acc Spec.Sum_int) (V.Vtuple [| V.Str "k"; V.Int 2 |]) "map of sums"

let test_input_mult_overflow_rejected () =
  let l = Acc.create Spec.List_acc in
  (match Acc.input_mult l (V.Int 1) (B.pow2 80) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "expected Invalid_argument for huge ListAccum multiplicity")

let test_copy_independent () =
  let m = Acc.create (Spec.Map_acc Spec.Sum_int) in
  Acc.input m (V.Vtuple [| V.Str "a"; V.Int 1 |]);
  let snapshot = Acc.copy m in
  Acc.input m (V.Vtuple [| V.Str "a"; V.Int 1 |]);
  Alcotest.check value "copy unaffected" (V.Int 1) (Acc.map_find snapshot (V.Str "a"));
  Alcotest.check value "original advanced" (V.Int 2) (Acc.map_find m (V.Str "a"))

let test_merge () =
  let mk spec inputs =
    let a = Acc.create spec in
    List.iter (Acc.input a) inputs;
    a
  in
  let a = mk Spec.Sum_int [ V.Int 1; V.Int 2 ] and b = mk Spec.Sum_int [ V.Int 10 ] in
  Acc.merge ~into:a b;
  check_read "sum merge" (V.Int 13) a;
  let s1 = mk Spec.Set_acc [ V.Int 1; V.Int 2 ] and s2 = mk Spec.Set_acc [ V.Int 2; V.Int 3 ] in
  Acc.merge ~into:s1 s2;
  check_read "set merge unions" (V.Vlist [ V.Int 1; V.Int 2; V.Int 3 ]) s1;
  let m1 = mk (Spec.Map_acc Spec.Sum_int) [ V.Vtuple [| V.Str "a"; V.Int 1 |] ] in
  let m2 =
    mk (Spec.Map_acc Spec.Sum_int)
      [ V.Vtuple [| V.Str "a"; V.Int 2 |]; V.Vtuple [| V.Str "b"; V.Int 5 |] ]
  in
  Acc.merge ~into:m1 m2;
  Alcotest.check value "map merge sums" (V.Int 3) (Acc.map_find m1 (V.Str "a"));
  Alcotest.check value "map merge adds keys" (V.Int 5) (Acc.map_find m1 (V.Str "b"));
  Alcotest.check_raises "spec mismatch" (Invalid_argument "Acc.merge: accumulator spec mismatch")
    (fun () -> Acc.merge ~into:(Acc.create Spec.Sum_int) (Acc.create Spec.Sum_float))

(* Parallel-aggregation law: splitting an input stream across two instances
   and merging equals feeding one instance — for order-invariant specs. *)
let prop_merge_is_homomorphism =
  QCheck.Test.make ~name:"split-merge = sequential for order-invariant accs" ~count:200
    QCheck.(pair (list small_signed_int) (list small_signed_int))
    (fun (xs, ys) ->
      List.for_all
        (fun spec ->
          let whole = Acc.create spec in
          List.iter (fun n -> Acc.input whole (V.Int n)) (xs @ ys);
          let left = Acc.create spec and right = Acc.create spec in
          List.iter (fun n -> Acc.input left (V.Int n)) xs;
          List.iter (fun n -> Acc.input right (V.Int n)) ys;
          Acc.merge ~into:left right;
          V.equal (Acc.read whole) (Acc.read left))
        [ Spec.Sum_int; Spec.Min_acc; Spec.Max_acc; Spec.Avg_acc; Spec.Set_acc; Spec.Bag_acc ])

let prop_order_invariance =
  QCheck.Test.make ~name:"order-invariant accs ignore permutation" ~count:200
    QCheck.(pair (list small_signed_int) (int_range 0 1000))
    (fun (xs, seed) ->
      let arr = Array.of_list xs in
      Pgraph.Prng.shuffle (Pgraph.Prng.create seed) arr;
      let invariant_specs =
        [ Spec.Sum_int; Spec.Sum_float; Spec.Min_acc; Spec.Max_acc; Spec.Avg_acc; Spec.Set_acc;
          Spec.Bag_acc ]
      in
      List.for_all
        (fun spec ->
          assert (Spec.order_invariant spec);
          let a = Acc.create spec and b = Acc.create spec in
          List.iter (fun n -> Acc.input a (V.Int n)) xs;
          Array.iter (fun n -> Acc.input b (V.Int n)) arr;
          V.equal (Acc.read a) (Acc.read b))
        invariant_specs
      (* And the order-dependent ones are classified as such. *)
      && (not (Spec.order_invariant Spec.List_acc))
      && not (Spec.order_invariant Spec.Sum_string))

(* k-way merge law behind Parallel.map_reduce: split the inputs
   round-robin into k parts, fold each part on its own, merge the parts
   in order, and require the sequential fold's exact state — for the
   scalar, collection, nested-map and heap combiners. *)
let merge_inputs spec rng n =
  List.init n (fun _ ->
      match spec with
      | Spec.Or_acc | Spec.And_acc -> V.Bool (Pgraph.Prng.int rng 2 = 0)
      | Spec.Map_acc _ ->
        V.Vtuple [| V.Int (Pgraph.Prng.int rng 3); V.Int (Pgraph.Prng.int rng 5) |]
      | Spec.Heap_acc _ ->
        V.Vtuple [| V.Int (Pgraph.Prng.int rng 9); V.Int (Pgraph.Prng.int rng 9) |]
      | _ -> V.Int (Pgraph.Prng.int rng 7 - 3))

let fold_acc spec vs =
  let a = Acc.create spec in
  List.iter (Acc.input a) vs;
  a

let split_fold_merge spec k vs =
  let parts = Array.make k [] in
  List.iteri (fun i v -> parts.(i mod k) <- v :: parts.(i mod k)) vs;
  let out = Acc.create spec in
  Array.iter (fun p -> Acc.merge ~into:out (fold_acc spec (List.rev p))) parts;
  out

let prop_split_fold_merge =
  QCheck.Test.make ~name:"split-fold-merge = sequential" ~count:80
    (QCheck.pair QCheck.small_int (QCheck.int_range 0 20))
    (fun (seed, n) ->
      List.for_all
        (fun spec ->
          let vs = merge_inputs spec (Pgraph.Prng.create ((seed * 31) + n)) n in
          let seq = fold_acc spec vs in
          List.for_all (fun k -> Acc.equal seq (split_fold_merge spec k vs)) [ 2; 3; 5 ])
        [ Spec.Sum_int; Spec.Min_acc; Spec.Max_acc; Spec.Or_acc; Spec.And_acc;
          Spec.Set_acc; Spec.Bag_acc; Spec.Map_acc Spec.Sum_int;
          Spec.Heap_acc { Spec.h_capacity = 3; h_fields = [ (0, Spec.Asc) ] } ])

(* HeapAccum against its definition: the retained prefix of the input
   stream stably sorted by the heap's fields (ties broken by the whole
   tuple), truncated to capacity.  Small field values force ties; a
   multiplicity µ > 1 stands for µ copies of its tuple. *)
let prop_heap_is_sorted_prefix =
  QCheck.Test.make ~name:"HeapAccum = stable sort, then truncate" ~count:300
    QCheck.small_int
    (fun seed ->
      let rng = Pgraph.Prng.create (seed + 7919) in
      let width = 1 + Pgraph.Prng.int rng 3 in
      let fields =
        List.filter_map
          (fun i ->
            if Pgraph.Prng.int rng 3 = 0 then None
            else Some (i, if Pgraph.Prng.int rng 2 = 0 then Spec.Asc else Spec.Desc))
          (List.init width (fun i -> width - 1 - i))
      in
      let hs = { Spec.h_capacity = Pgraph.Prng.int rng 7; h_fields = fields } in
      let stream =
        List.init (Pgraph.Prng.int rng 30) (fun _ ->
            ( V.Vtuple (Array.init width (fun _ -> V.Int (Pgraph.Prng.int rng 3))),
              [| 1; 1; 2; 3 |].(Pgraph.Prng.int rng 4) ))
      in
      let heap = Acc.create (Spec.Heap_acc hs) in
      List.iter (fun (v, mu) -> Acc.input_mult heap v (B.of_int mu)) stream;
      let by_fields a b =
        let field v i = match v with V.Vtuple t -> t.(i) | _ -> assert false in
        let rec go = function
          | [] -> V.compare a b
          | (i, ord) :: rest ->
            let c = V.compare (field a i) (field b i) in
            if c = 0 then go rest else if ord = Spec.Asc then c else -c
        in
        go fields
      in
      let expected =
        List.concat_map (fun (v, mu) -> List.init mu (fun _ -> v)) stream
        |> List.stable_sort by_fields
        |> List.filteri (fun i _ -> i < hs.Spec.h_capacity)
      in
      V.equal (Acc.read heap) (V.Vlist expected))

(* --- Store: snapshot semantics. --- *)

let test_store_declarations () =
  let st = Store.create () in
  Store.declare_global st "total" Spec.Sum_float;
  Store.declare_vertex st "score" Spec.Sum_float ~n_vertices:4;
  Alcotest.(check (list string)) "globals" [ "total" ] (Store.global_names st);
  Alcotest.(check (list string)) "vertex families" [ "score" ] (Store.vertex_names st);
  Alcotest.(check bool) "is_global" true (Store.is_global st "total");
  Alcotest.(check bool) "is_vertex" true (Store.is_vertex st "score");
  Alcotest.check value "fresh vertex acc" (V.Float 0.0) (Store.read st (Store.Vertex_acc ("score", 2)))

let test_store_vertex_init () =
  let st = Store.create () in
  Store.declare_vertex st "score" Spec.Sum_float ~n_vertices:3;
  Store.set_vertex_init st "score" (V.Float 1.0);
  Alcotest.check value "initial value" (V.Float 1.0) (Store.read st (Store.Vertex_acc ("score", 0)))

let test_store_snapshot_commit () =
  let st = Store.create () in
  Store.declare_global st "g" Spec.Sum_int;
  Store.declare_vertex st "a" Spec.Sum_int ~n_vertices:2;
  let ph = Store.begin_phase st in
  Store.buffer_input ph (Store.Global "g") (V.Int 5) B.one;
  Store.buffer_input ph (Store.Vertex_acc ("a", 0)) (V.Int 2) (B.of_int 3);
  (* Nothing visible before commit — that is the snapshot. *)
  Alcotest.check value "pre-commit global" (V.Int 0) (Store.read st (Store.Global "g"));
  Alcotest.(check int) "ops pending" 2 (Store.pending_ops ph);
  Store.commit st ph;
  Alcotest.check value "post-commit global" (V.Int 5) (Store.read st (Store.Global "g"));
  Alcotest.check value "post-commit vertex (µ=3)" (V.Int 6)
    (Store.read st (Store.Vertex_acc ("a", 0)));
  Alcotest.check value "untouched vertex" (V.Int 0) (Store.read st (Store.Vertex_acc ("a", 1)))

let test_store_assign_in_phase () =
  let st = Store.create () in
  Store.declare_global st "g" Spec.Sum_int;
  Store.input_now st (Store.Global "g") (V.Int 9);
  let ph = Store.begin_phase st in
  Store.buffer_assign ph (Store.Global "g") (V.Int 1);
  Store.buffer_input ph (Store.Global "g") (V.Int 2) B.one;
  Store.commit st ph;
  (* Emission order: assign to 1, then += 2. *)
  Alcotest.check value "assign then input" (V.Int 3) (Store.read st (Store.Global "g"))

let test_store_prev () =
  let st = Store.create () in
  Store.declare_vertex st "score" Spec.Sum_float ~n_vertices:2;
  Store.set_vertex_init st "score" (V.Float 1.0);
  Alcotest.check value "prev before any save falls back to init" (V.Float 1.0)
    (Store.read_prev st (Store.Vertex_acc ("score", 0)));
  Store.assign_now st (Store.Vertex_acc ("score", 0)) (V.Float 2.5);
  Store.save_prev st [ "score" ];
  Store.assign_now st (Store.Vertex_acc ("score", 0)) (V.Float 9.0);
  Alcotest.check value "prev is pre-save value" (V.Float 2.5)
    (Store.read_prev st (Store.Vertex_acc ("score", 0)));
  Alcotest.check value "current is new value" (V.Float 9.0)
    (Store.read st (Store.Vertex_acc ("score", 0)))

let test_store_reset () =
  let st = Store.create () in
  Store.declare_global st "g" Spec.Sum_int;
  Store.declare_vertex st "a" Spec.Sum_float ~n_vertices:2;
  Store.set_vertex_init st "a" (V.Float 1.0);
  Store.input_now st (Store.Global "g") (V.Int 5);
  Store.input_now st (Store.Vertex_acc ("a", 1)) (V.Float 3.0);
  Store.reset_all st;
  Alcotest.check value "global reset" (V.Int 0) (Store.read st (Store.Global "g"));
  Alcotest.check value "vertex reset to init" (V.Float 1.0)
    (Store.read st (Store.Vertex_acc ("a", 1)))



(* --- User-defined accumulators (paper §3 extensibility) --- *)

let product_def =
  { Accum.Custom.name = "ProductAccum";
    init = V.Int 1;
    combine = V.mul;
    finish = None }

let with_registered def f =
  Accum.Custom.register def;
  Fun.protect ~finally:(fun () -> Accum.Custom.unregister def.Accum.Custom.name) f

let test_custom_basic () =
  with_registered product_def (fun () ->
      let a = Acc.create (Spec.Custom "ProductAccum") in
      check_read "init" (V.Int 1) a;
      Acc.input a (V.Int 3);
      Acc.input a (V.Int 4);
      check_read "3*4" (V.Int 12) a;
      Acc.assign a (V.Int 5);
      check_read "assign" (V.Int 5) a;
      (* merge combines internal states with the same ⊕ *)
      let b = Acc.create (Spec.Custom "ProductAccum") in
      Acc.input b (V.Int 10);
      Acc.merge ~into:a b;
      check_read "merged" (V.Int 50) a;
      Acc.reset a;
      check_read "reset to init" (V.Int 1) a)

let test_custom_finish () =
  (* A "count distinct parity" accumulator: internal Int counter, read as
     Bool via the finisher. *)
  let def =
    { Accum.Custom.name = "ParityAccum";
      init = V.Int 0;
      combine = (fun s _ -> V.add s (V.Int 1));
      finish = Some (fun s -> V.Bool (V.to_int s mod 2 = 1)) }
  in
  with_registered def (fun () ->
      let a = Acc.create (Spec.Custom "ParityAccum") in
      check_read "even" (V.Bool false) a;
      Acc.input a (V.Str "whatever");
      check_read "odd" (V.Bool true) a)

let test_custom_in_gsql () =
  with_registered product_def (fun () ->
      let { Testkit.Fixtures.g; _ } = Testkit.Fixtures.sales_graph () in
      let src = {|
        ProductAccum @@p;
        S = SELECT c FROM Customer:c -(Bought>:b)- Product:x
            ACCUM @@p += b.quantity;
        RETURN @@p;
      |}
      in
      (* Quantities: 2, 1, 3, 5, 1 -> product 30. *)
      match (Gsql.Eval.run_source g src).Gsql.Eval.r_return with
      | Some (Gsql.Eval.R_scalar v) -> Alcotest.check value "product" (V.Int 30) v
      | _ -> Alcotest.fail "expected scalar return")

let test_custom_registry_errors () =
  Alcotest.check_raises "bad suffix"
    (Invalid_argument "Custom.register: accumulator names must end in \"Accum\"")
    (fun () ->
      Accum.Custom.register
        { Accum.Custom.name = "Product"; init = V.Int 1; combine = V.mul; finish = None });
  Alcotest.check_raises "shadows builtin"
    (Invalid_argument "Custom.register: SumAccum shadows a built-in accumulator")
    (fun () ->
      Accum.Custom.register
        { Accum.Custom.name = "SumAccum"; init = V.Int 0; combine = V.add; finish = None });
  (* Unregistered spec fails at instantiation. *)
  (match Acc.create (Spec.Custom "NopeAccum") with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument")

let test_custom_check_laws () =
  let samples = [ V.Int 2; V.Int 3; V.Int 7 ] in
  Alcotest.(check bool) "product is lawful" true
    (Accum.Custom.check_laws product_def ~samples = Ok ());
  let last_wins =
    { Accum.Custom.name = "LastAccum"; init = V.Int 0; combine = (fun _ v -> v); finish = None }
  in
  Alcotest.(check bool) "last-wins is order-dependent" true
    (Accum.Custom.check_laws last_wins ~samples <> Ok ())

(* --- Parallel aggregation (OCaml 5 domains) --- *)

let test_parallel_matches_sequential () =
  let items = Array.init 10_000 (fun i -> (i * 7919) mod 1000) in
  List.iter
    (fun spec ->
      let seq = Acc.create spec in
      Array.iter (fun x -> Acc.input seq (V.Int x)) items;
      let par =
        Accum.Parallel.map_reduce ~workers:4 spec items ~feed:(fun acc x -> Acc.input acc (V.Int x))
      in
      Alcotest.check value (Accum.Spec.to_string spec) (Acc.read seq) (Acc.read par))
    [ Spec.Sum_int; Spec.Sum_float; Spec.Min_acc; Spec.Max_acc; Spec.Avg_acc; Spec.Set_acc;
      Spec.Bag_acc ]

let test_parallel_map_accum () =
  let items = Array.init 5_000 (fun i -> i) in
  let feed acc x = Acc.input acc (V.Vtuple [| V.Int (x mod 7); V.Int x |]) in
  let seq = Acc.create (Spec.Map_acc Spec.Sum_int) in
  Array.iter (feed seq) items;
  let par = Accum.Parallel.map_reduce ~workers:3 (Spec.Map_acc Spec.Sum_int) items ~feed in
  Alcotest.check value "nested map merges" (Acc.read seq) (Acc.read par)

let test_parallel_many () =
  (* Example 4's single-pass multi-aggregation, in parallel: one Sum and one
     Max over the same stream. *)
  let items = Array.init 8_000 (fun i -> (i * 31) mod 500) in
  let results =
    Accum.Parallel.map_reduce_many ~workers:4 [ Spec.Sum_int; Spec.Max_acc ] items
      ~feed:(fun accs x ->
        Acc.input accs.(0) (V.Int x);
        Acc.input accs.(1) (V.Int x))
  in
  let expected_sum = Array.fold_left ( + ) 0 items in
  Alcotest.check value "sum" (V.Int expected_sum) (Acc.read results.(0));
  Alcotest.check value "max" (V.Int 499) (Acc.read results.(1))

let test_parallel_degenerate () =
  (* Zero items; more workers than items. *)
  let empty =
    Accum.Parallel.map_reduce ~workers:8 Spec.Sum_int [||] ~feed:(fun acc x -> Acc.input acc x)
  in
  Alcotest.check value "empty" (V.Int 0) (Acc.read empty);
  let one =
    Accum.Parallel.map_reduce ~workers:8 Spec.Sum_int [| V.Int 5 |] ~feed:Acc.input
  in
  Alcotest.check value "single item" (V.Int 5) (Acc.read one)

(* --- Parallel.slices: the partitioning contract, degenerate cases first --- *)

let check_partition ~n_items ~workers =
  let slices = Accum.Parallel.slices n_items workers in
  Alcotest.(check int) "one slice per worker" workers (List.length slices);
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 slices in
  Alcotest.(check int) "lengths cover the items" n_items total;
  let _ =
    List.fold_left
      (fun expected (off, len) ->
        Alcotest.(check int) "contiguous offsets" expected off;
        Alcotest.(check bool) "non-negative length" true (len >= 0);
        off + len)
      0 slices
  in
  let lens = List.map snd slices in
  let lo = List.fold_left min max_int lens and hi = List.fold_left max 0 lens in
  Alcotest.(check bool) "balanced within one" true (hi - lo <= 1)

let test_slices_degenerate () =
  Alcotest.(check (list (pair int int))) "0 items, 1 worker" [ (0, 0) ] (Accum.Parallel.slices 0 1);
  Alcotest.(check (list (pair int int)))
    "0 items, 4 workers"
    [ (0, 0); (0, 0); (0, 0); (0, 0) ]
    (Accum.Parallel.slices 0 4);
  Alcotest.(check (list (pair int int))) "workers = 1" [ (0, 7) ] (Accum.Parallel.slices 7 1);
  (* workers > items: every item gets its own unit slice, the rest are empty. *)
  Alcotest.(check (list (pair int int)))
    "workers > items"
    [ (0, 1); (1, 1); (2, 1); (3, 0); (3, 0) ]
    (Accum.Parallel.slices 3 5)

let test_slices_partition_laws () =
  List.iter
    (fun (n_items, workers) -> check_partition ~n_items ~workers)
    [ (0, 1); (0, 4); (1, 1); (1, 8); (7, 1); (7, 3); (8, 4); (100, 7); (3, 5) ]

let test_default_workers () =
  Alcotest.(check bool) "at least one even for zero items" true
    (Accum.Parallel.default_workers 0 >= 1);
  Alcotest.(check int) "one item gets one worker" 1 (Accum.Parallel.default_workers 1);
  Alcotest.(check bool) "bounded by recommendation" true
    (Accum.Parallel.default_workers max_int <= Domain.recommended_domain_count ())

(* GSQL_WORKERS pins the default fan-out width, clamped to the recommended
   domain count and the item count; unparsable or non-positive values are
   ignored. *)
let test_gsql_workers () =
  let d = Domain.recommended_domain_count () in
  Unix.putenv "GSQL_WORKERS" "1";
  Alcotest.(check int) "pinned to 1" 1 (Accum.Parallel.default_workers 64);
  Unix.putenv "GSQL_WORKERS" "999";
  Alcotest.(check int) "clamped to recommended" (min 999 d)
    (Accum.Parallel.default_workers 1024);
  Unix.putenv "GSQL_WORKERS" "garbage";
  Alcotest.(check int) "garbage ignored" (min d 64)
    (Accum.Parallel.default_workers 64);
  Unix.putenv "GSQL_WORKERS" "0";
  Alcotest.(check int) "zero ignored" (min d 64)
    (Accum.Parallel.default_workers 64);
  Unix.putenv "GSQL_WORKERS" "";
  Alcotest.(check int) "never exceeds items" 1
    (Accum.Parallel.default_workers 1)

let test_map_reduce_degenerate () =
  let spec = Accum.Spec.Sum_int in
  let run ?workers items =
    Accum.Acc.read
      (Accum.Parallel.map_reduce ?workers spec items ~feed:(fun acc x ->
           Accum.Acc.input acc (Pgraph.Value.Int x)))
  in
  Alcotest.(check bool) "0 items" true (run [||] = Pgraph.Value.Int 0);
  Alcotest.(check bool) "workers > items" true (run ~workers:8 [| 1; 2; 3 |] = Pgraph.Value.Int 6);
  Alcotest.(check bool) "workers = 1" true (run ~workers:1 [| 1; 2; 3; 4 |] = Pgraph.Value.Int 10)

let () =
  Alcotest.run "accum"
    [ ( "combiners",
        [ Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "avg" `Quick test_avg_order_invariant;
          Alcotest.test_case "or/and" `Quick test_bool;
          Alcotest.test_case "collections" `Quick test_collections;
          Alcotest.test_case "map nesting" `Quick test_map_nested;
          Alcotest.test_case "heap" `Quick test_heap;
          Alcotest.test_case "heap lexicographic" `Quick test_heap_lexicographic;
          Alcotest.test_case "group-by" `Quick test_group_by;
          Alcotest.test_case "assign" `Quick test_assign ] );
      ( "multiplicity",
        [ Alcotest.test_case "shortcuts" `Quick test_input_mult_shortcuts;
          Alcotest.test_case "equivalence with repetition" `Quick test_input_mult_equivalence;
          Alcotest.test_case "overflow rejected" `Quick test_input_mult_overflow_rejected ] );
      ( "custom",
        [ Alcotest.test_case "basic" `Quick test_custom_basic;
          Alcotest.test_case "finisher" `Quick test_custom_finish;
          Alcotest.test_case "usable from GSQL" `Quick test_custom_in_gsql;
          Alcotest.test_case "registry errors" `Quick test_custom_registry_errors;
          Alcotest.test_case "combiner laws" `Quick test_custom_check_laws ] );
      ( "parallel",
        [ Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "nested map accum" `Quick test_parallel_map_accum;
          Alcotest.test_case "multi-accumulator" `Quick test_parallel_many;
          Alcotest.test_case "degenerate" `Quick test_parallel_degenerate;
          Alcotest.test_case "slices degenerate" `Quick test_slices_degenerate;
          Alcotest.test_case "slices partition laws" `Quick test_slices_partition_laws;
          Alcotest.test_case "default workers" `Quick test_default_workers;
          Alcotest.test_case "map_reduce degenerate" `Quick test_map_reduce_degenerate ] );
      ( "workers",
        [ Alcotest.test_case "GSQL_WORKERS clamp" `Quick test_gsql_workers ] );
      ( "state",
        [ Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "merge" `Quick test_merge ] );
      ( "store",
        [ Alcotest.test_case "declarations" `Quick test_store_declarations;
          Alcotest.test_case "vertex init" `Quick test_store_vertex_init;
          Alcotest.test_case "snapshot commit" `Quick test_store_snapshot_commit;
          Alcotest.test_case "assign in phase" `Quick test_store_assign_in_phase;
          Alcotest.test_case "prev values" `Quick test_store_prev;
          Alcotest.test_case "reset" `Quick test_store_reset ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_merge_is_homomorphism; prop_order_invariance ] );
      ("merge laws", [ QCheck_alcotest.to_alcotest prop_split_fold_merge ]);
      ("heap", [ QCheck_alcotest.to_alcotest prop_heap_is_sorted_prefix ]) ]
