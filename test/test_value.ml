(* Value ordering, arithmetic promotion, rendering and calendar helpers. *)

module V = Pgraph.Value

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_numeric_compare () =
  check_int "int eq float" 0 (V.compare (V.Int 3) (V.Float 3.0));
  check_bool "int lt float" true (V.compare (V.Int 3) (V.Float 3.5) < 0);
  check_bool "float gt int" true (V.compare (V.Float 4.5) (V.Int 4) > 0);
  check_bool "null sorts first" true (V.compare V.Null (V.Int (-100)) < 0)

let test_compare_total_order () =
  let values =
    [ V.Null; V.Bool false; V.Bool true; V.Int (-1); V.Int 0; V.Float 0.5; V.Int 1;
      V.Str "a"; V.Str "b"; V.Datetime 0; V.Vertex 0; V.Edge 0;
      V.Vlist [ V.Int 1 ]; V.Vtuple [| V.Int 1 |] ]
  in
  (* Antisymmetry and reflexivity over the cross product. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = V.compare a b and ba = V.compare b a in
          check_int "antisymmetric" ab (-ba))
        values;
      check_int "reflexive" 0 (V.compare a a))
    values

let test_list_tuple_compare () =
  check_bool "list prefix lt" true (V.compare (V.Vlist [ V.Int 1 ]) (V.Vlist [ V.Int 1; V.Int 2 ]) < 0);
  check_int "tuple eq" 0 (V.compare (V.Vtuple [| V.Int 1; V.Str "x" |]) (V.Vtuple [| V.Int 1; V.Str "x" |]));
  check_bool "tuple length dominates" true
    (V.compare (V.Vtuple [| V.Int 9 |]) (V.Vtuple [| V.Int 1; V.Int 1 |]) < 0)

let test_arithmetic () =
  check_int "int add" 7 (V.to_int (V.add (V.Int 3) (V.Int 4)));
  Alcotest.(check (float 1e-9)) "promotion" 7.5 (V.to_float (V.add (V.Int 3) (V.Float 4.5)));
  check_string "string concat" "ab" (V.to_string_exn (V.add (V.Str "a") (V.Str "b")));
  check_int "sub" (-1) (V.to_int (V.sub (V.Int 3) (V.Int 4)));
  check_int "mul" 12 (V.to_int (V.mul (V.Int 3) (V.Int 4)));
  check_int "int div truncates" 2 (V.to_int (V.div (V.Int 7) (V.Int 3)));
  Alcotest.(check (float 1e-9)) "float div" 3.5 (V.to_float (V.div (V.Float 7.0) (V.Int 2)));
  check_int "mod" 1 (V.to_int (V.modulo (V.Int 7) (V.Int 3)));
  check_int "neg" (-5) (V.to_int (V.neg (V.Int 5)))

let test_arithmetic_errors () =
  let expect_type_error f =
    match f () with
    | exception V.Type_error _ -> ()
    | _ -> Alcotest.fail "expected Type_error"
  in
  expect_type_error (fun () -> V.add (V.Int 1) (V.Str "x"));
  expect_type_error (fun () -> V.div (V.Int 1) (V.Int 0));
  expect_type_error (fun () -> V.div (V.Float 1.0) (V.Float 0.0));
  expect_type_error (fun () -> V.modulo (V.Int 1) (V.Int 0));
  expect_type_error (fun () -> V.neg (V.Str "s"));
  expect_type_error (fun () -> V.to_bool (V.Int 1));
  expect_type_error (fun () -> V.vertex_id (V.Edge 3))

let test_hash_consistent_with_equal () =
  let pairs = [ (V.Int 5, V.Float 5.0); (V.Str "x", V.Str "x"); (V.Vlist [], V.Vlist []) ] in
  List.iter
    (fun (a, b) ->
      if V.equal a b then check_int "equal values hash equal" (V.hash a) (V.hash b))
    pairs

let test_rendering () =
  check_string "null" "null" (V.to_string V.Null);
  check_string "int" "42" (V.to_string (V.Int 42));
  check_string "float integral" "2.0" (V.to_string (V.Float 2.0));
  check_string "string" "hi" (V.to_string (V.Str "hi"));
  check_string "vertex" "v7" (V.to_string (V.Vertex 7));
  check_string "list" "[1; 2]" (V.to_string (V.Vlist [ V.Int 1; V.Int 2 ]))

let test_datetime () =
  let d = V.datetime_of_ymd 2012 6 15 in
  check_int "year" 2012 (V.year_of_datetime d);
  check_int "month" 6 (V.month_of_datetime d);
  let epoch = V.datetime_of_ymd 1970 1 1 in
  (match epoch with
   | V.Datetime 0 -> ()
   | _ -> Alcotest.fail "epoch must be 0");
  check_bool "ordering" true (V.compare (V.datetime_of_ymd 2010 1 1) (V.datetime_of_ymd 2012 1 1) < 0);
  (* Leap handling: 2012-02-29 exists and sits between 02-28 and 03-01. *)
  let feb28 = V.datetime_of_ymd 2012 2 28
  and feb29 = V.datetime_of_ymd 2012 2 29
  and mar01 = V.datetime_of_ymd 2012 3 1 in
  check_bool "leap day" true (V.compare feb28 feb29 < 0 && V.compare feb29 mar01 < 0);
  (match V.sub mar01 feb29 with
   | V.Float s -> Alcotest.(check (float 1.0)) "one day apart" 86400.0 s
   | _ -> Alcotest.fail "expected float")

let prop_compare_transitive =
  let gen_value =
    QCheck.Gen.(
      oneof
        [ return V.Null;
          map (fun b -> V.Bool b) bool;
          map (fun n -> V.Int n) small_signed_int;
          map (fun f -> V.Float f) (float_bound_inclusive 100.0);
          map (fun s -> V.Str s) (string_size ~gen:printable (int_range 0 5)) ])
  in
  QCheck.Test.make ~name:"compare transitive" ~count:1000
    (QCheck.make QCheck.Gen.(triple gen_value gen_value gen_value))
    (fun (a, b, c) ->
      let ( <= ) x y = V.compare x y <= 0 in
      not (a <= b && b <= c) || a <= c)

(* Numerics where Int/Float comparison is delicate: within a few units
   of ±2^53 (where doubles stop representing every int), of 2^62 (the
   int range's edge) and of 10^15, plus halves and the non-finite
   floats. *)
let edge_numerics =
  let near base =
    List.concat_map
      (fun d -> [ V.Int (base + d); V.Float (float_of_int (base + d)) ])
      [ -3; -2; -1; 0; 1; 2; 3 ]
  in
  List.concat_map near [ 1 lsl 53; -(1 lsl 53); (1 lsl 62) - 4; 1_000_000_000_000_000 ]
  @ List.map (fun n -> V.Float (float_of_int n +. 0.5)) [ -2; -1; 0; 1 ]
  @ [ V.Int 0; V.Int 1; V.Int max_int; V.Int min_int; V.Float 4.611686018427387904e18;
      V.Float (-4.611686018427387904e18); V.Float Float.infinity; V.Float Float.neg_infinity;
      V.Float Float.nan; V.Float (-0.0) ]

let gen_edge_numeric = QCheck.Gen.oneofl edge_numerics

let prop_compare_transitive_edges =
  QCheck.Test.make ~name:"compare transitive and antisymmetric near 2^53 and 2^62"
    ~count:3000
    (QCheck.make ~print:(fun (a, b, c) -> String.concat ", " (List.map V.to_string [ a; b; c ]))
       QCheck.Gen.(triple gen_edge_numeric gen_edge_numeric gen_edge_numeric))
    (fun (a, b, c) ->
      let ( <= ) x y = V.compare x y <= 0 in
      V.compare a b = - V.compare b a && ((not (a <= b && b <= c)) || a <= c))

let prop_equal_same_hash =
  QCheck.Test.make ~name:"equal values hash alike at every magnitude" ~count:3000
    (QCheck.make ~print:(fun (a, b) -> V.to_string a ^ ", " ^ V.to_string b)
       QCheck.Gen.(pair gen_edge_numeric gen_edge_numeric))
    (fun (a, b) ->
      (not (V.equal a b))
      || (V.hash a = V.hash b && V.hash (V.Vtuple [| a |]) = V.hash (V.Vtuple [| b |])))

(* The same laws, exhaustively over the edge pool. *)
let test_edge_pool_laws () =
  let cmp a b = V.compare a b in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if cmp a b <> - cmp b a then
            Alcotest.failf "antisymmetry: %s vs %s" (V.to_string a) (V.to_string b);
          if V.equal a b && V.hash a <> V.hash b then
            Alcotest.failf "hash: %s = %s" (V.to_string a) (V.to_string b);
          if cmp a b <= 0 then
            List.iter
              (fun c ->
                if cmp b c <= 0 && cmp a c > 0 then
                  Alcotest.failf "transitivity: %s <= %s <= %s" (V.to_string a)
                    (V.to_string b) (V.to_string c))
              edge_numerics)
        edge_numerics)
    edge_numerics

let test_int_float_exact () =
  let p53 = 1 lsl 53 in
  check_bool "2^53+1 > 2^53 as float" true (V.compare (V.Int (p53 + 1)) (V.Float (float_of_int p53)) > 0);
  check_int "2^53 = 2^53 as float" 0 (V.compare (V.Int p53) (V.Float (float_of_int p53)));
  check_bool "max_int < 2^62" true (V.compare (V.Int max_int) (V.Float 4.611686018427387904e18) < 0);
  check_int "min_int = -2^62" 0 (V.compare (V.Int min_int) (V.Float (-4.611686018427387904e18)));
  check_bool "nan below ints" true (V.compare (V.Float Float.nan) (V.Int min_int) < 0);
  check_int "1e15 hashes as int" (V.hash (V.Int 1_000_000_000_000_000)) (V.hash (V.Float 1e15))

let () =
  Alcotest.run "value"
    [ ( "unit",
        [ Alcotest.test_case "numeric compare" `Quick test_numeric_compare;
          Alcotest.test_case "total order" `Quick test_compare_total_order;
          Alcotest.test_case "list/tuple compare" `Quick test_list_tuple_compare;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "arithmetic errors" `Quick test_arithmetic_errors;
          Alcotest.test_case "hash/equal" `Quick test_hash_consistent_with_equal;
          Alcotest.test_case "int/float exact" `Quick test_int_float_exact;
          Alcotest.test_case "edge-pool order laws" `Quick test_edge_pool_laws;
          Alcotest.test_case "rendering" `Quick test_rendering;
          Alcotest.test_case "datetime" `Quick test_datetime ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compare_transitive; prop_compare_transitive_edges; prop_equal_same_hash ] ) ]
