(* Extensible accumulators + graph mutation: the paper §3 notes GSQL "allows
   users to define their own accumulators by implementing a simple
   interface that declares the binary combiner operation ⊕".  This example
   registers two custom accumulators and uses them from GSQL source, on a
   graph grown with INSERT INTO.

   Run with: dune exec examples/extensibility.exe *)

module V = Pgraph.Value
module S = Pgraph.Schema
module G = Pgraph.Graph

(* A geometric-mean accumulator: internal state is (log-sum, count) packed
   in a tuple; the finisher exposes exp(logsum / count). *)
let geo_mean =
  { Accum.Custom.name = "GeoMeanAccum";
    init = V.Vtuple [| V.Float 0.0; V.Int 0 |];
    combine =
      (fun state input ->
        match state with
        | V.Vtuple [| V.Float logsum; V.Int n |] ->
          V.Vtuple [| V.Float (logsum +. Float.log (V.to_float input)); V.Int (n + 1) |]
        | _ -> V.type_error "GeoMeanAccum: corrupt state");
    finish =
      Some
        (fun state ->
          match state with
          | V.Vtuple [| V.Float logsum; V.Int n |] when n > 0 ->
            V.Float (Float.exp (logsum /. float_of_int n))
          | _ -> V.Null) }

(* Greatest common divisor — a combiner no built-in provides. *)
let gcd_acc =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  { Accum.Custom.name = "GcdAccum";
    init = V.Int 0;
    combine = (fun s v -> V.Int (gcd (V.to_int s) (abs (V.to_int v))));
    finish = None }

let () =
  Accum.Custom.register geo_mean;
  Accum.Custom.register gcd_acc;
  (match Accum.Custom.check_laws gcd_acc ~samples:[ V.Int 12; V.Int 18; V.Int 30 ] with
   | Ok () -> print_endline "GcdAccum combiner is commutative/associative on samples (order-invariant)."
   | Error msg -> failwith msg);

  (* Build a small payments graph with INSERT statements only. *)
  let schema = S.create () in
  let _ = S.add_vertex_type schema "Account" [ ("name", S.T_string) ] in
  let _ =
    S.add_edge_type schema "Paid" ~directed:true ~src:"Account" ~dst:"Account"
      [ ("cents", S.T_int) ]
  in
  let g = G.create schema in
  ignore
    (Gsql.Compile.run_source g {|
      INSERT INTO Account (name) VALUES ('ida');
      INSERT INTO Account (name) VALUES ('joe');
      INSERT INTO Account (name) VALUES ('kat');
    |});
  let account name = Option.get (G.find_vertex_by_attr g "Account" "name" (V.Str name)) in
  ignore
    (Gsql.Compile.run_source g
       ~params:
         [ ("ida", V.Vertex (account "ida")); ("joe", V.Vertex (account "joe"));
           ("kat", V.Vertex (account "kat")) ]
       {|
      INSERT INTO Paid (cents) VALUES (ida, joe, 1200);
      INSERT INTO Paid (cents) VALUES (ida, kat, 900);
      INSERT INTO Paid (cents) VALUES (joe, kat, 300);
      INSERT INTO Paid (cents) VALUES (kat, ida, 1500);
    |});

  (* Use the custom accumulators from GSQL like any built-in. *)
  let result =
    Gsql.Compile.run_source g {|
      GeoMeanAccum @@typicalPayment;
      GcdAccum @@granularity;
      S = SELECT a
          FROM Account:a -(Paid>:p)- Account:b
          ACCUM @@typicalPayment += p.cents,
                @@granularity += p.cents;
      PRINT @@typicalPayment AS geometricMeanCents, @@granularity AS centsGranularity;
    |}
  in
  print_string result.Gsql.Eval.r_printed;
  (* gcd(1200, 900, 300, 1500) = 300. *)
  let gcd_line = "centsGranularity = 300\n" in
  assert
    (String.length result.Gsql.Eval.r_printed >= String.length gcd_line);
  print_endline "(payments share a 300-cent granularity, as expected)"
