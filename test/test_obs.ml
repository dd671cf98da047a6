(* The observability layer: metrics registry semantics (on/off switch,
   counter/gauge/histogram arithmetic, reset, dump shape), span tracer
   (nesting, attributes, add_count, exception safety, span cap) and the
   self-contained JSON emitter/parser round-trip. *)

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json

(* Every test starts from a clean, enabled registry and no live trace. *)
let with_obs f () =
  M.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      if T.enabled () then ignore (T.stop ()))
    f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter () =
  let c = M.counter "test.counter" in
  Alcotest.(check int) "fresh counter" 0 (M.value c);
  M.incr c 1;
  M.incr c 41;
  Alcotest.(check int) "accumulates" 42 (M.value c);
  Alcotest.(check bool) "same name, same instrument" true (M.counter "test.counter" == c);
  M.set_enabled false;
  M.incr c 1000;
  Alcotest.(check int) "disabled incr is a no-op" 42 (M.value c);
  M.set_enabled true;
  M.reset ();
  Alcotest.(check int) "reset zeroes, handle survives" 0 (M.value c)

let test_gauge () =
  let g = M.gauge "test.gauge" in
  M.set_gauge g 2.5;
  M.set_gauge g 7.25;
  Alcotest.(check (float 0.0)) "last write wins" 7.25 (M.gauge_value g);
  M.set_enabled false;
  M.set_gauge g 0.0;
  Alcotest.(check (float 0.0)) "disabled set is a no-op" 7.25 (M.gauge_value g)

let test_histogram () =
  let h = M.histogram "test.hist" in
  Alcotest.(check int) "empty count" 0 (M.hist_count h);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (M.hist_mean h));
  List.iter (M.observe h) [ 4.0; 1.0; 7.0 ];
  Alcotest.(check int) "count" 3 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 12.0 (M.hist_sum h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (M.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 7.0 (M.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" 4.0 (M.hist_mean h)

let test_timer () =
  let h = M.histogram "test.timer" in
  let x = M.time h (fun () -> 99) in
  Alcotest.(check int) "timer returns the thunk's value" 99 x;
  Alcotest.(check int) "one observation" 1 (M.hist_count h);
  Alcotest.(check bool) "non-negative duration" true (M.hist_sum h >= 0.0);
  (* Exception safety: the observation lands even when the thunk raises. *)
  (try M.time h (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "observed on raise too" 2 (M.hist_count h);
  M.set_enabled false;
  let y = M.time h (fun () -> 7) in
  Alcotest.(check int) "disabled timer is the thunk" 7 y;
  Alcotest.(check int) "disabled timer records nothing" 2 (M.hist_count h)

let test_dump () =
  let c = M.counter "test.dump.counter" in
  let h = M.histogram "test.dump.hist" in
  M.incr c 5;
  M.observe h 2.0;
  M.observe h 4.0;
  let d = M.dump () in
  (match J.member "counters" d |> Option.map (J.member "test.dump.counter") |> Option.join with
   | Some (J.Int 5) -> ()
   | _ -> Alcotest.fail "counter missing from dump");
  (match
     J.member "histograms" d
     |> Option.map (J.member "test.dump.hist")
     |> Option.join
     |> Option.map (J.member "mean")
     |> Option.join
     |> Option.map J.to_float_opt
     |> Option.join
   with
   | Some mean -> Alcotest.(check (float 1e-9)) "hist mean in dump" 3.0 mean
   | None -> Alcotest.fail "histogram missing from dump");
  (* Zero-count instruments are omitted. *)
  let z = M.counter "test.dump.zero" in
  ignore z;
  (match J.member "counters" (M.dump ()) |> Option.map (J.member "test.dump.zero") |> Option.join with
   | None -> ()
   | Some _ -> Alcotest.fail "zero counter should be omitted from dump")

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)

let test_span_nesting () =
  T.start ();
  T.span "outer" (fun () ->
      T.set_attr "k" (J.Str "v");
      T.span "inner-a" (fun () -> T.add_count "n" 2);
      T.span "inner-b" (fun () -> ());
      T.add_count "n" 3);
  ignore (T.stop ());
  match T.roots () with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.T.sp_name;
    Alcotest.(check (list string)) "children in creation order" [ "inner-a"; "inner-b" ]
      (List.rev_map (fun (s : T.span) -> s.T.sp_name) outer.T.sp_children);
    (match List.assoc_opt "k" outer.T.sp_attrs with
     | Some (J.Str "v") -> ()
     | _ -> Alcotest.fail "set_attr lost");
    (* add_count on "outer" happened after inner spans closed: counts 3. *)
    (match List.assoc_opt "n" outer.T.sp_attrs with
     | Some (J.Int 3) -> ()
     | _ -> Alcotest.fail "add_count on outer wrong");
    (match List.rev outer.T.sp_children with
     | inner_a :: _ ->
       (match List.assoc_opt "n" inner_a.T.sp_attrs with
        | Some (J.Int 2) -> ()
        | _ -> Alcotest.fail "add_count on inner wrong")
     | [] -> assert false)
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception_safety () =
  T.start ();
  (try T.span "outer" (fun () -> T.span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  ignore (T.stop ());
  match T.roots () with
  | [ outer ] ->
    Alcotest.(check int) "inner span closed and attached" 1 (List.length outer.T.sp_children);
    Alcotest.(check bool) "outer timed" true (outer.T.sp_elapsed_ms >= 0.0)
  | _ -> Alcotest.fail "exception unwind lost the span tree"

let test_span_disabled () =
  (* No start: span is exactly the thunk and records nothing. *)
  Alcotest.(check bool) "tracer off" false (T.enabled ());
  let x = T.span "ghost" (fun () -> 5) in
  Alcotest.(check int) "value through disabled span" 5 x

let test_span_cap () =
  T.start ();
  T.span "root" (fun () ->
      for _ = 1 to T.max_spans + 10 do
        T.event "e" []
      done);
  let doc = T.stop () in
  Alcotest.(check bool) "dropped some" true (T.dropped () > 0);
  match J.member "dropped_spans" doc with
  | Some (J.Int n) -> Alcotest.(check int) "dropped count exported" (T.dropped ()) n
  | _ -> Alcotest.fail "dropped_spans missing"

let test_trace_json_and_validate () =
  T.start ();
  T.span "select" (fun () ->
      T.set_attr "rows" (J.Int 3);
      T.span "match" (fun () -> T.set_attr "engine" (J.Str "counting")));
  let doc = T.stop () in
  (match T.validate doc with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "trace does not validate: %s" msg);
  (* The --trace file envelope validates too. *)
  (match T.validate (J.Obj [ ("trace", doc); ("metrics", M.dump ()) ]) with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "envelope does not validate: %s" msg);
  (* And survives a print/parse round-trip. *)
  (match J.parse (J.to_string doc) with
   | Ok doc' -> Alcotest.(check string) "round-trip" (J.to_string doc) (J.to_string doc')
   | Error msg -> Alcotest.failf "emitted trace does not re-parse: %s" msg);
  (* Schema violations are caught. *)
  match T.validate (J.Obj [ ("spans", J.List [ J.Obj [ ("name", J.Int 3) ] ]) ]) with
  | Ok () -> Alcotest.fail "bogus span validated"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let test_json_round_trip () =
  let doc =
    J.Obj
      [ ("s", J.Str "a \"quoted\"\n\ttab \\ slash");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Float 2.25; J.Str "x" ]);
        ("o", J.Obj [ ("nested", J.List []) ]) ]
  in
  (match J.parse (J.to_string doc) with
   | Ok doc' -> Alcotest.(check string) "compact round-trip" (J.to_string doc) (J.to_string doc')
   | Error msg -> Alcotest.failf "compact parse failed: %s" msg);
  match J.parse (J.pretty doc) with
  | Ok doc' -> Alcotest.(check string) "pretty round-trip" (J.to_string doc) (J.to_string doc')
  | Error msg -> Alcotest.failf "pretty parse failed: %s" msg

let test_json_floats_stay_floats () =
  (* Whole-valued floats must re-parse as floats, not ints (the trace "ms"
     field relies on this). *)
  match J.parse (J.to_string (J.Float 3.0)) with
  | Ok (J.Float f) -> Alcotest.(check (float 0.0)) "3.0 stays float" 3.0 f
  | Ok _ -> Alcotest.fail "whole float re-parsed as a different constructor"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_errors () =
  List.iter
    (fun src ->
      match J.parse src with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" src
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "1 2"; "\"unterminated" ]

(* Random trees: strings over every byte (control characters, quotes and
   backslashes render as escapes), ints up to [max_int]/[min_int], and
   floats with exponents.  Floats are drawn with at most 12 significant
   digits, the precision [to_string] renders. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\001'; '\031'; '/' ] ]) (0 -- 8) in
  let int = oneof [ oneofl [ 0; -1; max_int; min_int; max_int - 1; min_int + 1 ]; int ] in
  let float =
    map2
      (fun m e -> float_of_string (Printf.sprintf "%de%d" m e))
      (int_range (-999_999_999_999) 999_999_999_999)
      (int_range (-290) 290)
  in
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool; map (fun n -> J.Int n) int;
        map (fun f -> J.Float f) float; map (fun s -> J.Str s) str ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n - 1))));
               (1, map (fun l -> J.Obj l) (list_size (0 -- 4) (pair str (self (n - 1))))) ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"to_string and pretty parse back equal" ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun doc -> J.parse (J.to_string doc) = Ok doc && J.parse (J.pretty doc) = Ok doc)

(* What [parse] accepts and every message it gives, pinned: numbers are
   the longest run of [0-9+-.eE], read by [int_of_string_opt] (no [.],
   [e] or [E]) or [float_of_string_opt]. *)
let test_json_pinned () =
  let show = function Ok v -> "OK " ^ J.to_string v | Error msg -> "ERR " ^ msg in
  List.iter
    (fun (src, expected) -> Alcotest.(check string) (String.escaped src) expected (show (J.parse src)))
    [ ("-0", "OK 0");
      ("0123", "OK 123");
      ("00", "OK 0");
      ("1e5", "OK 100000.0");
      ("1E+5", "OK 100000.0");
      ("-.5", "OK -0.5");
      ("1.", "OK 1.0");
      ("-", "ERR bad number -");
      ("1-2", "ERR bad number 1-2");
      ("1e", "ERR bad number 1e");
      ("1e5.5", "ERR bad number 1e5.5");
      ("+1", "ERR unexpected character '+' at offset 0");
      (".5", "ERR unexpected character '.' at offset 0");
      ("123456789012345678", "OK 123456789012345678");
      ("-123456789012345678", "OK -123456789012345678");
      ("1234567890123456789", "OK 1234567890123456789");
      ("4611686018427387903", "OK 4611686018427387903");
      ("4611686018427387904", "ERR bad number 4611686018427387904");
      ("-4611686018427387904", "OK -4611686018427387904");
      ("-4611686018427387905", "ERR bad number -4611686018427387905");
      ("9999999999999999999", "ERR bad number 9999999999999999999");
      ("-9999999999999999999", "ERR bad number -9999999999999999999");
      ({|"\u00|}, {|ERR truncated \u escape|});
      ({|"\u004|}, {|ERR truncated \u escape|});
      ({|"\u0041|}, "ERR unterminated string");
      ({|"\u0041"|}, {|OK "A"|});
      ({|"\u0_41"|}, {|OK "A"|});
      ({|"\u00zz"|}, {|ERR bad \u escape 00zz|});
      ({|"\u00e9"|}, {|OK "?"|});
      ({|"\|}, "ERR unterminated escape");
      ({|"\q"|}, {|ERR bad escape \q|});
      ({|"a\"b"|}, {|OK "a\"b"|});
      ("\"\000\"", {|OK "\u0000"|});
      ("", "ERR unexpected end of input");
      ("{", {|ERR expected '"' at offset 1, found end of input|});
      ("{,}", {|ERR expected '"' at offset 1, found ','|});
      ({|{"a":1,}|}, {|ERR expected '"' at offset 7, found '}'|});
      ({|{"a" 1}|}, "ERR expected ':' at offset 5, found '1'");
      ({|{"a":1 "b":2}|}, "ERR expected ',' or '}' at offset 7");
      ("[1 2]", "ERR expected ',' or ']' at offset 3");
      ("[1,]", "ERR unexpected character ']' at offset 3");
      ("nul", "ERR bad literal at offset 0");
      ("nulll", "ERR trailing characters at offset 4");
      (" { } ", "OK {}") ]

(* Mutated and truncated valid documents: [parse] answers [Ok] or
   [Error], never raises. *)
let test_json_fuzz () =
  let rng = Pgraph.Prng.create 26 in
  let rand = QCheck.Gen.generate1 ~rand:(Random.State.make [| 26 |]) in
  let junk = "{}[],:\"\\ntrufalse0123456789-+.eE \t\n\000\255" in
  let pick () = junk.[Pgraph.Prng.int rng (String.length junk)] in
  for _ = 1 to 2_000 do
    let doc = rand gen_json in
    let text = if Pgraph.Prng.bool rng then J.to_string doc else J.pretty doc in
    let n = String.length text in
    let mutated =
      match Pgraph.Prng.int rng 3 with
      | 0 -> String.sub text 0 (Pgraph.Prng.int rng (n + 1))
      | 1 ->
        let b = Bytes.of_string text in
        for _ = 0 to Pgraph.Prng.int rng 3 do
          Bytes.set b (Pgraph.Prng.int rng n) (pick ())
        done;
        Bytes.to_string b
      | _ ->
        let i = Pgraph.Prng.int rng (n + 1) in
        let j = min n (i + 1 + Pgraph.Prng.int rng 4) in
        String.sub text 0 i ^ String.sub text j (n - j)
    in
    match J.parse mutated with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "parse raised %s on %S" (Printexc.to_string e) mutated
  done

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter" `Quick (with_obs test_counter);
          Alcotest.test_case "gauge" `Quick (with_obs test_gauge);
          Alcotest.test_case "histogram" `Quick (with_obs test_histogram);
          Alcotest.test_case "timer" `Quick (with_obs test_timer);
          Alcotest.test_case "dump" `Quick (with_obs test_dump) ] );
      ( "trace",
        [ Alcotest.test_case "nesting" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "exception safety" `Quick (with_obs test_span_exception_safety);
          Alcotest.test_case "disabled" `Quick (with_obs test_span_disabled);
          Alcotest.test_case "span cap" `Quick (with_obs test_span_cap);
          Alcotest.test_case "json + validate" `Quick (with_obs test_trace_json_and_validate) ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "floats stay floats" `Quick test_json_floats_stay_floats;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "pinned numbers and messages" `Quick test_json_pinned;
          Alcotest.test_case "mutation fuzz" `Quick test_json_fuzz;
          QCheck_alcotest.to_alcotest prop_json_round_trip ] ) ]
