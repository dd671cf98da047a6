(* The four workloads: graph scale, installed GSQL, seeded request stream,
   and the reference computations the correctness gates compare against.

   Why these four (choosing-metrics §5: at least two workloads per layer,
   one that exercises a mechanism and one that bypasses it):
   - ic-read     execution-bound: KNOWS*1..3 counting kernel, compiled plans
                 and CSR hits do the work; no_cache bypasses the result cache;
   - point-read  service-bound: sub-ms executions, so frame codec, event loop,
                 admission, pool hand-off and a cache smaller than the key
                 space (288 keys, 128 entries) dominate;
   - read-write  the point-read layers beside 20% mutating invokes: every
                 commit does WAL append + fsync, a copy-on-write publish, a
                 CSR invalidation and a cache clear;
   - agg-report  aggregation-bound: Appendix B multi-grouping accumulators and
                 large result frames; the counting kernel and the cache idle. *)

module V = Pgraph.Value
module G = Pgraph.Graph
module P = Service.Protocol
module R = Pgraph.Prng

type kind = Read | Write

type req = {
  query : string;
  params : (string * V.t) list;
  no_cache : bool;
  kind : kind;
  key : int;  (* distinct-key index for the cache gate; -1 when unused *)
}

type t = {
  name : string;
  sf : float;        (* SNB scale factor of the served graph *)
  rate : float;      (* open-loop arrivals per second, frozen on the parent *)
  sources : (string * string) list;  (* installed files: name, GSQL text *)
}

(* ------------------------------------------------------------------ *)
(* GSQL sources                                                        *)

(* The IC blocks of Ldbc.Ic wrapped as installed queries.  IC1 keeps the
   original 2 hops; the others use the paper's widened 3. *)
let ic_queries =
  [ ("Ic1", Ldbc.Ic.Ic1, 2, "STRING targetName");
    ("Ic3", Ldbc.Ic.Ic3, 3, "STRING countryName");
    ("Ic6", Ldbc.Ic.Ic6, 3, "STRING tagName");
    ("Ic9", Ldbc.Ic.Ic9, 3, "DATETIME maxDate") ]

let ic_source (qname, ic, hops, param) =
  Printf.sprintf "CREATE QUERY %s (VERTEX<Person> p, %s) {\n%s}\n" qname param
    (Ldbc.Ic.source ic ~hops)

(* Same text as queries/khop.gsql and queries/common_friends.gsql (minus
   comments), frozen here so the benchmark's inputs change only when the
   benchmark does. *)
let khop_src = {|
CREATE QUERY KHopNeighborhood (string firstName, int hops) {
  OrAccum @visited;
  SumAccum<int> @@reached;

  Frontier = SELECT p
      FROM Person:p -(KNOWS*0..0)- Person:q
      WHERE p.firstName == firstName
      ACCUM p.@visited += true;
  i = 0;
  WHILE i < hops LIMIT 50 DO
    Frontier = SELECT t
        FROM Frontier:s -(KNOWS)- Person:t
        WHERE NOT t.@visited
        POST_ACCUM t.@visited = true;
    FOREACH x IN Frontier DO
      @@reached += 1;
    END
    i = i + 1;
  END;
  SELECT p.firstName AS firstName, p.lastName AS lastName INTO Neighborhood
  FROM Person:p -(KNOWS*0..0)- Person:q
  WHERE p.@visited
  ORDER BY p.lastName ASC, p.firstName ASC
  LIMIT 25;
  PRINT @@reached;
}
|}

let common_friends_src = {|
CREATE QUERY CommonFriends (string nameA, string nameB) {
  OrAccum @nearA;
  OrAccum @nearB;
  SumAccum<int> @@common;

  A = SELECT f
      FROM Person:p -(KNOWS)- Person:f
      WHERE p.firstName == nameA
      ACCUM f.@nearA += true;
  B = SELECT f
      FROM Person:p -(KNOWS)- Person:f
      WHERE p.firstName == nameB
      ACCUM f.@nearB += true;
  Common = A INTERSECT B;
  FOREACH x IN Common DO
    @@common += 1;
  END
  SELECT f.firstName AS firstName, f.lastName AS lastName INTO Friends
  FROM Person:f -(KNOWS*0..0)- Person:ff
  WHERE f.@nearA AND f.@nearB
  ORDER BY f.lastName ASC, f.firstName ASC;
  PRINT @@common;
}
|}

let add_knows_src = {|
CREATE QUERY AddKnows (VERTEX<Person> a, VERTEX<Person> b, DATETIME d) {
  INSERT INTO KNOWS (since) VALUES (a, b, d);
}
|}

(* Read-write gate: KNOWS half-edge bindings (two per undirected edge). *)
let knows_count_src = {|
CREATE QUERY KnowsCount () {
  SumAccum<int> @@n;
  S = SELECT p FROM Person:p -(KNOWS)- Person:q ACCUM @@n += 1;
  RETURN @@n;
}
|}

(* Appendix B in GSQL over City<-IS_LOCATED_IN-Person-LIKES->Comment
   -HAS_CREATOR->Person.  Heap tuple: (date, length, author birthday); the
   six per-year queues are bench/appendixb.ml's.  Grouping sets:
   (i) year, (ii) city/browser/year/month/length, (iii) city/gender/browser/
   year/month.  MultiGroupAcc gives each set only its own aggregates
   (paper Example 13); MultiGroupGs gives every set all eight (Example 12,
   GROUPING SETS semantics).  The load asks for the per-year heaps and the
   group counts of (ii) and (iii) only (full = false): the full answer is a
   2.7 MB frame at sf=4 for MultiGroupGs, and serializing it, not
   aggregating, would then bound the workload.  The gate fetches full
   answers after the load. *)
let heaps =
  "HeapAccum(20, 0 DESC, 1 DESC), HeapAccum(20, 0 ASC, 1 DESC), \
   HeapAccum(20, 1 DESC, 0 DESC), HeapAccum(20, 1 ASC, 0 DESC), \
   HeapAccum(10, 2 ASC, 1 DESC), HeapAccum(10, 2 DESC, 1 DESC)"

let keys_i = "INT yr"
let keys_ii = "STRING city, STRING browser, INT yr, INT mo, INT len"
let keys_iii = "STRING city, STRING gender, STRING browser, INT yr, INT mo"
let in_i = "year(m.creationDate)"
let in_ii = "c.name, m.browserUsed, year(m.creationDate), month(m.creationDate), m.length"
let in_iii = "c.name, p.gender, m.browserUsed, year(m.creationDate), month(m.creationDate)"
let tup = "(m.creationDate, m.length, a.birthday)"
let six_tups = String.concat ", " (List.init 6 (fun _ -> tup))

let multigroup_src ~name ~decls ~inputs =
  Printf.sprintf
    {|
CREATE QUERY %s (INT yearLo, INT yearHi, BOOL full) {
  %s
  S = SELECT m
      FROM City:c -(<IS_LOCATED_IN)- Person:p -(LIKES>)- Comment:m -(HAS_CREATOR>)- Person:a
      WHERE year(m.creationDate) >= yearLo AND year(m.creationDate) <= yearHi
      ACCUM %s;
  IF full THEN
    RETURN (@@byYear, @@countBy, @@avgLen);
  END;
  RETURN (@@byYear, @@countBy.size(), @@avgLen.size());
}
|}
    name
    (String.concat "\n  "
       (List.map2 (fun (keys, aggs) acc -> Printf.sprintf "GroupByAccum<%s, %s> %s;" keys aggs acc)
          decls [ "@@byYear"; "@@countBy"; "@@avgLen" ]))
    (String.concat ",\n            "
       (List.map2 (fun (keys, vals) acc -> Printf.sprintf "%s += (%s -> %s)" acc keys vals)
          inputs [ "@@byYear"; "@@countBy"; "@@avgLen" ]))

let multigroup_acc_src =
  multigroup_src ~name:"MultiGroupAcc"
    ~decls:[ (keys_i, heaps); (keys_ii, "SumAccum<INT>"); (keys_iii, "AvgAccum") ]
    ~inputs:[ (in_i, six_tups); (in_ii, "1"); (in_iii, "m.length") ]

let all_aggs = heaps ^ ", SumAccum<INT>, AvgAccum"
let all_inputs = six_tups ^ ", 1, m.length"

let multigroup_gs_src =
  multigroup_src ~name:"MultiGroupGs"
    ~decls:[ (keys_i, all_aggs); (keys_ii, all_aggs); (keys_iii, all_aggs) ]
    ~inputs:[ (in_i, all_inputs); (in_ii, all_inputs); (in_iii, all_inputs) ]

(* Every query the benchmark knows, by the short name the per-layer
   compile.run_ms.<name> metrics use. *)
let all_sources =
  List.map (fun ((q, _, _, _) as ic) -> (String.lowercase_ascii q, ic_source ic)) ic_queries
  @ [ ("khop", khop_src); ("common_friends", common_friends_src);
      ("multigroup_acc", multigroup_acc_src); ("multigroup_gs", multigroup_gs_src);
      ("add_knows", add_knows_src); ("knows_count", knows_count_src) ]

let src name = List.assoc name all_sources

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Every workload's SNB graph comes from this seed; --seed varies the
   requests only (e2e.ml says why). *)
let graph_seed = 42

(* Rates are about a third of each workload's saturation throughput_rps,
   measured on the commit that introduced the benchmark (README.md), so
   that a shared machine running at half speed for a while still keeps up
   (at half of capacity, such a spell queued agg-report into timeouts).
   They stay fixed so that later changes are judged at the same load. *)
let ic_read =
  { name = "ic-read"; sf = 3.0; rate = 60.0;
    sources = List.map (fun n -> (n, src n)) [ "ic1"; "ic3"; "ic6"; "ic9"; "khop" ] }

let point_read =
  { name = "point-read"; sf = 1.0; rate = 400.0;
    sources = List.map (fun n -> (n, src n)) [ "common_friends"; "khop" ] }

let read_write =
  { name = "read-write"; sf = 1.0; rate = 80.0;
    sources = List.map (fun n -> (n, src n)) [ "khop"; "add_knows"; "knows_count" ] }

let agg_report =
  { name = "agg-report"; sf = 4.0; rate = 8.0;
    sources = List.map (fun n -> (n, src n)) [ "multigroup_acc"; "multigroup_gs" ] }

let all = [ ic_read; point_read; read_write; agg_report ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Seeded request streams                                              *)

(* The distinct first names present in the graph (16 at sf >= 1). *)
let first_names (snb : Ldbc.Snb.t) =
  Array.to_list snb.Ldbc.Snb.persons
  |> List.map (fun p -> V.to_string_exn (G.vertex_attr snb.Ldbc.Snb.graph p "firstName"))
  |> List.sort_uniq compare |> Array.of_list

let read q params ~no_cache ~key = { query = q; params; no_cache; kind = Read; key }

(* Point and read-write reads: khop over (name, hops in 1..2). *)
let khop_key names k =
  let n = Array.length names in
  read "KHopNeighborhood"
    [ ("firstName", V.Str names.(k mod n)); ("hops", V.Int (1 + (k / n))) ]
    ~no_cache:false

let multigroup_params ~full =
  [ ("yearLo", V.Int 2010); ("yearHi", V.Int 2012); ("full", V.Bool full) ]

let random_date rng =
  V.datetime_of_ymd (R.int_in_range rng 2010 2012) (R.int_in_range rng 1 12)
    (R.int_in_range rng 1 28)

(* [stream w snb rng] is the workload's request generator; the same seed
   gives the same sequence. *)
let stream w (snb : Ldbc.Snb.t) rng =
  let names = first_names snb in
  let n = Array.length names in
  match w.name with
  | "ic-read" ->
    fun () ->
      let pick = R.int rng 5 in
      if pick = 4 then
        read "KHopNeighborhood"
          [ ("firstName", V.Str (R.choose rng names)); ("hops", V.Int 3) ]
          ~no_cache:true ~key:(-1)
      else
        let qname, ic, _, _ = List.nth ic_queries pick in
        read qname
          (Ldbc.Ic.default_params snb ~seed:(R.int rng 1_000_000) ic)
          ~no_cache:true ~key:(-1)
  | "point-read" ->
    (* n*n CommonFriends keys then 2n khop keys: 288 at n = 16. *)
    fun () ->
      let k = R.int rng ((n * n) + (2 * n)) in
      if k < n * n then
        read "CommonFriends"
          [ ("nameA", V.Str names.(k / n)); ("nameB", V.Str names.(k mod n)) ]
          ~no_cache:false ~key:k
      else khop_key names (k - (n * n)) ~key:k
  | "read-write" ->
    fun () ->
      if R.bernoulli rng 0.2 then begin
        let persons = snb.Ldbc.Snb.persons in
        let a = R.int rng (Array.length persons) in
        let b = (a + 1 + R.int rng (Array.length persons - 1)) mod Array.length persons in
        { query = "AddKnows";
          params =
            [ ("a", V.Vertex persons.(a)); ("b", V.Vertex persons.(b));
              ("d", random_date rng) ];
          no_cache = false; kind = Write; key = -1 }
      end
      else
        let k = R.int rng (2 * n) in
        khop_key names k ~key:k
  | "agg-report" ->
    (* One MultiGroupAcc to two MultiGroupGs: with an even mix the median
       would fall in the gap between the two latency modes and jump
       between them from run to run. *)
    let k = ref 0 in
    fun () ->
      incr k;
      let q = if !k mod 3 = 0 then "MultiGroupAcc" else "MultiGroupGs" in
      read q (multigroup_params ~full:false) ~no_cache:true ~key:(-1)
  | other -> invalid_arg ("Workload.stream: " ^ other)

(* ------------------------------------------------------------------ *)
(* Appendix B reference: the same match rows, aggregated by Sqlagg      *)

(* One row per (city, person, liked comment, creator) path, as the GSQL
   pattern binds it: [city; gender; browser; year; month; length; date;
   author birthday]. *)
let agg_rows (g : G.t) ~year_lo ~year_hi =
  let schema = G.schema g in
  let et name = (Pgraph.Schema.edge_type_of_name schema name).Pgraph.Schema.et_id in
  let vt name = (Pgraph.Schema.vertex_type_of_name schema name).Pgraph.Schema.vt_id in
  let located = et "IS_LOCATED_IN" and likes = et "LIKES" and creator = et "HAS_CREATOR" in
  let person = vt "Person" and city = vt "City" and comment = vt "Comment" in
  let out_to v etype ty f =
    G.iter_adjacent g v (fun h ->
        if h.G.h_rel = G.Out && G.edge_type_id g h.G.h_edge = etype
           && G.vertex_type_id g h.G.h_other = ty
        then f h.G.h_other)
  in
  let rows = ref [] in
  G.iter_vertices_of_type g person (fun p ->
      out_to p located city (fun c ->
          out_to p likes comment (fun m ->
              let date = G.vertex_attr g m "creationDate" in
              let year = V.year_of_datetime date in
              if year >= year_lo && year <= year_hi then
                out_to m creator person (fun a ->
                    rows :=
                      [| G.vertex_attr g c "name"; G.vertex_attr g p "gender";
                         G.vertex_attr g m "browserUsed"; V.Int year;
                         V.Int (V.month_of_datetime date); G.vertex_attr g m "length"; date;
                         G.vertex_attr g a "birthday" |]
                      :: !rows))));
  !rows

(* Key columns of the three grouping sets, as match-row columns. *)
let grouping_sets = [ [ 3 ]; [ 0; 2; 3; 4; 5 ]; [ 0; 1; 2; 3; 4 ] ]

(* Per grouping set: key tuple -> [| count; avg length; top-20 dates |]. *)
let sql_reference rows =
  let aggs =
    [ { Sqlagg.a_fun = Sqlagg.Count; a_col = 5 }; { Sqlagg.a_fun = Sqlagg.Avg; a_col = 5 };
      { Sqlagg.a_fun = Sqlagg.Top_k (20, true); a_col = 6 } ]
  in
  let union = Sqlagg.grouping_sets rows { Sqlagg.sets = grouping_sets; aggs } in
  let split = Sqlagg.split_outer_union ~n_keys:6 union in
  List.mapi
    (fun set_id cols ->
      let tbl = Hashtbl.create 1024 in
      List.iter
        (fun row ->
          (* Key columns sit at their own column index in the 6-wide
             nullable key prefix; the three aggregates follow it. *)
          let key = V.Vtuple (Array.of_list (List.map (fun c -> row.(c)) cols)) in
          Hashtbl.replace tbl key (Array.sub row 6 3))
        (try List.assoc set_id split with Not_found -> []);
      tbl)
    grouping_sets

let group_rows = function
  | V.Vlist rows -> List.map (function V.Vtuple a -> a | _ -> [||]) rows
  | _ -> []

(* The three grouping-set results of a MultiGroup* answer: group rows, or
   for sets (ii) and (iii) of a full = false answer, the group count. *)
let multigroup_sets (r : P.exec_result) =
  match r.P.x_return with
  | Some (Gsql.Eval.R_scalar (V.Vtuple [| a; b; c |])) -> Some [ a; b; c ]
  | _ -> None

let float_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* Checks one MultiGroup* answer against the SQL reference; returns the
   mismatches (empty = pass).  Group row layout:
   Acc  — set (i) [yr; h1..h6], (ii) [5 keys; count], (iii) [5 keys; avg];
   Gs   — every set [keys; h1..h6; count; avg]. *)
let check_multigroup ~gs reference (r : P.exec_result) =
  match multigroup_sets r with
  | None -> [ "result is not a three-set tuple" ]
  | Some sets ->
    let errs = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let check_row set_id nkeys sql row =
      let key = V.to_string (V.Vtuple (Array.sub row 0 nkeys)) in
      let count_col, avg_col = if gs then (nkeys + 6, nkeys + 7) else (nkeys, nkeys) in
      if set_id = 0 then begin
        (* Heap 1 orders by date DESC: its dates are the SQL top-20. *)
        let dates = List.map (function V.Vtuple t -> t.(0) | v -> v) (match row.(1) with V.Vlist l -> l | _ -> []) in
        match sql.(2) with
        | V.Vlist top when List.equal V.equal top dates -> ()
        | _ -> fail "set 0: year %s top-20 dates differ" key
      end;
      if (gs || set_id = 1) && not (V.equal row.(count_col) sql.(0)) then
        fail "set %d: group %s count %s, SQL %s" set_id key (V.to_string row.(count_col))
          (V.to_string sql.(0));
      if (gs || set_id = 2) && not (float_close (V.to_float row.(avg_col)) (V.to_float sql.(1)))
      then
        fail "set %d: group %s avg %s, SQL %s" set_id key (V.to_string row.(avg_col))
          (V.to_string sql.(1))
    in
    List.iteri
      (fun set_id set ->
        let ref_tbl = List.nth reference set_id in
        let nkeys = List.length (List.nth grouping_sets set_id) in
        let rows = group_rows set in
        let groups = match set with V.Int n -> n | _ -> List.length rows in
        if groups <> Hashtbl.length ref_tbl then
          fail "set %d: %d groups, SQL has %d" set_id groups (Hashtbl.length ref_tbl);
        List.iter
          (fun row ->
            match Hashtbl.find_opt ref_tbl (V.Vtuple (Array.sub row 0 nkeys)) with
            | None -> fail "set %d: a group is absent from SQL" set_id
            | Some sql -> check_row set_id nkeys sql row)
          rows)
      sets;
    List.rev !errs

(* MultiGroupGs must agree with MultiGroupAcc on their shared aggregates:
   the six per-year heaps, and in full answers the set (ii) counts and the
   set (iii) averages (group counts otherwise). *)
let check_acc_vs_gs (acc : P.exec_result) (gs : P.exec_result) =
  let rows_agree eq a g =
    List.length a = List.length g
    && List.for_all2 (fun ra rg -> Array.length ra = Array.length rg && Array.for_all2 eq ra rg) a g
  in
  let cols idx rows = List.map (fun row -> Array.map (fun i -> row.(i)) idx) (group_rows rows) in
  let value_close a b =
    match (a, b) with V.Float x, V.Float y -> float_close x y | _ -> V.equal a b
  in
  let set_agree eq a g idx =
    match (a, g) with
    | V.Int n, V.Int m -> n = m
    | _ -> rows_agree eq (group_rows a) (cols idx g)
  in
  match (multigroup_sets acc, multigroup_sets gs) with
  | Some [ ai; aii; aiii ], Some [ gi; gii; giii ] ->
    if set_agree V.equal ai gi [| 0; 1; 2; 3; 4; 5; 6 |]
       && set_agree V.equal aii gii [| 0; 1; 2; 3; 4; 11 |]
       && set_agree value_close aiii giii [| 0; 1; 2; 3; 4; 12 |]
    then []
    else [ "MultiGroupGs disagrees with MultiGroupAcc on shared aggregates" ]
  | _ -> [ "MultiGroup result is not a three-set tuple" ]
