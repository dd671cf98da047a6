module V = Pgraph.Value

type name = Ic1 | Ic2 | Ic3 | Ic5 | Ic6 | Ic9 | Ic11

let all = [ Ic1; Ic2; Ic3; Ic5; Ic6; Ic9; Ic11 ]

let name_to_string = function
  | Ic1 -> "ic1"
  | Ic2 -> "ic2"
  | Ic3 -> "ic3"
  | Ic5 -> "ic5"
  | Ic6 -> "ic6"
  | Ic9 -> "ic9"
  | Ic11 -> "ic11"

let ic1_source ~hops = Printf.sprintf {|
  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p AND f.firstName = targetName;

  SELECT f.firstName AS first, f.lastName AS last, c.name AS city INTO Result
  FROM Friends:f -(IS_LOCATED_IN>)- City:c
  ORDER BY f.lastName ASC, c.name ASC
  LIMIT 20;
|} hops

(* "_:m" ranges over both Posts and Comments — IC2 aggregates the friends'
   recent messages of either kind. *)
let ic2_source ~hops = Printf.sprintf {|
  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p;

  SELECT f.firstName AS name, m.creationDate AS date, m.length AS len INTO Result
  FROM Friends:f -(<HAS_CREATOR)- _:m
  WHERE m.creationDate < maxDate
  ORDER BY m.creationDate DESC, m.length DESC
  LIMIT 20;
|} hops

(* Sources are statement blocks (interpreted-query style); [p] is the start
   person parameter, [HOPS] is spliced into the KNOWS DARPE. *)

let ic3_source ~hops = Printf.sprintf {|
  SumAccum<int> @msgCount;

  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p;

  InCountry = SELECT f
              FROM Friends:f -(IS_LOCATED_IN>)- City:c -(IS_PART_OF>)- Country:n
              WHERE n.name = countryName;

  S = SELECT f
      FROM InCountry:f -(<HAS_CREATOR)- Comment:m
      ACCUM f.@msgCount += 1;

  SELECT f.firstName AS name, f.@msgCount AS cnt INTO Result
  FROM InCountry:f -(<HAS_CREATOR)- Comment:m
  ORDER BY f.@msgCount DESC, f.firstName ASC
  LIMIT 20;
|} hops

let ic5_source ~hops = Printf.sprintf {|
  SumAccum<int> @postCount;
  OrAccum @isFriend;

  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p
            ACCUM f.@isFriend += true;

  NewForums = SELECT fo
              FROM Friends:f -(<HAS_MEMBER:e)- Forum:fo
              WHERE e.joinDate > minDate;

  S = SELECT fo
      FROM NewForums:fo -(CONTAINER_OF>)- Post:po -(HAS_CREATOR>)- Person:author
      WHERE author.@isFriend
      ACCUM fo.@postCount += 1;

  SELECT fo.title AS forum, fo.@postCount AS posts INTO Result
  FROM NewForums:fo -(CONTAINER_OF>)- Post:po
  ORDER BY fo.@postCount DESC, fo.title ASC
  LIMIT 20;
|} hops

let ic6_source ~hops = Printf.sprintf {|
  SumAccum<int> @cnt;

  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p;

  Msgs = SELECT m
         FROM Friends:f -(<HAS_CREATOR)- Post:m -(HAS_TAG>)- Tag:t
         WHERE t.name = tagName;

  S = SELECT ot
      FROM Msgs:m -(HAS_TAG>)- Tag:ot
      WHERE ot.name <> tagName
      ACCUM ot.@cnt += 1;

  SELECT ot.name AS tag, ot.@cnt AS cnt INTO Result
  FROM Msgs:m -(HAS_TAG>)- Tag:ot
  WHERE ot.name <> tagName
  ORDER BY ot.@cnt DESC, ot.name ASC
  LIMIT 10;
|} hops

let ic9_source ~hops = Printf.sprintf {|
  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p;

  SELECT f.firstName AS name, m.creationDate AS date, m.length AS len INTO Result
  FROM Friends:f -(<HAS_CREATOR)- Comment:m
  WHERE m.creationDate < maxDate
  ORDER BY m.creationDate DESC, m.length DESC
  LIMIT 20;
|} hops

let ic11_source ~hops = Printf.sprintf {|
  Friends = SELECT f
            FROM Person:p -(KNOWS*1..%d)- Person:f
            WHERE f <> p;

  SELECT f.firstName AS name, co.name AS company, e.workFrom AS since INTO Result
  FROM Friends:f -(WORK_AT>:e)- Company:co -(IS_LOCATED_IN>)- Country:n
  WHERE n.name = countryName AND e.workFrom < maxYear
  ORDER BY e.workFrom ASC, f.firstName ASC
  LIMIT 10;
|} hops

let source name ~hops =
  match name with
  | Ic1 -> ic1_source ~hops
  | Ic2 -> ic2_source ~hops
  | Ic3 -> ic3_source ~hops
  | Ic5 -> ic5_source ~hops
  | Ic6 -> ic6_source ~hops
  | Ic9 -> ic9_source ~hops
  | Ic11 -> ic11_source ~hops

let default_params (t : Snb.t) ~seed name =
  let rng = Pgraph.Prng.create (seed * 31 + 7) in
  let person = ("p", V.Vertex (Snb.random_person t rng)) in
  let country () =
    let c = Snb.random_country t rng in
    ("countryName", Pgraph.Graph.vertex_attr t.Snb.graph c "name")
  in
  match name with
  | Ic1 ->
    let someone = Snb.random_person t rng in
    [ person;
      ("targetName", Pgraph.Graph.vertex_attr t.Snb.graph someone "firstName") ]
  | Ic2 -> [ person; ("maxDate", V.datetime_of_ymd 2012 9 1) ]
  | Ic3 -> [ person; country () ]
  | Ic5 -> [ person; ("minDate", V.datetime_of_ymd 2010 9 1) ]
  | Ic6 ->
    let tag = Snb.random_tag t rng in
    [ person; ("tagName", Pgraph.Graph.vertex_attr t.Snb.graph tag "name") ]
  | Ic9 -> [ person; ("maxDate", V.datetime_of_ymd 2012 6 1) ]
  | Ic11 -> [ person; country (); ("maxYear", V.Int 2010) ]

let run t ?semantics ~hops ~seed name =
  let params = default_params t ~seed name in
  Gsql.Compile.run_source t.Snb.graph ?semantics ~params (source name ~hops)

let result_rows (r : Gsql.Eval.result) =
  match List.assoc_opt "Result" r.Gsql.Eval.r_tables with
  | Some tbl -> Gsql.Table.n_rows tbl
  | None -> 0
