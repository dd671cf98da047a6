module V = Pgraph.Value

type name = Is1 | Is2 | Is3 | Is4 | Is5 | Is6 | Is7

let all = [ Is1; Is2; Is3; Is4; Is5; Is6; Is7 ]

let name_to_string = function
  | Is1 -> "is1"
  | Is2 -> "is2"
  | Is3 -> "is3"
  | Is4 -> "is4"
  | Is5 -> "is5"
  | Is6 -> "is6"
  | Is7 -> "is7"

let is1_source = {|
  SELECT p.firstName AS first, p.lastName AS last, p.gender AS gender,
         p.birthday AS birthday, p.browserUsed AS browser, c.name AS city INTO Result
  FROM Person:p -(IS_LOCATED_IN>)- City:c
  WHERE p == person;
|}

let is2_source = {|
  SELECT m.creationDate AS date, m.length AS len INTO Result
  FROM Person:p -(<HAS_CREATOR)- _:m
  WHERE p == person
  ORDER BY m.creationDate DESC, m.length DESC
  LIMIT 10;
|}

let is3_source = {|
  SELECT f.firstName AS first, f.lastName AS last, e.since AS since INTO Result
  FROM Person:p -(KNOWS:e)- Person:f
  WHERE p == person
  ORDER BY e.since DESC, f.firstName ASC;
|}

let is4_source = {|
  SELECT m.creationDate AS date, m.length AS len INTO Result
  FROM _:m -(HAS_CREATOR>)- Person:a
  WHERE m == message;
|}

let is5_source = {|
  SELECT a.firstName AS first, a.lastName AS last INTO Result
  FROM _:m -(HAS_CREATOR>)- Person:a
  WHERE m == message;
|}

(* The reply chain is a genuine DARPE: zero or more REPLY_OF hops to the
   containing post, then back across CONTAINER_OF to the forum. *)
let is6_source = {|
  SumAccum<int> @members;
  TheForum = SELECT fo
             FROM _:m -(REPLY_OF>*.<CONTAINER_OF)- Forum:fo
             WHERE m == message;
  S = SELECT fo FROM TheForum:fo -(HAS_MEMBER>)- Person:mem
      ACCUM fo.@members += 1;
  SELECT fo.title AS forum, fo.@members AS members INTO Result
  FROM TheForum:fo -(CONTAINER_OF>)- Post:po;
|}

let is7_source = {|
  SELECT r.creationDate AS date, r.length AS len, a.firstName AS author INTO Result
  FROM _:m -(<REPLY_OF)- Comment:r -(HAS_CREATOR>)- Person:a
  WHERE m == message
  ORDER BY r.creationDate DESC, a.firstName ASC;
|}

let source = function
  | Is1 -> is1_source
  | Is2 -> is2_source
  | Is3 -> is3_source
  | Is4 -> is4_source
  | Is5 -> is5_source
  | Is6 -> is6_source
  | Is7 -> is7_source

let default_params (t : Snb.t) ~seed name =
  let rng = Pgraph.Prng.create (seed * 17 + 3) in
  match name with
  | Is1 | Is2 | Is3 -> [ ("person", V.Vertex (Snb.random_person t rng)) ]
  | Is4 | Is5 | Is6 | Is7 ->
    let comments = t.Snb.comments in
    [ ("message", V.Vertex comments.(Pgraph.Prng.int rng (Array.length comments))) ]

let run t ?semantics ~seed name =
  let params = default_params t ~seed name in
  Gsql.Compile.run_source t.Snb.graph ?semantics ~params (source name)

let result_rows (r : Gsql.Eval.result) =
  match List.assoc_opt "Result" r.Gsql.Eval.r_tables with
  | Some tbl -> Gsql.Table.n_rows tbl
  | None -> 0
