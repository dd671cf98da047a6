(* Paper Figure 1 / Example 1: joining a relational HR table with the
   LinkedIn graph — "the employees who made the most LinkedIn connections
   outside the company since 2016".

   The relational side is a plain OCaml table (standing in for the RDBMS);
   the graph side is queried with a GSQL block whose undirected
   -(Connected)- pattern and accumulator count the outside connections.

   Run with: dune exec examples/hr_join.exe *)

module S = Pgraph.Schema
module G = Pgraph.Graph
module V = Pgraph.Value

(* The RDBMS side: Employee(email, dept, salary). *)
type employee = {
  email : string;
  dept : string;
}

let employees =
  [ { email = "ada@acme.com"; dept = "eng" };
    { email = "bob@acme.com"; dept = "sales" };
    { email = "cy@acme.com"; dept = "eng" } ]

let () =
  (* The LinkedIn graph: Person vertices (keyed by email), undirected
     Connected edges carrying the connection date. *)
  let schema = S.create () in
  let _ =
    S.add_vertex_type schema "Person" [ ("email", S.T_string); ("worksAtACME", S.T_bool) ]
  in
  let _ =
    S.add_edge_type schema "Connected" ~directed:false ~src:"Person" ~dst:"Person"
      [ ("since", S.T_datetime) ]
  in
  let g = G.create schema in
  let person email acme =
    G.add_vertex g "Person" [ ("email", V.Str email); ("worksAtACME", V.Bool acme) ]
  in
  let ada = person "ada@acme.com" true in
  let bob = person "bob@acme.com" true in
  let cy = person "cy@acme.com" true in
  let x1 = person "pat@other.org" false in
  let x2 = person "kim@other.org" false in
  let x3 = person "lee@other.org" false in
  let connect a b y m d = ignore (G.add_edge g "Connected" a b [ ("since", V.datetime_of_ymd y m d) ]) in
  connect ada x1 2017 3 1;
  connect ada x2 2018 7 9;
  connect ada x3 2015 1 5;   (* too old: filtered out *)
  connect ada bob 2019 2 2;  (* inside the company: filtered out *)
  connect bob x1 2020 11 30;
  connect cy x2 2014 6 6;    (* too old *)

  (* Figure 1's graph-side query: count post-2016 connections to
     non-employees, per person. *)
  let gsql = {|
    SumAccum<int> @outside;
    S = SELECT p
        FROM  Person:p -(Connected:c)- Person:o
        WHERE p.worksAtACME AND NOT o.worksAtACME AND c.since >= datetime(2016, 1, 1)
        ACCUM p.@outside += 1;
    SELECT p.email AS email, p.@outside AS outsideConnections INTO Outside
    FROM  Person:p -(Connected)- Person:o
    WHERE p.worksAtACME;
  |}
  in
  let result = Gsql.Compile.run_source g gsql in
  let graph_side = Gsql.Eval.table result "Outside" in

  (* The relational join: Employee ⋈_email Outside, ordered by count. *)
  let lookup email =
    List.find_map
      (fun row ->
        match row with
        | [| V.Str e; V.Int n |] when e = email -> Some n
        | _ -> None)
      graph_side.Gsql.Table.rows
    |> Option.value ~default:0
  in
  let joined =
    employees
    |> List.map (fun e -> (e.email, e.dept, lookup e.email))
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  print_endline "Employees by LinkedIn connections outside ACME since 2016:";
  List.iter
    (fun (email, dept, n) -> Printf.printf "  %-18s %-6s %d\n" email dept n)
    joined;
  (* ada: 2 (x1 2017, x2 2018); bob: 1 (x1 2020); cy: 0. *)
  assert (joined = [ ("ada@acme.com", "eng", 2); ("bob@acme.com", "sales", 1); ("cy@acme.com", "eng", 0) ]);
  print_endline "(matches the hand-computed answer)"
