(* The graph algorithms shipped as queries/*.gsql, run as compiled plans
   (Gsql.Compile) over a Person/KNOWS graph, each answer in the shape of
   its {!Oracles} counterpart. *)

module V = Pgraph.Value

let run ?(params = []) g file = Gsql.Compile.run_source g ~params (Fixtures.query_source file)

(* The rows of table [name] in [file]'s result, each read by [row]. *)
let table ?params g file name row =
  List.map
    (fun r ->
      match row r with
      | Some x -> x
      | None ->
        failwith
          (Printf.sprintf "%s: unexpected row [%s]" name
             (String.concat "; " (Array.to_list (Array.map V.to_string r)))))
    (Gsql.Eval.table (run ?params g file) name).Gsql.Table.rows

let components g =
  table g "wcc.gsql" "Components" (function
    | [| V.Int l; V.Int n |] -> Some (l, n)
    | _ -> None)

let reached g src =
  table ~params:[ ("source", V.Vertex src) ] g "sssp.gsql" "Distances" (function
    | [| V.Vertex v; V.Int d |] -> Some (v, d)
    | _ -> None)

let k_core g k =
  table ~params:[ ("k", V.Int k) ] g "kcore.gsql" "Core" (function
    | [| V.Vertex v |] -> Some v
    | _ -> None)

let triangles g =
  Scanf.sscanf (run g "triangles.gsql").Gsql.Eval.r_printed "@@triangles = %d" Fun.id

let labels g =
  Array.of_list
    (table g "label_propagation.gsql" "Labels" (function
      | [| V.Vertex _; V.Int l |] -> Some l
      | _ -> None))

let communities g =
  table g "label_propagation.gsql" "Communities" (function
    | [| V.Int l; V.Int n |] -> Some (l, n)
    | _ -> None)

let top_closeness g k =
  table ~params:[ ("k", V.Int k) ] g "closeness.gsql" "Central" (function
    | [| V.Vertex v; V.Float c |] -> Some (v, c)
    | _ -> None)
