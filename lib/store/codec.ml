(* JSON codecs for everything the durability layer puts on disk: attribute
   values, logical mutations, WAL batches, and full graph snapshots
   (schema + data) for compaction.  The value encoding is the service
   protocol's $-tagged scheme — [Service.Protocol] aliases these functions
   so the wire and the disk can never drift apart. *)

module J = Obs.Json
module V = Pgraph.Value
module G = Pgraph.Graph
module S = Pgraph.Schema

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

(* Tagged single-field objects keep the non-JSON-native constructors
   distinguishable; plain objects never appear as encoded values, so the
   tags cannot collide with data. *)
let rec value_to_json (v : V.t) : J.t =
  match v with
  | V.Null -> J.Null
  | V.Bool b -> J.Bool b
  | V.Int n -> J.Int n
  | V.Float f -> J.Float f
  | V.Str s -> J.Str s
  | V.Datetime s -> J.Obj [ ("$dt", J.Int s) ]
  | V.Vertex id -> J.Obj [ ("$v", J.Int id) ]
  | V.Edge id -> J.Obj [ ("$e", J.Int id) ]
  | V.Vlist vs -> J.Obj [ ("$l", J.List (List.map value_to_json vs)) ]
  | V.Vtuple vs ->
    J.Obj [ ("$t", J.List (Array.to_list (Array.map value_to_json vs))) ]

let rec value_of_json (j : J.t) : (V.t, string) result =
  match j with
  | J.Null -> Ok V.Null
  | J.Bool b -> Ok (V.Bool b)
  | J.Int n -> Ok (V.Int n)
  | J.Float f -> Ok (V.Float f)
  | J.Str s -> Ok (V.Str s)
  | J.Obj [ ("$dt", J.Int s) ] -> Ok (V.Datetime s)
  | J.Obj [ ("$v", J.Int id) ] -> Ok (V.Vertex id)
  | J.Obj [ ("$e", J.Int id) ] -> Ok (V.Edge id)
  | J.Obj [ ("$l", J.List vs) ] ->
    let* vs = values_of_json vs in
    Ok (V.Vlist vs)
  | J.Obj [ ("$t", J.List vs) ] ->
    let* vs = values_of_json vs in
    Ok (V.Vtuple (Array.of_list vs))
  | _ -> Error ("bad value encoding: " ^ J.to_string j)

and values_of_json js =
  List.fold_right
    (fun j acc ->
      let* acc = acc in
      let* v = value_of_json j in
      Ok (v :: acc))
    js (Ok [])

let attrs_to_json attrs =
  J.Obj (List.map (fun (name, v) -> (name, value_to_json v)) attrs)

let attrs_of_json = function
  | J.Obj fields ->
    List.fold_right
      (fun (name, vj) acc ->
        let* acc = acc in
        let* v = value_of_json vj in
        Ok ((name, v) :: acc))
      fields (Ok [])
  | j -> Error ("bad attrs encoding: " ^ J.to_string j)

(* ------------------------------------------------------------------ *)
(* Mutations and batches                                               *)

let mutation_to_json (m : G.mutation) : J.t =
  match m with
  | G.M_add_vertex (ty, attrs) ->
    J.Obj [ ("op", J.Str "addv"); ("ty", J.Str ty); ("attrs", attrs_to_json attrs) ]
  | G.M_add_edge (ty, src, dst, attrs) ->
    J.Obj
      [ ("op", J.Str "adde"); ("ty", J.Str ty); ("src", J.Int src);
        ("dst", J.Int dst); ("attrs", attrs_to_json attrs) ]
  | G.M_set_vertex_attr (v, name, value) ->
    J.Obj
      [ ("op", J.Str "setv"); ("id", J.Int v); ("name", J.Str name);
        ("value", value_to_json value) ]
  | G.M_set_edge_attr (e, name, value) ->
    J.Obj
      [ ("op", J.Str "sete"); ("id", J.Int e); ("name", J.Str name);
        ("value", value_to_json value) ]

let field name j = Option.to_result ~none:("missing field " ^ name) (J.member name j)

let str_field name j =
  let* f = field name j in
  Option.to_result ~none:("bad field " ^ name) (J.to_str_opt f)

let int_field name j =
  let* f = field name j in
  Option.to_result ~none:("bad field " ^ name) (J.to_int_opt f)

let mutation_of_json (j : J.t) : (G.mutation, string) result =
  let* op = str_field "op" j in
  match op with
  | "addv" ->
    let* ty = str_field "ty" j in
    let* attrs_j = field "attrs" j in
    let* attrs = attrs_of_json attrs_j in
    Ok (G.M_add_vertex (ty, attrs))
  | "adde" ->
    let* ty = str_field "ty" j in
    let* src = int_field "src" j in
    let* dst = int_field "dst" j in
    let* attrs_j = field "attrs" j in
    let* attrs = attrs_of_json attrs_j in
    Ok (G.M_add_edge (ty, src, dst, attrs))
  | "setv" ->
    let* id = int_field "id" j in
    let* name = str_field "name" j in
    let* value_j = field "value" j in
    let* value = value_of_json value_j in
    Ok (G.M_set_vertex_attr (id, name, value))
  | "sete" ->
    let* id = int_field "id" j in
    let* name = str_field "name" j in
    let* value_j = field "value" j in
    let* value = value_of_json value_j in
    Ok (G.M_set_edge_attr (id, name, value))
  | op -> Error ("unknown mutation op " ^ op)

type batch = {
  b_version : int;  (* graph version after applying the batch *)
  b_ops : G.mutation list;
}

let batch_to_json b =
  J.Obj [ ("v", J.Int b.b_version); ("ops", J.List (List.map mutation_to_json b.b_ops)) ]

let batch_of_json j =
  let* v = int_field "v" j in
  let* ops_j = field "ops" j in
  let* ops =
    match ops_j with
    | J.List js ->
      List.fold_right
        (fun oj acc ->
          let* acc = acc in
          let* m = mutation_of_json oj in
          Ok (m :: acc))
        js (Ok [])
    | _ -> Error "ops is not a list"
  in
  Ok { b_version = v; b_ops = ops }

(* ------------------------------------------------------------------ *)
(* Schema and whole-graph snapshots (compaction)                       *)

let attr_type_to_string = function
  | S.T_bool -> "bool"
  | S.T_int -> "int"
  | S.T_float -> "float"
  | S.T_string -> "string"
  | S.T_datetime -> "datetime"

let attr_type_of_string = function
  | "bool" -> Ok S.T_bool
  | "int" -> Ok S.T_int
  | "float" -> Ok S.T_float
  | "string" -> Ok S.T_string
  | "datetime" -> Ok S.T_datetime
  | s -> Error ("unknown attr type " ^ s)

let sig_to_json sig_attrs =
  J.List
    (Array.to_list
       (Array.map
          (fun (name, ty) -> J.List [ J.Str name; J.Str (attr_type_to_string ty) ])
          sig_attrs))

let sig_of_json = function
  | J.List entries ->
    List.fold_right
      (fun e acc ->
        let* acc = acc in
        match e with
        | J.List [ J.Str name; J.Str ty ] ->
          let* ty = attr_type_of_string ty in
          Ok ((name, ty) :: acc)
        | _ -> Error "bad attribute signature entry")
      entries (Ok [])
  | _ -> Error "attribute signature is not a list"

let schema_to_json (s : S.t) : J.t =
  let vts =
    List.init (S.n_vertex_types s) (fun i ->
        let vt = S.vertex_type_of_id s i in
        J.Obj [ ("name", J.Str vt.S.vt_name); ("attrs", sig_to_json vt.S.vt_attrs) ])
  in
  let vt_name id = (S.vertex_type_of_id s id).S.vt_name in
  let ets =
    List.init (S.n_edge_types s) (fun i ->
        let et = S.edge_type_of_id s i in
        let endpoint = function None -> J.Null | Some id -> J.Str (vt_name id) in
        J.Obj
          [ ("name", J.Str et.S.et_name); ("directed", J.Bool et.S.et_directed);
            ("src", endpoint et.S.et_src); ("dst", endpoint et.S.et_dst);
            ("attrs", sig_to_json et.S.et_attrs) ])
  in
  J.Obj [ ("vertex_types", J.List vts); ("edge_types", J.List ets) ]

let schema_of_json (j : J.t) : (S.t, string) result =
  let s = S.create () in
  let* vts = field "vertex_types" j in
  let* ets = field "edge_types" j in
  let* () =
    match vts with
    | J.List vts ->
      List.fold_left
        (fun acc vt ->
          let* () = acc in
          let* name = str_field "name" vt in
          let* attrs_j = field "attrs" vt in
          let* attrs = sig_of_json attrs_j in
          match S.add_vertex_type s name attrs with
          | _ -> Ok ()
          | exception Invalid_argument msg -> Error msg)
        (Ok ()) vts
    | _ -> Error "vertex_types is not a list"
  in
  let* () =
    match ets with
    | J.List ets ->
      List.fold_left
        (fun acc et ->
          let* () = acc in
          let* name = str_field "name" et in
          let* directed =
            let* d = field "directed" et in
            match d with J.Bool b -> Ok b | _ -> Error "bad field directed"
          in
          let endpoint fname =
            match J.member fname et with
            | None | Some J.Null -> Ok None
            | Some (J.Str n) -> Ok (Some n)
            | Some _ -> Error ("bad field " ^ fname)
          in
          let* src = endpoint "src" in
          let* dst = endpoint "dst" in
          let* attrs_j = field "attrs" et in
          let* attrs = sig_of_json attrs_j in
          match S.add_edge_type s name ~directed ?src ?dst attrs with
          | _ -> Ok ()
          | exception Invalid_argument msg -> Error msg)
        (Ok ()) ets
    | _ -> Error "edge_types is not a list"
  in
  Ok s

(* Snapshot = schema + every vertex/edge re-encoded as its insertion call.
   Replaying in id order reproduces the dense ids exactly, so WAL batches
   recorded after the snapshot keep pointing at the right rows. *)
let graph_to_json ?(version = 0) (g : G.t) : J.t =
  let s = G.schema g in
  let attrs_of sig_attrs read =
    attrs_to_json
      (Array.to_list (Array.map (fun (name, _) -> (name, read name)) sig_attrs))
  in
  let vertices =
    List.init (G.n_vertices g) (fun v ->
        let vt = G.vertex_type g v in
        J.Obj
          [ ("ty", J.Str vt.S.vt_name);
            ("attrs", attrs_of vt.S.vt_attrs (G.vertex_attr g v)) ])
  in
  let edges =
    List.init (G.n_edges g) (fun e ->
        let et = G.edge_type g e in
        J.Obj
          [ ("ty", J.Str et.S.et_name); ("src", J.Int (G.edge_src g e));
            ("dst", J.Int (G.edge_dst g e));
            ("attrs", attrs_of et.S.et_attrs (G.edge_attr g e)) ])
  in
  J.Obj
    [ ("version", J.Int version); ("schema", schema_to_json s);
      ("vertices", J.List vertices); ("edges", J.List edges) ]

(* The snapshot decoder streams: the top-level object is read member by
   member and each row is decoded from its own small subtree as soon as
   it is lexed, so recovery never holds a tree of the whole graph.  The
   graph is created when [schema] arrives, hence the order rule: rows
   before the schema are an error ([graph_to_json] has always written
   [version, schema, vertices, edges]).  Other members are skipped. *)
let graph_of_string ?len (text : string) : (G.t * int, string) result =
  let exception Bad_snapshot of string in
  let bad msg = raise (Bad_snapshot msg) in
  let ok = function Ok x -> x | Error msg -> bad msg in
  let version = ref None and graph = ref None in
  let seen_vertices = ref false and seen_edges = ref false in
  let rows r name seen insert =
    if !seen then bad ("duplicate field " ^ name);
    seen := true;
    let g = match !graph with Some g -> g | None -> bad "snapshot rows before schema" in
    J.items r (fun () ->
        let item = J.value r in
        match insert g item with
        | Ok () -> ()
        | Error msg -> bad msg
        | exception Invalid_argument msg -> bad msg)
  in
  let vertex g item =
    let* ty = str_field "ty" item in
    let* attrs_j = field "attrs" item in
    let* attrs = attrs_of_json attrs_j in
    ignore (G.add_vertex g ty attrs);
    Ok ()
  in
  let edge g item =
    let* ty = str_field "ty" item in
    let* src = int_field "src" item in
    let* dst = int_field "dst" item in
    let* attrs_j = field "attrs" item in
    let* attrs = attrs_of_json attrs_j in
    ignore (G.add_edge g ty src dst attrs);
    Ok ()
  in
  let member r = function
    | "version" ->
      version := Some (ok (Option.to_result ~none:"bad field version" (J.to_int_opt (J.value r))))
    | "schema" ->
      if Option.is_some !graph then bad "duplicate field schema";
      graph := Some (G.create (ok (schema_of_json (J.value r))))
    | "vertices" -> rows r "vertices" seen_vertices vertex
    | "edges" -> rows r "edges" seen_edges edge
    | _ -> ignore (J.value r)
  in
  match
    let r = J.reader ?len text in
    J.fields r (member r);
    J.finish r
  with
  | exception J.Parse_error msg -> Error ("snapshot parse: " ^ msg)
  | exception Bad_snapshot msg -> Error msg
  | () -> (
    match !version, !graph with
    | None, _ -> Error "missing field version"
    | _, None -> Error "missing field schema"
    | Some v, Some g ->
      if not !seen_vertices then Error "missing field vertices"
      else if not !seen_edges then Error "missing field edges"
      else Ok (g, v))
