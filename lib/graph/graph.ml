type dir_rel = Out | In | Und

type half = {
  h_edge : int;
  h_other : int;
  h_rel : dir_rel;
}

type mutation =
  | M_add_vertex of string * (string * Value.t) list
  | M_add_edge of string * int * int * (string * Value.t) list
  | M_set_vertex_attr of int * string * Value.t
  | M_set_edge_attr of int * string * Value.t

type t = {
  schema : Schema.t;
  mutable v_type : int Vec.t;
  mutable v_attrs : Value.t array Vec.t;
  mutable e_type : int Vec.t;
  mutable e_src : int Vec.t;
  mutable e_dst : int Vec.t;
  mutable e_attrs : Value.t array Vec.t;
  mutable adj : half Vec.t Vec.t;   (* per-vertex half-edges *)
  mutable by_type : int Vec.t Vec.t; (* vertex ids per vertex-type *)
  mutable cow : bool;
  (* True once this graph has ever been party to a {!snapshot}: inner
     structures (attribute rows, adjacency buckets) may be shared with
     another graph, so in-place writes must copy them out first. *)
  mutable journal : (mutation -> unit) option;
  (* Logical-op hook fired after each successful mutation — how the WAL
     captures a writer's changes without the evaluator knowing. *)
}

let create schema =
  let by_type = Vec.create () in
  for _ = 1 to Schema.n_vertex_types schema do
    Vec.push by_type (Vec.create ())
  done;
  { schema;
    v_type = Vec.create ();
    v_attrs = Vec.create ();
    e_type = Vec.create ();
    e_src = Vec.create ();
    e_dst = Vec.create ();
    e_attrs = Vec.create ();
    adj = Vec.create ();
    by_type;
    cow = false;
    journal = None }

let schema g = g.schema

let set_journal g hook = g.journal <- hook

let journal_emit g m = match g.journal with None -> () | Some f -> f m

(* Copy-on-write snapshot: O(#vertex-types) — every column spine becomes a
   shared-array clone, and both graphs are flagged [cow] so their mutators
   copy shared inner rows/buckets before writing.  Readers holding either
   graph never observe the other side's writes. *)
let snapshot g =
  g.cow <- true;
  { schema = g.schema;
    v_type = Vec.cow_clone g.v_type;
    v_attrs = Vec.cow_clone g.v_attrs;
    e_type = Vec.cow_clone g.e_type;
    e_src = Vec.cow_clone g.e_src;
    e_dst = Vec.cow_clone g.e_dst;
    e_attrs = Vec.cow_clone g.e_attrs;
    adj = Vec.cow_clone g.adj;
    by_type = Vec.cow_clone g.by_type;
    cow = true;
    journal = None }

(* Mutable inner bucket about to be pushed to: under [cow] the bucket
   record itself may be shared with a snapshot, so install a private
   cow-clone in the spine first (the clone unshares its array on push). *)
let own_bucket g spine i =
  let b = Vec.get spine i in
  if g.cow then begin
    let b' = Vec.cow_clone b in
    Vec.set spine i b';
    b'
  end
  else b

(* The schema may gain types after the graph was created (queries over an
   evolving catalog); lazily extend the per-type index. *)
let type_bucket g ty =
  while Vec.length g.by_type <= ty do
    Vec.push g.by_type (Vec.create ())
  done;
  Vec.get g.by_type ty

let build_attrs kind sig_attrs attrs =
  let n = Array.length sig_attrs in
  let row = Array.init n (fun i -> Schema.attr_default (snd sig_attrs.(i))) in
  List.iter
    (fun (name, v) ->
      let rec idx i =
        if i = n then invalid_arg (Printf.sprintf "Graph: unknown attribute %s on %s" name kind)
        else if fst sig_attrs.(i) = name then i
        else idx (i + 1)
      in
      let i = idx 0 in
      if not (Schema.check_attr (snd sig_attrs.(i)) v) then
        invalid_arg (Printf.sprintf "Graph: ill-typed value for attribute %s on %s" name kind);
      row.(i) <- v)
    attrs;
  row

let add_vertex g type_name attrs =
  let vt =
    match Schema.find_vertex_type g.schema type_name with
    | Some vt -> vt
    | None -> invalid_arg ("Graph: unknown vertex type " ^ type_name)
  in
  let id = Vec.length g.v_type in
  Vec.push g.v_type vt.Schema.vt_id;
  Vec.push g.v_attrs (build_attrs type_name vt.Schema.vt_attrs attrs);
  Vec.push g.adj (Vec.create ());
  ignore (type_bucket g vt.Schema.vt_id);
  Vec.push (own_bucket g g.by_type vt.Schema.vt_id) id;
  journal_emit g (M_add_vertex (type_name, attrs));
  id

let check_endpoint g label expected v =
  match expected with
  | None -> ()
  | Some ty ->
    if Vec.get g.v_type v <> ty then
      invalid_arg (Printf.sprintf "Graph: edge endpoint %s has wrong vertex type" label)

let add_edge g type_name src dst attrs =
  let et =
    match Schema.find_edge_type g.schema type_name with
    | Some et -> et
    | None -> invalid_arg ("Graph: unknown edge type " ^ type_name)
  in
  let nv = Vec.length g.v_type in
  if src < 0 || src >= nv || dst < 0 || dst >= nv then
    invalid_arg "Graph: edge endpoint does not exist";
  if et.Schema.et_directed then begin
    check_endpoint g "src" et.Schema.et_src src;
    check_endpoint g "dst" et.Schema.et_dst dst
  end else begin
    (* Undirected: endpoint constraints hold in either order. *)
    let ok_fwd =
      (match et.Schema.et_src with None -> true | Some ty -> Vec.get g.v_type src = ty)
      && (match et.Schema.et_dst with None -> true | Some ty -> Vec.get g.v_type dst = ty)
    and ok_rev =
      (match et.Schema.et_src with None -> true | Some ty -> Vec.get g.v_type dst = ty)
      && (match et.Schema.et_dst with None -> true | Some ty -> Vec.get g.v_type src = ty)
    in
    if not (ok_fwd || ok_rev) then invalid_arg "Graph: undirected edge endpoints have wrong vertex types"
  end;
  let id = Vec.length g.e_type in
  Vec.push g.e_type et.Schema.et_id;
  Vec.push g.e_src src;
  Vec.push g.e_dst dst;
  Vec.push g.e_attrs (build_attrs type_name et.Schema.et_attrs attrs);
  if et.Schema.et_directed then begin
    Vec.push (own_bucket g g.adj src) { h_edge = id; h_other = dst; h_rel = Out };
    Vec.push (own_bucket g g.adj dst) { h_edge = id; h_other = src; h_rel = In }
  end else begin
    Vec.push (own_bucket g g.adj src) { h_edge = id; h_other = dst; h_rel = Und };
    if dst <> src then
      Vec.push (own_bucket g g.adj dst) { h_edge = id; h_other = src; h_rel = Und }
  end;
  journal_emit g (M_add_edge (type_name, src, dst, attrs));
  id

let n_vertices g = Vec.length g.v_type
let n_edges g = Vec.length g.e_type

let vertex_type g v = Schema.vertex_type_of_id g.schema (Vec.get g.v_type v)
let vertex_type_id g v = Vec.get g.v_type v

let vertex_attr g v name =
  let vt = vertex_type g v in
  match Schema.vertex_attr_index vt name with
  | i -> (Vec.get g.v_attrs v).(i)
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Graph: vertex type %s has no attribute %s" vt.Schema.vt_name name)

let vertex_attr_opt g v name =
  let vt = vertex_type g v in
  match Schema.vertex_attr_index vt name with
  | i -> Some (Vec.get g.v_attrs v).(i)
  | exception Not_found -> None

let vertex_attr_at g v i = (Vec.get g.v_attrs v).(i)

(* Attribute rows are plain arrays shared wholesale by a snapshot's spine
   clone; under [cow] a write replaces the row rather than mutating it. *)
let own_row g spine i =
  let row = Vec.get spine i in
  if g.cow then begin
    let row' = Array.copy row in
    Vec.set spine i row';
    row'
  end
  else row

let set_vertex_attr g v name value =
  let vt = vertex_type g v in
  match Schema.vertex_attr_index vt name with
  | i ->
    (own_row g g.v_attrs v).(i) <- value;
    journal_emit g (M_set_vertex_attr (v, name, value))
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Graph: vertex type %s has no attribute %s" vt.Schema.vt_name name)

let edge_type g e = Schema.edge_type_of_id g.schema (Vec.get g.e_type e)
let edge_type_id g e = Vec.get g.e_type e
let edge_src g e = Vec.get g.e_src e
let edge_dst g e = Vec.get g.e_dst e

let edge_attr g e name =
  let et = edge_type g e in
  match Schema.edge_attr_index et name with
  | i -> (Vec.get g.e_attrs e).(i)
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Graph: edge type %s has no attribute %s" et.Schema.et_name name)

let edge_attr_opt g e name =
  match Schema.edge_attr_index (edge_type g e) name with
  | i -> Some (Vec.get g.e_attrs e).(i)
  | exception Not_found -> None

let edge_attr_at g e i = (Vec.get g.e_attrs e).(i)

let set_edge_attr g e name value =
  let et = edge_type g e in
  match Schema.edge_attr_index et name with
  | i ->
    (own_row g g.e_attrs e).(i) <- value;
    journal_emit g (M_set_edge_attr (e, name, value))
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Graph: edge type %s has no attribute %s" et.Schema.et_name name)

let edge_other_endpoint g e v =
  let s = edge_src g e and d = edge_dst g e in
  if s = v then d else s

let adjacency g v = Vec.to_array (Vec.get g.adj v)

let iter_adjacent g v f = Vec.iter f (Vec.get g.adj v)

let count_adjacent g v p =
  Vec.fold_left (fun acc h -> if p h then acc + 1 else acc) 0 (Vec.get g.adj v)

let out_degree g v = count_adjacent g v (fun h -> h.h_rel = Out || h.h_rel = Und)
let in_degree g v = count_adjacent g v (fun h -> h.h_rel = In || h.h_rel = Und)
let degree g v = Vec.length (Vec.get g.adj v)

(* Insertion order is part of the documented contract (see the mli): the
   fold accumulates newest-first, so the final reverse restores adjacency
   order.  Pinned by a regression test in test_graph.ml. *)
let neighbors g v ~rel ~etype =
  Vec.fold_left
    (fun acc h ->
      let type_ok = match etype with None -> true | Some ty -> Vec.get g.e_type h.h_edge = ty in
      if h.h_rel = rel && type_ok then h.h_other :: acc else acc)
    [] (Vec.get g.adj v)
  |> List.rev

let iter_vertices g f =
  for v = 0 to n_vertices g - 1 do
    f v
  done

let iter_vertices_of_type g ty f =
  if ty < Vec.length g.by_type then Vec.iter f (Vec.get g.by_type ty)

let vertices_of_type g ty =
  if ty < Vec.length g.by_type then Vec.to_array (Vec.get g.by_type ty) else [||]

let iter_edges g f =
  for e = 0 to n_edges g - 1 do
    f e
  done

let fold_vertices g ~init ~f =
  let acc = ref init in
  iter_vertices g (fun v -> acc := f !acc v);
  !acc

let apply_mutation g = function
  | M_add_vertex (ty, attrs) -> ignore (add_vertex g ty attrs)
  | M_add_edge (ty, src, dst, attrs) -> ignore (add_edge g ty src dst attrs)
  | M_set_vertex_attr (v, name, value) -> set_vertex_attr g v name value
  | M_set_edge_attr (e, name, value) -> set_edge_attr g e name value

let find_vertex_by_attr g type_name attr value =
  match Schema.find_vertex_type g.schema type_name with
  | None -> None
  | Some vt ->
    let found = ref None in
    (try
       iter_vertices_of_type g vt.Schema.vt_id (fun v ->
           if Value.equal (vertex_attr g v attr) value then begin
             found := Some v;
             raise Exit
           end)
     with Exit -> ());
    !found
