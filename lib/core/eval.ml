module V = Pgraph.Value
module B = Pgraph.Bignat
module G = Pgraph.Graph
module Sem = Pathsem.Semantics

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Runtime_error msg)) fmt

type rt_value =
  | R_scalar of V.t
  | R_vset of int array
  | R_table of Table.t

type result = {
  r_tables : (string * Table.t) list;
  r_printed : string;
  r_return : rt_value option;
  r_vsets : (string * int array) list;
}

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)

type ctx = {
  graph : G.t;
  store : Accum.Store.t;
  semantics : Sem.t;
  vars : (string, rt_value) Hashtbl.t;
  mutable tables : (string * Table.t) list;  (* reverse creation order *)
  print_buf : Buffer.t;
  mutable returned : rt_value option;
  primed : string list;  (* accumulator families used with ' *)
}

exception Returned

(* Overlay: assignments made earlier in the same acc-execution are visible
   to later statements of that execution (sequential within, snapshot
   across — see DESIGN.md on the PageRank POST_ACCUM idiom). *)
type overlay = (Accum.Store.target, V.t) Hashtbl.t

let overlay_create () : overlay = Hashtbl.create 8

(* ------------------------------------------------------------------ *)
(* Binding tables                                                      *)

type row = {
  verts : int array;          (* vertex id per vertex-alias slot; -1 unset *)
  edges : int array;          (* edge id per edge-alias slot; -1 unset *)
  mult : B.t;
}

type binding_table = {
  v_aliases : string array;
  e_aliases : string array;
  mutable rows : row list;
}

let alias_slot aliases name =
  let n = Array.length aliases in
  let rec go i = if i = n then -1 else if aliases.(i) = name then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Value environment and expression evaluation                         *)

(* [lookup] resolves row aliases and ACCUM locals; falls back to ctx vars. *)
type env = {
  e_ctx : ctx;
  e_lookup : string -> V.t option;
  e_overlay : overlay option;
  e_agg : (string -> Ast.expr -> V.t) option;
      (* aggregate-call hook, set only when evaluating GROUP BY groups *)
}

let ctx_var_value ctx name =
  match Hashtbl.find_opt ctx.vars name with
  | Some (R_scalar v) -> Some v
  | Some (R_vset vs) -> Some (V.Vlist (Array.to_list (Array.map (fun v -> V.Vertex v) vs)))
  | Some (R_table t) ->
    Some (V.Vlist (List.map (fun r -> V.Vtuple r) t.Table.rows))
  | None -> None

let read_acc env target =
  (match env.e_overlay with
   | Some o -> Hashtbl.find_opt o target
   | None -> None)
  |> function
  | Some v -> v
  | None -> Accum.Store.read env.e_ctx.store target

let resolve_vertex env alias =
  match env.e_lookup alias with
  | Some (V.Vertex v) -> v
  | Some other -> error "%s is bound to %s, not a vertex" alias (V.to_string other)
  | None ->
    (match ctx_var_value env.e_ctx alias with
     | Some (V.Vertex v) -> v
     | _ -> error "unbound vertex variable %s" alias)

(* SQL aggregate functions, active inside GROUP BY evaluation. *)
let is_aggregate_name name =
  match String.lowercase_ascii name with
  | "count" | "sum" | "avg" | "min" | "max" -> true
  | _ -> false

(* Builtins resolve once per call site: [builtin name arity] dispatches on
   the lowercased name and the argument count.  Fixed-arity builtins come
   back as [F1]/[F2], so a compiled call applies them to its argument
   values without consing a list; a wrong arity or an unknown name comes
   back as an [Fn] that raises when (and only when) the call runs. *)
type builtin =
  | F1 of (V.t -> V.t)
  | F2 of (V.t -> V.t -> V.t)
  | Fn of (V.t list -> V.t)

let builtin name arity =
  let one f = if arity = 1 then F1 f else Fn (fun _ -> error "%s expects one argument" name) in
  let two f = if arity = 2 then F2 f else Fn (fun _ -> error "%s expects two arguments" name) in
  let str f = one (fun v -> f (V.to_string_exn v)) in
  let str2 f = two (fun s p -> f (V.to_string_exn s) (V.to_string_exn p)) in
  match String.lowercase_ascii name with
  | "log" -> one (fun v -> V.Float (Float.log (V.to_float v)))
  | "log2" -> one (fun v -> V.Float (Float.log2 (V.to_float v)))
  | "exp" -> one (fun v -> V.Float (Float.exp (V.to_float v)))
  | "sqrt" -> one (fun v -> V.Float (Float.sqrt (V.to_float v)))
  | "abs" ->
    one (function V.Int n -> V.Int (abs n) | v -> V.Float (Float.abs (V.to_float v)))
  | "floor" -> one (fun v -> V.Float (Float.floor (V.to_float v)))
  | "ceil" -> one (fun v -> V.Float (Float.ceil (V.to_float v)))
  | "pow" -> two (fun a b -> V.Float (Float.pow (V.to_float a) (V.to_float b)))
  | "min" -> two (fun a b -> if V.compare a b <= 0 then a else b)
  | "max" -> two (fun a b -> if V.compare a b >= 0 then a else b)
  | "year" -> one (fun v -> V.Int (V.year_of_datetime v))
  | "month" -> one (fun v -> V.Int (V.month_of_datetime v))
  | "datetime" ->
    Fn
      (function
        | [ y; m; d ] -> V.datetime_of_ymd (V.to_int y) (V.to_int m) (V.to_int d)
        | _ -> error "datetime expects (year, month, day)")
  | "id" ->
    (* Internal id of a vertex or edge — lets queries seed per-vertex
       labels (WCC, label propagation) without a dedicated attribute. *)
    one (function
      | V.Vertex v -> V.Int v
      | V.Edge e -> V.Int e
      | _ -> error "id expects a vertex or edge")
  | "str" | "to_string" -> one (fun v -> V.Str (V.to_string v))
  | "lower" -> str (fun s -> V.Str (String.lowercase_ascii s))
  | "upper" -> str (fun s -> V.Str (String.uppercase_ascii s))
  | "trim" -> str (fun s -> V.Str (String.trim s))
  | "length" -> str (fun s -> V.Int (String.length s))
  | "concat" -> Fn (fun args -> V.Str (String.concat "" (List.map V.to_string args)))
  | "substr" ->
    Fn
      (function
        | [ s; start; len ] ->
          let s = V.to_string_exn s and start = V.to_int start and len = V.to_int len in
          let n = String.length s in
          let start = max 0 (min start n) in
          let len = max 0 (min len (n - start)) in
          V.Str (String.sub s start len)
        | _ -> error "substr expects (string, start, length)")
  | "starts_with" ->
    str2 (fun s p ->
        V.Bool (String.length p <= String.length s && String.sub s 0 (String.length p) = p))
  | "contains_str" ->
    str2 (fun s p ->
        let n = String.length s and m = String.length p in
        let rec scan i = i + m <= n && (String.sub s i m = p || scan (i + 1)) in
        V.Bool (m = 0 || scan 0))
  | "to_int" ->
    one (function
      | V.Int n -> V.Int n
      | V.Float f -> V.Int (int_of_float f)
      | V.Str s -> (try V.Int (int_of_string s) with Failure _ -> error "to_int: bad string")
      | _ -> error "to_int: unsupported value")
  | "to_float" -> one (fun v -> V.Float (V.to_float v))
  | "size" | "count" ->
    one (function
      | V.Vlist l -> V.Int (List.length l)
      | V.Str s -> V.Int (String.length s)
      | _ -> error "%s expects a collection" name)
  | _ -> Fn (fun _ -> error "unknown function %s" name)

let apply_builtin b args =
  match b, args with
  | F1 f, [ x ] -> f x
  | F2 f, [ x; y ] -> f x y
  | Fn f, _ -> f args
  | (F1 _ | F2 _), _ -> invalid_arg "Eval.apply_builtin: arity differs from resolution"

(* Attribute reads by name.  A name the element's type lacks is a query
   error, reported the same way by the interpreter and compiled plans. *)
let vertex_attr g v attr =
  match G.vertex_attr_opt g v attr with
  | Some x -> x
  | None ->
    error "vertex type %s has no attribute %s" (G.vertex_type g v).Pgraph.Schema.vt_name attr

let edge_attr g e attr =
  match G.edge_attr_opt g e attr with
  | Some x -> x
  | None -> error "edge type %s has no attribute %s" (G.edge_type g e).Pgraph.Schema.et_name attr

let rec eval_expr env (e : Ast.expr) : V.t =
  match e with
  | Ast.E_int n -> V.Int n
  | Ast.E_float f -> V.Float f
  | Ast.E_string s -> V.Str s
  | Ast.E_bool b -> V.Bool b
  | Ast.E_null -> V.Null
  | Ast.E_var name ->
    (match env.e_lookup name with
     | Some v -> v
     | None ->
       (match ctx_var_value env.e_ctx name with
        | Some v -> v
        | None -> error "unbound variable %s" name))
  | Ast.E_attr (base, attr) ->
    (match env.e_lookup base, ctx_var_value env.e_ctx base with
     | Some (V.Vertex v), _ | None, Some (V.Vertex v) -> vertex_attr env.e_ctx.graph v attr
     | Some (V.Edge e), _ | None, Some (V.Edge e) -> edge_attr env.e_ctx.graph e attr
     | Some other, _ -> error "%s.%s: %s is not a vertex or edge" base attr (V.to_string other)
     | None, _ -> error "unbound variable %s" base)
  | Ast.E_vacc (base, name) ->
    let v = resolve_vertex env base in
    read_acc env (Accum.Store.Vertex_acc (name, v))
  | Ast.E_vacc_prev (base, name) ->
    let v = resolve_vertex env base in
    Accum.Store.read_prev env.e_ctx.store (Accum.Store.Vertex_acc (name, v))
  | Ast.E_gacc name -> read_acc env (Accum.Store.Global name)
  | Ast.E_gacc_prev name -> Accum.Store.read_prev env.e_ctx.store (Accum.Store.Global name)
  | Ast.E_binop (Ast.And, a, b) -> V.Bool (V.to_bool (eval_expr env a) && V.to_bool (eval_expr env b))
  | Ast.E_binop (Ast.Or, a, b) -> V.Bool (V.to_bool (eval_expr env a) || V.to_bool (eval_expr env b))
  | Ast.E_binop (op, a, b) ->
    let x = eval_expr env a and y = eval_expr env b in
    (match op with
     | Ast.Add -> V.add x y
     | Ast.Sub -> V.sub x y
     | Ast.Mul -> V.mul x y
     | Ast.Div -> V.div x y
     | Ast.Mod -> V.modulo x y
     | Ast.Eq -> V.Bool (V.equal x y)
     | Ast.Neq -> V.Bool (not (V.equal x y))
     | Ast.Lt -> V.Bool (V.compare x y < 0)
     | Ast.Le -> V.Bool (V.compare x y <= 0)
     | Ast.Gt -> V.Bool (V.compare x y > 0)
     | Ast.Ge -> V.Bool (V.compare x y >= 0)
     | Ast.And | Ast.Or -> assert false)
  | Ast.E_unop (Ast.Neg, a) -> V.neg (eval_expr env a)
  | Ast.E_unop (Ast.Not, a) -> V.Bool (not (V.to_bool (eval_expr env a)))
  | Ast.E_call (name, args) ->
    (match env.e_agg with
     | Some hook when is_aggregate_name name && List.length args = 1 -> hook name (List.hd args)
     | _ -> apply_builtin (builtin name (List.length args)) (List.map (eval_expr env) args))
  | Ast.E_method (base, meth, args) -> eval_method env base meth (List.map (eval_expr env) args)
  | Ast.E_tuple es -> V.Vtuple (Array.of_list (List.map (eval_expr env) es))
  | Ast.E_arrow (ks, vs) ->
    let keys = Array.of_list (List.map (eval_expr env) ks) in
    let vals = Array.of_list (List.map (eval_expr env) vs) in
    (* A single-key, single-value arrow is a MapAccum input; anything wider
       is a GroupByAccum input. *)
    if Array.length keys = 1 && Array.length vals = 1 then V.Vtuple [| keys.(0); vals.(0) |]
    else V.Vtuple [| V.Vtuple keys; V.Vtuple vals |]

and eval_method env base meth args =
  match meth, base with
  | ("outdegree" | "outDegree"), _ ->
    let v =
      match base with
      | Ast.E_var alias -> resolve_vertex env alias
      | _ -> error "outdegree() requires a vertex variable"
    in
    (match args with
     | [] -> V.Int (G.out_degree env.e_ctx.graph v)
     | [ V.Str ty ] ->
       (match Pgraph.Schema.find_edge_type (G.schema env.e_ctx.graph) ty with
        | Some et ->
          let n = ref 0 in
          G.iter_adjacent env.e_ctx.graph v (fun h ->
              if (h.G.h_rel = G.Out || h.G.h_rel = G.Und)
                 && G.edge_type_id env.e_ctx.graph h.G.h_edge = et.Pgraph.Schema.et_id
              then incr n);
          V.Int !n
        | None -> error "outdegree: unknown edge type %s" ty)
     | _ -> error "outdegree expects no argument or an edge type name")
  | ("indegree" | "inDegree"), Ast.E_var alias ->
    V.Int (G.in_degree env.e_ctx.graph (resolve_vertex env alias))
  | "size", _ ->
    (match eval_expr env base with
     | V.Vlist l -> V.Int (List.length l)
     | v -> error "size(): %s is not a collection" (V.to_string v))
  | "get", _ ->
    (* m.get(k): MapAccum lookup on a read map value. *)
    (match eval_expr env base, args with
     | V.Vlist pairs, [ k ] ->
       let rec find = function
         | [] -> V.Null
         | V.Vtuple [| key; value |] :: rest -> if V.equal key k then value else find rest
         | _ :: rest -> find rest
       in
       find pairs
     | _ -> error "get() expects a map value and one key")
  | "contains", _ ->
    (match eval_expr env base, args with
     | V.Vlist l, [ x ] -> V.Bool (List.exists (V.equal x) l)
     | _ -> error "contains() expects a collection and one value")
  | "type", Ast.E_var alias ->
    let v = resolve_vertex env alias in
    V.Str (G.vertex_type env.e_ctx.graph v).Pgraph.Schema.vt_name
  | _ -> error "unknown method %s" meth

let plain_env ctx =
  { e_ctx = ctx; e_lookup = (fun _ -> None); e_overlay = None; e_agg = None }

let env_with ctx bindings =
  { e_ctx = ctx; e_lookup = (fun n -> List.assoc_opt n bindings); e_overlay = None; e_agg = None }

(* ------------------------------------------------------------------ *)
(* FROM clause: building the compressed binding table                  *)

let resolve_endpoint_set ctx name : int array option =
  (* Returns the concrete seed set, or None when the name denotes a vertex
     type used purely as a filter. *)
  match Hashtbl.find_opt ctx.vars name with
  | Some (R_vset vs) -> Some vs
  | Some (R_scalar (V.Vertex v)) -> Some [| v |]
  | Some _ -> error "%s is not a vertex set" name
  | None -> None

let type_filter ctx name : int -> bool =
  if name = "_" || name = "ANY" then fun _ -> true
  else
    match Pgraph.Schema.find_vertex_type (G.schema ctx.graph) name with
    | Some vt -> fun v -> G.vertex_type_id ctx.graph v = vt.Pgraph.Schema.vt_id
    | None -> error "unknown vertex type or set %s" name

let endpoint_seed ctx (ep : Ast.endpoint) : int array =
  match resolve_endpoint_set ctx ep.Ast.ep_set with
  | Some vs -> vs
  | None ->
    if ep.Ast.ep_set = "_" || ep.Ast.ep_set = "ANY" then
      Array.init (G.n_vertices ctx.graph) (fun i -> i)
    else
      (match Pgraph.Schema.find_vertex_type (G.schema ctx.graph) ep.Ast.ep_set with
       | Some vt -> G.vertices_of_type ctx.graph vt.Pgraph.Schema.vt_id
       | None -> error "unknown vertex type or set %s" ep.Ast.ep_set)

let endpoint_pred ctx (ep : Ast.endpoint) : int -> bool =
  match resolve_endpoint_set ctx ep.Ast.ep_set with
  | Some vs ->
    let tbl = Hashtbl.create (Array.length vs) in
    Array.iter (fun v -> Hashtbl.replace tbl v ()) vs;
    fun v -> Hashtbl.mem tbl v
  | None -> type_filter ctx ep.Ast.ep_set

let endpoint_alias (ep : Ast.endpoint) =
  match ep.Ast.ep_alias with
  | Some a -> a
  | None -> ep.Ast.ep_set

(* "Customer:c" where [c] is a vertex-valued parameter or prior binding pins
   the alias to that single vertex (paper Fig. 3 seeds the pattern with the
   query's customer parameter this way). *)
let alias_constraint ctx alias =
  match Hashtbl.find_opt ctx.vars alias with
  | Some (R_scalar (V.Vertex v)) -> Some v
  | _ -> None

(* Single-step DARPE: scan the frozen CSR index's (etype, rel) segment
   slices directly, binding the edge variable when present — a typed,
   direction-adorned step touches only its matching contiguous slices
   instead of predicate-filtering the whole adjacency list.  Returns
   (src, dst, edge) triples. *)
let single_step_pairs ctx (sources : int array) (ty : string option) (adir : Darpe.Ast.adir)
    ~(dst_ok : int -> bool) : (int * int * int) list =
  let csr = Pgraph.Csr.of_graph ctx.graph in
  let etype =
    match ty with
    | None -> None
    | Some name ->
      (match Pgraph.Schema.find_edge_type (G.schema ctx.graph) name with
       | Some et -> Some et.Pgraph.Schema.et_id
       | None -> error "unknown edge type %s" name)
  in
  let rel_ok (rel : G.dir_rel) =
    match adir, rel with
    | Darpe.Ast.Fwd, G.Out | Darpe.Ast.Rev, G.In | Darpe.Ast.Undir, G.Und | Darpe.Ast.Any, _ ->
      true
    | (Darpe.Ast.Fwd | Darpe.Ast.Rev | Darpe.Ast.Undir), _ -> false
  in
  let out = ref [] in
  let scan src lo hi =
    for j = lo to hi - 1 do
      let dst = csr.Pgraph.Csr.nbr.(j) in
      if dst_ok dst then out := (src, dst, csr.Pgraph.Csr.edg.(j)) :: !out
    done
  in
  Array.iter
    (fun src ->
      match etype with
      | Some t ->
        (* Known edge type: binary-search the matching segment per allowed
           relation. *)
        List.iter
          (fun rel ->
            if rel_ok rel then
              match Pgraph.Csr.find_segment csr src ~sym:(Pgraph.Csr.sym ~etype:t ~rel) with
              | Some (lo, hi) -> scan src lo hi
              | None -> ())
          [ G.Out; G.In; G.Und ]
      | None ->
        Pgraph.Csr.iter_segments csr src (fun ~sym ~lo ~hi ->
            if rel_ok (Pgraph.Csr.rel_of_code (sym mod 3)) then scan src lo hi))
    sources;
  !out

let distinct_ints (a : int array) =
  let tbl = Hashtbl.create (Array.length a) in
  let out = ref [] in
  Array.iter
    (fun v ->
      if not (Hashtbl.mem tbl v) then begin
        Hashtbl.add tbl v ();
        out := v :: !out
      end)
    a;
  Array.of_list (List.rev !out)

(* Evaluate one conjunct against the rows built so far.  [alias_pred] is the
   pushed-down single-alias WHERE filter (identity when none applies). *)
let eval_conjunct ctx ~(alias_pred : string -> int -> bool) (bt : binding_table)
    (c : Ast.conjunct) =
  let src_alias = endpoint_alias c.Ast.c_src and dst_alias = endpoint_alias c.Ast.c_dst in
  let src_slot = alias_slot bt.v_aliases src_alias in
  let dst_slot = alias_slot bt.v_aliases dst_alias in
  let edge_slot =
    match c.Ast.c_edge_alias with Some a -> alias_slot bt.e_aliases a | None -> -1
  in
  let src_bound = bt.rows <> [] && List.exists (fun r -> r.verts.(src_slot) >= 0) bt.rows in
  let dst_bound = bt.rows <> [] && List.exists (fun r -> r.verts.(dst_slot) >= 0) bt.rows in
  let sources =
    if src_bound then
      distinct_ints (Array.of_list (List.map (fun r -> r.verts.(src_slot)) bt.rows))
    else endpoint_seed ctx c.Ast.c_src
  in
  let src_pred =
    let base = endpoint_pred ctx c.Ast.c_src in
    let pushed = alias_pred src_alias in
    let pinned = alias_constraint ctx src_alias in
    fun v -> base v && pushed v && (match pinned with None -> true | Some p -> v = p)
  in
  let sources = Array.of_list (List.filter src_pred (Array.to_list sources)) in
  let dst_pred =
    let base = endpoint_pred ctx c.Ast.c_dst in
    let pushed = alias_pred dst_alias in
    let pinned = alias_constraint ctx dst_alias in
    fun v -> base v && pushed v && (match pinned with None -> true | Some p -> v = p)
  in
  (* pairs : (src, dst, edge option, multiplicity) list *)
  let pairs =
    match c.Ast.c_darpe with
    | Darpe.Ast.Step (ty, adir) ->
      List.map
        (fun (s, d, e) -> (s, d, e, B.one))
        (single_step_pairs ctx sources ty adir ~dst_ok:dst_pred)
    | darpe ->
      List.map
        (fun (b : Pathsem.Engine.binding) ->
          (b.Pathsem.Engine.b_src, b.Pathsem.Engine.b_dst, -1, b.Pathsem.Engine.b_mult))
        (Pathsem.Engine.match_pairs ctx.graph darpe ctx.semantics
           ~sources ~dst_ok:dst_pred)
  in
  if bt.rows = [] then
    bt.rows <-
      List.map
        (fun (s, d, e, mu) ->
          let verts = Array.make (Array.length bt.v_aliases) (-1) in
          let edges = Array.make (Array.length bt.e_aliases) (-1) in
          verts.(src_slot) <- s;
          verts.(dst_slot) <- d;
          if edge_slot >= 0 then edges.(edge_slot) <- e;
          { verts; edges; mult = mu })
        pairs
  else begin
    (* Hash-join on the already-bound endpoints. *)
    let by_src = Hashtbl.create 64 in
    List.iter
      (fun ((s, _, _, _) as p) ->
        Hashtbl.replace by_src s (p :: (try Hashtbl.find by_src s with Not_found -> [])))
      pairs;
    let extend (r : row) (s, d, e, mu) =
      if (r.verts.(src_slot) >= 0 && r.verts.(src_slot) <> s)
         || (r.verts.(dst_slot) >= 0 && r.verts.(dst_slot) <> d)
      then None
      else begin
        let verts = Array.copy r.verts and edges = Array.copy r.edges in
        verts.(src_slot) <- s;
        verts.(dst_slot) <- d;
        if edge_slot >= 0 then edges.(edge_slot) <- e;
        Some { verts; edges; mult = B.mul r.mult mu }
      end
    in
    let rows =
      List.concat_map
        (fun r ->
          let candidates =
            if src_bound && r.verts.(src_slot) >= 0 then
              (try Hashtbl.find by_src r.verts.(src_slot) with Not_found -> [])
            else pairs
          in
          List.filter_map (extend r) candidates)
        bt.rows
    in
    ignore dst_bound;
    bt.rows <- rows
  end;
  (* Governor checkpoint: the joined table is the unbounded product in a
     SELECT — charge its size and enforce the row ceiling.  Guarded so
     ungoverned runs never pay the List.length. *)
  if Interrupt.governed () then begin
    let n = List.length bt.rows in
    Interrupt.check_rows n;
    Interrupt.tick_n n
  end

let collect_aliases (from : Ast.conjunct list) =
  let v_aliases = ref [] and e_aliases = ref [] in
  let add l a = if not (List.mem a !l) then l := a :: !l in
  List.iter
    (fun (c : Ast.conjunct) ->
      add v_aliases (endpoint_alias c.Ast.c_src);
      add v_aliases (endpoint_alias c.Ast.c_dst);
      match c.Ast.c_edge_alias with Some a -> add e_aliases a | None -> ())
    from;
  (Array.of_list (List.rev !v_aliases), Array.of_list (List.rev !e_aliases))

let build_binding_table ctx ~alias_pred (from : Ast.conjunct list) : binding_table =
  let v_aliases, e_aliases = collect_aliases from in
  let bt = { v_aliases; e_aliases; rows = [] } in
  (match from with
   | [] -> error "FROM clause needs at least one pattern"
   | first :: rest ->
     eval_conjunct ctx ~alias_pred bt first;
     List.iter (fun c -> if bt.rows <> [] then eval_conjunct ctx ~alias_pred bt c) rest);
  bt

(* WHERE decomposition: split a top-level AND tree into conjuncts; those
   touching exactly one vertex alias are pushed into the pattern match
   (evaluated per candidate vertex, before path counting), the rest stay as
   a residual row filter.  This mirrors the seed-set pre-filtering every
   graph engine performs and keeps the diamond benchmarks honest: Q_n
   matches from one source vertex, not from |V| of them. *)
let rec and_conjuncts (e : Ast.expr) =
  match e with
  | Ast.E_binop (Ast.And, a, b) -> and_conjuncts a @ and_conjuncts b
  | other -> [ other ]

let rec expr_vertex_aliases_only (aliases : string array) (e : Ast.expr) : string list option =
  (* Some [names] when the expression mentions pattern aliases only through
     the returned vertex aliases (no edge aliases); None = not pushable. *)
  let merge a b =
    match a, b with
    | Some x, Some y -> Some (x @ y)
    | _ -> None
  in
  match e with
  | Ast.E_var v | Ast.E_attr (v, _) | Ast.E_vacc (v, _) | Ast.E_vacc_prev (v, _) ->
    if alias_slot aliases v >= 0 then Some [ v ] else Some []
  | Ast.E_int _ | Ast.E_float _ | Ast.E_string _ | Ast.E_bool _ | Ast.E_null | Ast.E_gacc _
  | Ast.E_gacc_prev _ -> Some []
  | Ast.E_binop (_, a, b) ->
    merge (expr_vertex_aliases_only aliases a) (expr_vertex_aliases_only aliases b)
  | Ast.E_unop (_, a) -> expr_vertex_aliases_only aliases a
  | Ast.E_call (_, args) | Ast.E_tuple args ->
    List.fold_left (fun acc a -> merge acc (expr_vertex_aliases_only aliases a)) (Some []) args
  | Ast.E_method (base, _, args) ->
    List.fold_left
      (fun acc a -> merge acc (expr_vertex_aliases_only aliases a))
      (expr_vertex_aliases_only aliases base)
      args
  | Ast.E_arrow (ks, vs) ->
    List.fold_left
      (fun acc a -> merge acc (expr_vertex_aliases_only aliases a))
      (Some []) (ks @ vs)

let rec expr_aliases_of (e_aliases : string array) (e : Ast.expr) : string list =
  match e with
  | Ast.E_var v | Ast.E_attr (v, _) -> if alias_slot e_aliases v >= 0 then [ v ] else []
  | Ast.E_vacc _ | Ast.E_vacc_prev _ | Ast.E_int _ | Ast.E_float _ | Ast.E_string _
  | Ast.E_bool _ | Ast.E_null | Ast.E_gacc _ | Ast.E_gacc_prev _ -> []
  | Ast.E_binop (_, a, b) -> expr_aliases_of e_aliases a @ expr_aliases_of e_aliases b
  | Ast.E_unop (_, a) -> expr_aliases_of e_aliases a
  | Ast.E_call (_, args) | Ast.E_tuple args -> List.concat_map (expr_aliases_of e_aliases) args
  | Ast.E_method (base, _, args) ->
    expr_aliases_of e_aliases base @ List.concat_map (expr_aliases_of e_aliases) args
  | Ast.E_arrow (ks, vs) -> List.concat_map (expr_aliases_of e_aliases) (ks @ vs)

let split_where ctx (from : Ast.conjunct list) (where : Ast.expr option) =
  let v_aliases, e_aliases = collect_aliases from in
  match where with
  | None -> ((fun _ _ -> true), None)
  | Some cond ->
    let parts = and_conjuncts cond in
    let pushable, residual =
      List.partition
        (fun part ->
          (* Pushable: references exactly one vertex alias and no edge
             alias. *)
          let touches_edge =
            List.exists (fun a -> alias_slot e_aliases a >= 0) (expr_aliases_of e_aliases part)
          in
          if touches_edge then false
          else
            match expr_vertex_aliases_only v_aliases part with
            | Some names -> List.length (List.sort_uniq compare names) = 1
            | None -> false)
        parts
    in
    let by_alias = Hashtbl.create 4 in
    List.iter
      (fun part ->
        match expr_vertex_aliases_only v_aliases part with
        | Some (name :: _) ->
          Hashtbl.replace by_alias name
            (part :: (try Hashtbl.find by_alias name with Not_found -> []))
        | _ -> assert false)
      pushable;
    let alias_pred alias v =
      match Hashtbl.find_opt by_alias alias with
      | None -> true
      | Some parts ->
        let env = env_with ctx [ (alias, V.Vertex v) ] in
        List.for_all (fun p -> V.to_bool (eval_expr env p)) parts
    in
    let residual_expr =
      match residual with
      | [] -> None
      | first :: rest ->
        Some (List.fold_left (fun acc p -> Ast.E_binop (Ast.And, acc, p)) first rest)
    in
    (alias_pred, residual_expr)

(* ------------------------------------------------------------------ *)
(* ACCUM / POST_ACCUM execution                                        *)

let row_env ctx (bt : binding_table) (r : row) (locals : (string, V.t) Hashtbl.t)
    (overlay : overlay) =
  let lookup name =
    match Hashtbl.find_opt locals name with
    | Some v -> Some v
    | None ->
      let vs = alias_slot bt.v_aliases name in
      if vs >= 0 && r.verts.(vs) >= 0 then Some (V.Vertex r.verts.(vs))
      else begin
        let es = alias_slot bt.e_aliases name in
        if es >= 0 && r.edges.(es) >= 0 then Some (V.Edge r.edges.(es)) else None
      end
  in
  { e_ctx = ctx; e_lookup = lookup; e_overlay = Some overlay; e_agg = None }

let resolve_target env (t : Ast.acc_target) : Accum.Store.target =
  match t with
  | Ast.T_global name -> Accum.Store.Global name
  | Ast.T_vertex (alias, name) -> Accum.Store.Vertex_acc (name, resolve_vertex env alias)

let rec exec_acc_stmt ctx phase env locals overlay mult (s : Ast.acc_stmt) =
  match s with
  | Ast.A_local (x, e) -> Hashtbl.replace locals x (eval_expr env e)
  | Ast.A_input (t, e) ->
    let target = resolve_target env t in
    let v = eval_expr env e in
    Accum.Store.buffer_input phase target v mult
  | Ast.A_assign (t, e) ->
    let target = resolve_target env t in
    let v = eval_expr env e in
    Accum.Store.buffer_assign phase target v;
    Hashtbl.replace overlay target v
  | Ast.A_if (c, th, el) ->
    let branch = if V.to_bool (eval_expr env c) then th else el in
    List.iter (exec_acc_stmt ctx phase env locals overlay mult) branch
  | Ast.A_attr_assign (alias, attr, e) ->
    let v = eval_expr env e in
    (match env.e_lookup alias with
     | Some (V.Vertex vid) -> G.set_vertex_attr ctx.graph vid attr v
     | Some (V.Edge eid) -> G.set_edge_attr ctx.graph eid attr v
     | _ -> error "unbound variable %s in attribute assignment" alias)

let exec_accum ctx (bt : binding_table) stmts =
  if stmts <> [] then begin
    let phase = Accum.Store.begin_phase ctx.store in
    List.iter
      (fun r ->
        Interrupt.tick ();
        let locals = Hashtbl.create 8 in
        let overlay = overlay_create () in
        let env = row_env ctx bt r locals overlay in
        List.iter (exec_acc_stmt ctx phase env locals overlay r.mult) stmts)
      bt.rows;
    Accum.Store.commit ctx.store phase
  end

(* POST_ACCUM: one execution per distinct vertex of the statement's alias
   (statements referencing no vertex alias run once).  Consecutive
   statements over the same alias share one execution so that overlaid
   assignments stay visible (the PageRank idiom). *)
let post_accum_groups stmts =
  List.fold_left
    (fun acc stmt ->
      let a = match Analyze.post_accum_aliases stmt with [] -> None | a :: _ -> Some a in
      match acc with
      | (a', stmts') :: rest when a' = a -> (a', stmt :: stmts') :: rest
      | _ -> (a, [ stmt ]) :: acc)
    [] stmts
  |> List.rev_map (fun (a, ss) -> (a, List.rev ss))
  |> List.rev

let exec_post_accum ctx (bt : binding_table) stmts =
  begin
    List.iter
      (fun (alias, group) ->
        let phase = Accum.Store.begin_phase ctx.store in
        (match alias with
         | None ->
           let locals = Hashtbl.create 4 in
           let overlay = overlay_create () in
           let env =
             { e_ctx = ctx; e_lookup = (fun n -> Hashtbl.find_opt locals n); e_overlay = Some overlay; e_agg = None }
           in
           List.iter (exec_acc_stmt ctx phase env locals overlay B.one) group
         | Some a ->
           let slot = alias_slot bt.v_aliases a in
           if slot < 0 then error "POST_ACCUM references unknown alias %s" a;
           let seen = Hashtbl.create 64 in
           List.iter
             (fun r ->
               Interrupt.tick ();
               let v = r.verts.(slot) in
               if v >= 0 && not (Hashtbl.mem seen v) then begin
                 Hashtbl.add seen v ();
                 let locals = Hashtbl.create 4 in
                 let overlay = overlay_create () in
                 let lookup name =
                   if name = a then Some (V.Vertex v) else Hashtbl.find_opt locals name
                 in
                 let env = { e_ctx = ctx; e_lookup = lookup; e_overlay = Some overlay; e_agg = None } in
                 List.iter (exec_acc_stmt ctx phase env locals overlay B.one) group
               end)
             bt.rows);
        Accum.Store.commit ctx.store phase)
      (post_accum_groups stmts)
  end

(* ------------------------------------------------------------------ *)
(* SELECT projection                                                   *)


(* The pattern aliases, vertex or edge, an output expression mentions. *)
let rec expr_aliases va ea (e : Ast.expr) : string list =
  match e with
  | Ast.E_var v | Ast.E_attr (v, _) | Ast.E_vacc (v, _) | Ast.E_vacc_prev (v, _) ->
    if alias_slot va v >= 0 || alias_slot ea v >= 0 then [ v ] else []
  | Ast.E_binop (_, a, b) -> expr_aliases va ea a @ expr_aliases va ea b
  | Ast.E_unop (_, a) -> expr_aliases va ea a
  | Ast.E_call (_, args) | Ast.E_tuple args -> List.concat_map (expr_aliases va ea) args
  | Ast.E_method (base, _, args) ->
    expr_aliases va ea base @ List.concat_map (expr_aliases va ea) args
  | Ast.E_arrow (ks, vs) -> List.concat_map (expr_aliases va ea) (ks @ vs)
  | Ast.E_int _ | Ast.E_float _ | Ast.E_string _ | Ast.E_bool _ | Ast.E_null | Ast.E_gacc _
  | Ast.E_gacc_prev _ -> []

let column_name (e, alias) =
  match alias with
  | Some a -> a
  | None -> Ast.expr_to_string e

(* Binds one SELECT output table under its INTO name. *)
let bind_output ctx (o : Ast.output_spec) table =
  let table = if o.Ast.o_distinct then Table.distinct table else table in
  ctx.tables <- (o.Ast.o_into, table) :: ctx.tables;
  Hashtbl.replace ctx.vars o.Ast.o_into (R_table table)

(* Distinct alias combinations appearing in the binding table, projected on
   the given alias list. *)
let distinct_combos (bt : binding_table) (aliases : string list) =
  let slots =
    List.map
      (fun a ->
        let vs = alias_slot bt.v_aliases a in
        if vs >= 0 then `V vs
        else
          let es = alias_slot bt.e_aliases a in
          if es >= 0 then `E es else error "unknown alias %s in SELECT" a)
      aliases
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun r ->
      let key = List.map (function `V s -> r.verts.(s) | `E s -> r.edges.(s)) slots in
      if List.for_all (fun v -> v >= 0) key && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let bindings =
          List.map2
            (fun a slot ->
              match slot with
              | `V s -> (a, V.Vertex r.verts.(s))
              | `E s -> (a, V.Edge r.edges.(s)))
            aliases slots
        in
        out := bindings :: !out
      end)
    bt.rows;
  List.rev !out

let sort_uniq_str l = List.sort_uniq compare l

(* ORDER BY: compares two rows' key lists, each key a (value, DESC) pair. *)
let rec compare_keys ka kb =
  match ka, kb with
  | (va, desc) :: ra, (vb, _) :: rb ->
    let c = V.compare va vb in
    let c = if desc then -c else c in
    if c <> 0 then c else compare_keys ra rb
  | _ -> 0

let apply_order_limit ctx rows_with_env order_by limit =
  (* rows_with_env : (Value.t array * (string * V.t) list) list *)
  let rows =
    match order_by with
    | [] -> rows_with_env
    | keys ->
      let with_keys =
        List.map
          (fun (row, bindings) ->
            let env = env_with ctx bindings in
            let ks = List.map (fun (e, desc) -> (eval_expr env e, desc)) keys in
            (ks, (row, bindings)))
          rows_with_env
      in
      List.map snd (List.stable_sort (fun (ka, _) (kb, _) -> compare_keys ka kb) with_keys)
  in
  match limit with
  | None -> rows
  | Some e ->
    let n = V.to_int (eval_expr (plain_env ctx) e) in
    List.filteri (fun i _ -> i < n) rows

(* ------------------------------------------------------------------ *)
(* GROUP BY evaluation (§4.2's SQL-borrowed clause).                    *)

module VH = Hashtbl.Make (struct
  type t = V.t

  let equal = V.equal
  let hash = V.hash
end)

(* Partitions [items] by [key], groups in first-appearance order, members
   in input order. *)
let group_by_key (key : 'a -> V.t) (items : 'a list) : 'a list list =
  let groups = VH.create 64 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match VH.find_opt groups k with
      | Some members -> members := x :: !members
      | None ->
        VH.add groups k (ref [ x ]);
        order := k :: !order)
    items;
  List.rev_map (fun k -> List.rev !(VH.find groups k)) !order

(* SQL aggregates over a group's member rows, each weighted by its path
   multiplicity µ (bag semantics, §6).  [count( * )] counts every row;
   every other form skips the rows whose argument is NULL, and [sum],
   [avg], [min] and [max] return NULL when no value is left.  [value m]
   evaluates the argument on member [m]. *)
let aggregate name (arg : Ast.expr) ~(mult : 'm -> B.t) ~(value : 'm -> V.t)
    (members : 'm list) =
  let count mus =
    let total = List.fold_left B.add B.zero mus in
    match B.to_int_opt total with Some n -> V.Int n | None -> V.Float (B.to_float total)
  in
  let present () =
    List.filter_map (fun m -> match value m with V.Null -> None | v -> Some (mult m, v)) members
  in
  match String.lowercase_ascii name with
  | "count" when arg = Ast.E_var "*" -> count (List.map mult members)
  | "count" -> count (List.map fst (present ()))
  | ("sum" | "avg") as f ->
    (match present () with
     | [] -> V.Null
     | vs ->
       let s, n =
         List.fold_left
           (fun (s, n) (mu, v) ->
             let mu = B.to_float mu in
             (s +. (mu *. V.to_float v), n +. mu))
           (0.0, 0.0) vs
       in
       V.Float (if f = "sum" then s else s /. n))
  | ("min" | "max") as f ->
    (* Ties keep the first minimum and the last maximum. *)
    let better v b = if f = "min" then V.compare v b < 0 else V.compare v b >= 0 in
    List.fold_left
      (fun best (_, v) -> match best with V.Null -> v | b -> if better v b then v else b)
      V.Null (present ())
  | other -> error "unknown aggregate %s" other

(* Environment for one group: leaf lookups resolve against a representative
   member row (sound for expressions functionally dependent on the group
   key, as SQL requires); aggregate calls fold over all member rows. *)
let grouped_env ctx (members : (row * env) list) =
  let rep_env = match members with (_, env) :: _ -> env | [] -> plain_env ctx in
  let hook name arg =
    aggregate name arg ~mult:(fun (r, _) -> r.mult) ~value:(fun (_, env) -> eval_expr env arg)
      members
  in
  { rep_env with e_agg = Some hook }

let eval_grouped_outputs ctx (bt : binding_table) (b : Ast.select_block)
    (outputs : Ast.output_spec list) =
  (* Partition the (filtered) binding table by the GROUP BY key. *)
  let key (_, env) = V.Vtuple (Array.of_list (List.map (eval_expr env) b.Ast.s_group_by)) in
  let group_envs =
    List.map (fun r -> (r, row_env ctx bt r (Hashtbl.create 1) (overlay_create ()))) bt.rows
    |> group_by_key key
    |> List.map (grouped_env ctx)
  in
  (* HAVING filters groups (aggregates allowed). *)
  let group_envs =
    match b.Ast.s_having with
    | None -> group_envs
    | Some cond -> List.filter (fun env -> V.to_bool (eval_expr env cond)) group_envs
  in
  (* ORDER BY over groups (aggregates allowed). *)
  let group_envs =
    match b.Ast.s_order_by with
    | [] -> group_envs
    | keys ->
      let with_keys =
        List.map (fun env -> (List.map (fun (e, desc) -> (eval_expr env e, desc)) keys, env)) group_envs
      in
      List.map snd (List.stable_sort (fun (ka, _) (kb, _) -> compare_keys ka kb) with_keys)
  in
  let group_envs =
    match b.Ast.s_limit with
    | None -> group_envs
    | Some e ->
      let n = V.to_int (eval_expr (plain_env ctx) e) in
      List.filteri (fun i _ -> i < n) group_envs
  in
  List.iter
    (fun (o : Ast.output_spec) ->
      let rows =
        List.map
          (fun env -> Array.of_list (List.map (fun (e, _) -> eval_expr env e) o.Ast.o_exprs))
          group_envs
      in
      bind_output ctx o (Table.create (List.map column_name o.Ast.o_exprs) rows))
    outputs

let eval_select ctx (binding : string option) (b : Ast.select_block) =
  (* Save primed snapshots before the block touches anything. *)
  if ctx.primed <> [] then Accum.Store.save_prev ctx.store ctx.primed;
  let alias_pred, residual = split_where ctx b.Ast.s_from b.Ast.s_where in
  let bt = build_binding_table ctx ~alias_pred b.Ast.s_from in
  (* Residual WHERE conjuncts (multi-alias or edge-touching). *)
  (match residual with
   | None -> ()
   | Some cond ->
     bt.rows <-
       List.filter
         (fun r ->
           let env = row_env ctx bt r (Hashtbl.create 1) (overlay_create ()) in
           V.to_bool (eval_expr env cond))
         bt.rows);
  (* ACCUM, then POST_ACCUM (each commits its phase). *)
  exec_accum ctx bt b.Ast.s_accum;
  exec_post_accum ctx bt b.Ast.s_post_accum;
  (* Outputs. *)
  (match b.Ast.s_target with
   | Ast.Sel_vertices (_, alias, into) ->
     let slot = alias_slot bt.v_aliases alias in
     if slot < 0 then error "SELECT %s: unknown alias" alias;
     let vids = distinct_ints (Array.of_list (List.map (fun r -> r.verts.(slot)) bt.rows)) in
     let vids = Array.of_list (List.filter (fun v -> v >= 0) (Array.to_list vids)) in
     (* HAVING filters the result set on accumulator values. *)
     let vids =
       match b.Ast.s_having with
       | None -> vids
       | Some cond ->
         Array.of_list
           (List.filter
              (fun v ->
                let env = env_with ctx [ (alias, V.Vertex v) ] in
                V.to_bool (eval_expr env cond))
              (Array.to_list vids))
     in
     let rows_with_env =
       List.map (fun v -> ([| V.Vertex v |], [ (alias, V.Vertex v) ])) (Array.to_list vids)
     in
     let rows = apply_order_limit ctx rows_with_env b.Ast.s_order_by b.Ast.s_limit in
     let vids = Array.of_list (List.map (fun (row, _) -> V.vertex_id row.(0)) rows) in
     let bind name = Hashtbl.replace ctx.vars name (R_vset vids) in
     Option.iter bind binding;
     Option.iter bind into
   | Ast.Sel_outputs outputs when b.Ast.s_group_by <> [] ->
     eval_grouped_outputs ctx bt b outputs
   | Ast.Sel_outputs outputs ->
     List.iter
       (fun (o : Ast.output_spec) ->
         let aliases =
           sort_uniq_str
             (List.concat_map (fun (e, _) -> expr_aliases bt.v_aliases bt.e_aliases e) o.Ast.o_exprs)
         in
         let combos =
           if aliases = [] then [ [] ]  (* pure-global output: one row *)
           else distinct_combos bt aliases
         in
         let combos =
           match b.Ast.s_having with
           | None -> combos
           | Some cond ->
             List.filter (fun bindings -> V.to_bool (eval_expr (env_with ctx bindings) cond)) combos
         in
         let rows_with_env =
           List.map
             (fun bindings ->
               let env = env_with ctx bindings in
               (Array.of_list (List.map (fun (e, _) -> eval_expr env e) o.Ast.o_exprs), bindings))
             combos
         in
         (* ORDER BY keys only apply to outputs that bind their aliases —
            the other fragments of a multi-output SELECT ignore them. *)
         let applicable_order =
           List.filter
             (fun (key, _) ->
               List.for_all (fun a -> List.mem a aliases)
                 (expr_aliases bt.v_aliases bt.e_aliases key))
             b.Ast.s_order_by
         in
         let rows_with_env = apply_order_limit ctx rows_with_env applicable_order b.Ast.s_limit in
         bind_output ctx o
           (Table.create (List.map column_name o.Ast.o_exprs) (List.map fst rows_with_env)))
       outputs)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let resolve_set_types ctx types =
  match types with
  | [ "*" ] -> Array.init (G.n_vertices ctx.graph) (fun i -> i)
  | _ ->
    Array.concat
      (List.map
         (fun ty ->
           match Pgraph.Schema.find_vertex_type (G.schema ctx.graph) ty with
           | Some vt -> G.vertices_of_type ctx.graph vt.Pgraph.Schema.vt_id
           | None -> error "unknown vertex type %s" ty)
         types)

(* Vertex-set assignment: [X = {T.*}], [X = Y], [X = A UNION B] ... *)
let set_assign ctx x (src : Ast.set_source) =
  let set_operand name =
    match Hashtbl.find_opt ctx.vars name with
    | Some (R_vset vs) -> vs
    | Some _ -> error "%s is not a vertex set" name
    | None ->
      (* A vertex-type name also denotes its full extent. *)
      (match Pgraph.Schema.find_vertex_type (G.schema ctx.graph) name with
       | Some vt -> G.vertices_of_type ctx.graph vt.Pgraph.Schema.vt_id
       | None -> error "unbound set variable %s" name)
  in
  let value =
    match src with
    | Ast.Set_types types -> R_vset (resolve_set_types ctx types)
    | Ast.Set_copy y ->
      (match Hashtbl.find_opt ctx.vars y with
       | Some rv -> rv
       | None -> error "unbound set variable %s" y)
    | Ast.Set_op (op, a, b) ->
      let va = set_operand a and vb = set_operand b in
      let in_b = Hashtbl.create (Array.length vb) in
      Array.iter (fun v -> Hashtbl.replace in_b v ()) vb;
      R_vset
        (match op with
         | Ast.Op_union -> distinct_ints (Array.append va vb)
         | Ast.Op_intersect -> Array.of_list (List.filter (Hashtbl.mem in_b) (Array.to_list va))
         | Ast.Op_minus ->
           Array.of_list (List.filter (fun v -> not (Hashtbl.mem in_b v)) (Array.to_list va)))
  in
  Hashtbl.replace ctx.vars x value

(* PRINT output, one item at a time. *)
let print_value ctx label v =
  Buffer.add_string ctx.print_buf (Printf.sprintf "%s = %s\n" label (V.to_string v))

let print_binding ctx label = function
  | R_vset vs ->
    Buffer.add_string ctx.print_buf
      (Printf.sprintf "%s = {%s}\n" label
         (String.concat ", " (List.map (fun v -> V.to_string (V.Vertex v)) (Array.to_list vs))))
  | R_table t -> Buffer.add_string ctx.print_buf (Printf.sprintf "%s =\n%s" label (Table.to_string t))
  | R_scalar v -> print_value ctx label v

let projected_set ctx setname =
  match Hashtbl.find_opt ctx.vars setname with
  | Some (R_vset vs) -> vs
  | _ -> error "PRINT %s[...]: %s is not a vertex set" setname setname

(* [PRINT S[e1, ...]]: [rows] holds the projection of each member of S. *)
let print_projection ctx setname exprs rows =
  let t = Table.create (List.map Ast.expr_to_string exprs) rows in
  ctx.tables <- (setname, t) :: ctx.tables;
  Buffer.add_string ctx.print_buf (Table.to_string t)

(* INSERT INTO ty (attrs) VALUES (values): a vertex, or an edge whose first
   two values are its endpoints. *)
let insert ctx ty attrs values =
  let schema = G.schema ctx.graph in
  match Pgraph.Schema.find_vertex_type schema ty, Pgraph.Schema.find_edge_type schema ty with
  | Some _, _ ->
    if List.length attrs <> List.length values then
      error "INSERT INTO %s: %d attributes but %d values" ty (List.length attrs)
        (List.length values);
    (try ignore (G.add_vertex ctx.graph ty (List.combine attrs values))
     with Invalid_argument msg -> error "INSERT: %s" msg)
  | None, Some _ ->
    (match values with
     | src :: dst :: attr_values ->
       if List.length attrs <> List.length attr_values then
         error "INSERT INTO %s: %d attributes but %d attribute values" ty (List.length attrs)
           (List.length attr_values);
       let src = V.vertex_id src and dst = V.vertex_id dst in
       (try ignore (G.add_edge ctx.graph ty src dst (List.combine attrs attr_values))
        with Invalid_argument msg -> error "INSERT: %s" msg)
     | _ -> error "INSERT INTO %s (edge type): VALUES needs source and target vertices" ty)
  | None, None -> error "INSERT INTO %s: unknown type" ty

(* An accumulator declaration, each accumulator starting from [init]. *)
let declare ctx (d : Ast.acc_decl) init =
  List.iter
    (fun (is_global, name) ->
      if is_global then begin
        Accum.Store.declare_global ctx.store name d.Ast.d_spec;
        Option.iter (fun v -> Accum.Store.assign_now ctx.store (Accum.Store.Global name) v) init
      end
      else begin
        Accum.Store.declare_vertex ctx.store name d.Ast.d_spec ~n_vertices:(G.n_vertices ctx.graph);
        Option.iter (Accum.Store.set_vertex_init ctx.store name) init
      end)
    d.Ast.d_names

(* What [X = e] and [RETURN e] bind: a variable keeps its kind (vertex
   set, table), anything else is the scalar [eval ()]. *)
let binding_of ctx (e : Ast.expr) eval =
  match e with
  | Ast.E_var y when Hashtbl.mem ctx.vars y -> Hashtbl.find ctx.vars y
  | _ -> R_scalar (eval ())

(* What FOREACH iterates: a vertex set's members, a list's or tuple's
   elements, else the single value [eval ()]. *)
let foreach_items ctx (e : Ast.expr) eval =
  let var = match e with Ast.E_var y -> Hashtbl.find_opt ctx.vars y | _ -> None in
  match var with
  | Some (R_vset vs) -> Array.to_list (Array.map (fun v -> V.Vertex v) vs)
  | _ -> (match eval () with V.Vlist l -> l | V.Vtuple a -> Array.to_list a | v -> [ v ])

let rec exec_stmt ctx (s : Ast.stmt) =
  (* Governor checkpoint: one tick per statement covers WHILE/FOREACH
     iterations (each body statement re-enters here), so a pure spin loop
     cannot outrun its budget. *)
  Interrupt.tick ();
  match s with
  | Ast.S_acc_decl d -> declare ctx d (Option.map (eval_expr (plain_env ctx)) d.Ast.d_init)
  | Ast.S_set_assign (x, src) -> set_assign ctx x src
  | Ast.S_select (binding, block) -> eval_select ctx binding block
  | Ast.S_gacc_assign (name, is_input, e) ->
    let v = eval_expr (plain_env ctx) e in
    if is_input then Accum.Store.input_now ctx.store (Accum.Store.Global name) v
    else Accum.Store.assign_now ctx.store (Accum.Store.Global name) v
  | Ast.S_let (x, e) ->
    Hashtbl.replace ctx.vars x (binding_of ctx e (fun () -> eval_expr (plain_env ctx) e))
  | Ast.S_while (cond, limit, body) ->
    let max_iters =
      match limit with
      | None -> max_int
      | Some e -> V.to_int (eval_expr (plain_env ctx) e)
    in
    let i = ref 0 in
    while !i < max_iters && V.to_bool (eval_expr (plain_env ctx) cond) do
      (* Ticked here too: a WHILE with an empty body never re-enters
         exec_stmt, yet must still hit checkpoints. *)
      Interrupt.tick ();
      List.iter (exec_stmt ctx) body;
      incr i
    done
  | Ast.S_if (cond, th, el) ->
    if V.to_bool (eval_expr (plain_env ctx) cond) then List.iter (exec_stmt ctx) th
    else List.iter (exec_stmt ctx) el
  | Ast.S_foreach (x, e, body) ->
    let items = foreach_items ctx e (fun () -> eval_expr (plain_env ctx) e) in
    List.iter
      (fun item ->
        Hashtbl.replace ctx.vars x (R_scalar item);
        List.iter (exec_stmt ctx) body)
      items
  | Ast.S_print items ->
    List.iter
      (function
        | Ast.P_expr (Ast.E_var name, alias) when Hashtbl.mem ctx.vars name ->
          print_binding ctx (Option.value alias ~default:name) (Hashtbl.find ctx.vars name)
        | Ast.P_expr (e, alias) ->
          print_value ctx
            (Option.value alias ~default:(Ast.expr_to_string e))
            (eval_expr (plain_env ctx) e)
        | Ast.P_proj (setname, exprs) ->
          let rows =
            List.map
              (fun v ->
                let env = env_with ctx [ (setname, V.Vertex v) ] in
                Array.of_list (List.map (eval_expr env) exprs))
              (Array.to_list (projected_set ctx setname))
          in
          print_projection ctx setname exprs rows)
      items
  | Ast.S_insert (ty, attrs, value_exprs) ->
    insert ctx ty attrs (List.map (eval_expr (plain_env ctx)) value_exprs)
  | Ast.S_return e ->
    ctx.returned <- Some (binding_of ctx e (fun () -> eval_expr (plain_env ctx) e));
    raise Returned

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let finish ctx =
  let vsets =
    Hashtbl.fold
      (fun name rv acc -> match rv with R_vset vs -> (name, vs) :: acc | _ -> acc)
      ctx.vars []
  in
  { r_tables = List.rev ctx.tables;
    r_printed = Buffer.contents ctx.print_buf;
    r_return = ctx.returned;
    r_vsets = List.sort compare vsets }

let make_ctx graph semantics params primed =
  let ctx =
    { graph;
      store = Accum.Store.create ();
      semantics;
      vars = Hashtbl.create 16;
      tables = [];
      print_buf = Buffer.create 256;
      returned = None;
      primed }
  in
  List.iter (fun (name, v) -> Hashtbl.replace ctx.vars name (R_scalar v)) params;
  ctx

let run_checked graph semantics params stmts (info : Analyze.info) =
  (match info.Analyze.errors with
   | [] -> ()
   | errs -> error "analysis failed: %s" (String.concat "; " errs));
  let ctx = make_ctx graph semantics params info.Analyze.primed in
  (try List.iter (exec_stmt ctx) stmts with
   | Returned -> ()
   | V.Type_error msg -> error "type error: %s" msg);
  finish ctx

let run_block graph ?(semantics = Sem.All_shortest) ?(params = []) stmts =
  run_checked graph semantics params stmts (Analyze.check_block stmts)

let query_semantics ?semantics (q : Ast.query) =
  match semantics, q.Ast.q_semantics with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> Sem.All_shortest

(* Check parameters against the header. *)
let check_params (q : Ast.query) params =
  List.iter
    (fun (p : Ast.param) ->
      match List.assoc_opt p.Ast.p_name params with
      | None -> error "missing parameter %s" p.Ast.p_name
      | Some v ->
        let ok =
          match p.Ast.p_ty, v with
          | Ast.Ty_int, V.Int _
          | Ast.Ty_float, (V.Float _ | V.Int _)
          | Ast.Ty_string, V.Str _
          | Ast.Ty_bool, V.Bool _
          | Ast.Ty_datetime, V.Datetime _
          | Ast.Ty_vertex _, V.Vertex _ -> true
          | _ -> false
        in
        if not ok then error "parameter %s has the wrong type" p.Ast.p_name)
    q.Ast.q_params

let run_query graph ?semantics ~params (q : Ast.query) =
  let sem = query_semantics ?semantics q in
  check_params q params;
  run_checked graph sem params q.Ast.q_body (Analyze.check_query q)

let run_source graph ?semantics ?(params = []) src =
  match Parser.parse_query src with
  | q -> run_query graph ?semantics ~params q
  | exception Parser.Error _ ->
    let stmts = Parser.parse_block src in
    run_block graph ?semantics:(semantics : Sem.t option) ~params stmts

let table result name =
  match List.assoc_opt name result.r_tables with
  | Some t -> t
  | None -> error "no table named %s in result" name

let return_value result =
  match result.r_return with
  | Some (R_scalar v) -> v
  | Some (R_vset vs) -> V.Vlist (Array.to_list (Array.map (fun v -> V.Vertex v) vs))
  | Some (R_table t) -> V.Vlist (List.map (fun r -> V.Vtuple r) t.Table.rows)
  | None -> error "query did not RETURN"
