(* Install-time lowering of analyzed GSQL to closure plans — the only
   executor; Eval is the oracle it is tested against.

   The compiled runtime shares Eval's execution context (ctx, store,
   variable table) and calls Eval's statement, output and aggregate
   helpers rather than keeping copies of them.  Every dynamic decision the
   interpreter makes per invoke — alias-name slot scans, WHERE push-down
   decomposition, POST_ACCUM grouping, segment symbol resolution — is made
   once here; what remains at invoke time is flat int-array loops with
   Interrupt checkpoints at the same program points the interpreter ticks.
   See docs/COMPILER.md. *)

module V = Pgraph.Value
module B = Pgraph.Bignat
module G = Pgraph.Graph
module Sem = Pathsem.Semantics
module E = Eval

(* ------------------------------------------------------------------ *)
(* Runtime environment threaded through compiled closures              *)

(* A physically unique sentinel marking a not-yet-assigned ACCUM local.
   Matching the interpreter: an unassigned local is absent from its
   locals table, so lookups fall through to aliases / ctx vars. *)
let unset : V.t = V.Vtuple [||]

type renv = {
  ctx : E.ctx;
  mutable data : int array;   (* flat binding table: rows of verts++edges *)
  mutable base : int;         (* current row offset into [data] *)
  mutable mult : B.t;         (* current row multiplicity *)
  mutable locals : V.t array; (* ACCUM-local slots, [unset]-initialized *)
  mutable probe : int;        (* vertex id in single-vertex contexts *)
  mutable combo : int array;  (* distinct-combo values in output contexts *)
  mutable group : (int * B.t) list;
      (* GROUP BY: the current group's rows as (base offset, multiplicity) *)
  mutable overlay : E.overlay option;
}

type rx = renv -> V.t

(* ------------------------------------------------------------------ *)
(* Compile-time name resolution                                        *)

(* Binders mirror the interpreter's env lookup chains, in lookup order. *)
type binder =
  | B_probe of string                       (* alias -> renv.probe *)
  | B_locals of (string * int) list         (* name -> local slot *)
  | B_row of string array * string array    (* vertex / edge alias slots *)
  | B_combo of (string * int * bool) list   (* name, combo idx, is_edge *)

type scope = {
  sc_schema : Pgraph.Schema.t option;  (* the schema installed against *)
  sc_binders : binder list;
  sc_groups : bool;  (* aggregate calls fold [renv.group] (GROUP BY) *)
}

let scope schema binders = { sc_schema = schema; sc_binders = binders; sc_groups = false }
let gscope schema = scope schema []

(* Static chain: first binder that can bind the name contributes a step;
   dynamic non-binding (unset local, -1 slot) falls through exactly like
   the interpreter's Hashtbl/array misses. *)
let rec lookup_chain binders name : (renv -> V.t option) option =
  match binders with
  | [] -> None
  | B_probe a :: rest ->
    if a = name then Some (fun env -> Some (V.Vertex env.probe))
    else lookup_chain rest name
  | B_locals ls :: rest ->
    (match List.assoc_opt name ls with
     | Some i ->
       let next = lookup_chain rest name in
       Some
         (fun env ->
           let v = env.locals.(i) in
           if v != unset then Some v
           else match next with Some f -> f env | None -> None)
     | None -> lookup_chain rest name)
  | B_row (va, ea) :: rest ->
    let vi = E.alias_slot va name in
    if vi >= 0 then begin
      let next = lookup_chain rest name in
      Some
        (fun env ->
          let v = env.data.(env.base + vi) in
          if v >= 0 then Some (V.Vertex v)
          else match next with Some f -> f env | None -> None)
    end
    else begin
      let ei = E.alias_slot ea name in
      if ei >= 0 then begin
        let nv = Array.length va in
        let next = lookup_chain rest name in
        Some
          (fun env ->
            let e = env.data.(env.base + nv + ei) in
            if e >= 0 then Some (V.Edge e)
            else match next with Some f -> f env | None -> None)
      end
      else lookup_chain rest name
    end
  | B_combo cs :: rest ->
    (match List.find_opt (fun (n, _, _) -> n = name) cs with
     | Some (_, i, true) -> Some (fun env -> Some (V.Edge env.combo.(i)))
     | Some (_, i, false) -> Some (fun env -> Some (V.Vertex env.combo.(i)))
     | None -> lookup_chain rest name)

(* Dynamic walk of the same chain, for the interpreter-env bridge. *)
let rec dyn_lookup binders env name : V.t option =
  match binders with
  | [] -> None
  | B_probe a :: rest ->
    if a = name then Some (V.Vertex env.probe) else dyn_lookup rest env name
  | B_locals ls :: rest ->
    (match List.assoc_opt name ls with
     | Some i ->
       let v = env.locals.(i) in
       if v != unset then Some v else dyn_lookup rest env name
     | None -> dyn_lookup rest env name)
  | B_row (va, ea) :: rest ->
    let vi = E.alias_slot va name in
    if vi >= 0 then begin
      let v = env.data.(env.base + vi) in
      if v >= 0 then Some (V.Vertex v) else dyn_lookup rest env name
    end
    else begin
      let ei = E.alias_slot ea name in
      if ei >= 0 then begin
        let e = env.data.(env.base + Array.length va + ei) in
        if e >= 0 then Some (V.Edge e) else dyn_lookup rest env name
      end
      else dyn_lookup rest env name
    end
  | B_combo cs :: rest ->
    (match List.find_opt (fun (n, _, _) -> n = name) cs with
     | Some (_, i, true) -> Some (V.Edge env.combo.(i))
     | Some (_, i, false) -> Some (V.Vertex env.combo.(i))
     | None -> dyn_lookup rest env name)

(* Bridge to Eval for rare expression forms (methods): an Eval.env whose
   lookup resolves through this scope at runtime. *)
let to_eval_env sc env agg : E.env =
  { E.e_ctx = env.ctx;
    e_lookup = (fun n -> dyn_lookup sc.sc_binders env n);
    e_overlay = env.overlay;
    e_agg = Option.map (fun f -> f env) agg }

let ctx_value env name =
  match E.ctx_var_value env.ctx name with
  | Some v -> v
  | None -> E.error "unbound variable %s" name

let vertex_ctx env name =
  match E.ctx_var_value env.ctx name with
  | Some (V.Vertex v) -> v
  | _ -> E.error "unbound vertex variable %s" name

let compile_var sc name : rx =
  match lookup_chain sc.sc_binders name with
  | Some lk ->
    fun env -> (match lk env with Some v -> v | None -> ctx_value env name)
  | None -> fun env -> ctx_value env name

(* Direct vertex-id resolution, skipping the V.Vertex boxing where the
   binder guarantees a vertex. *)
type vres =
  | Vr_sure of (renv -> int)
  | Vr_maybe of (renv -> int)  (* < 0 = unbound, fall through to ctx *)
  | Vr_none

let rec vslot_chain binders name : vres =
  match binders with
  | [] -> Vr_none
  | B_probe a :: rest ->
    if a = name then Vr_sure (fun env -> env.probe) else vslot_chain rest name
  | B_locals ls :: rest ->
    if List.mem_assoc name ls then Vr_none else vslot_chain rest name
  | B_row (va, ea) :: rest ->
    let vi = E.alias_slot va name in
    if vi >= 0 then Vr_maybe (fun env -> env.data.(env.base + vi))
    else if E.alias_slot ea name >= 0 then Vr_none
    else vslot_chain rest name
  | B_combo cs :: rest ->
    (match List.find_opt (fun (n, _, _) -> n = name) cs with
     | Some (_, i, false) -> Vr_sure (fun env -> env.combo.(i))
     | Some (_, _, true) -> Vr_none
     | None -> vslot_chain rest name)

let compile_vertex_of sc name : renv -> int =
  match vslot_chain sc.sc_binders name with
  | Vr_sure f -> f
  | Vr_maybe f ->
    fun env ->
      let v = f env in
      if v >= 0 then v else vertex_ctx env name
  | Vr_none ->
    (match lookup_chain sc.sc_binders name with
     | Some lk ->
       fun env ->
         (match lk env with
          | Some (V.Vertex v) -> v
          | Some other ->
            E.error "%s is bound to %s, not a vertex" name (V.to_string other)
          | None -> vertex_ctx env name)
     | None -> fun env -> vertex_ctx env name)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)

let vtrue = V.Bool true
let vfalse = V.Bool false
let vbool b = if b then vtrue else vfalse

let binop_fn : Ast.binop -> V.t -> V.t -> V.t = function
  | Ast.Add -> V.add
  | Ast.Sub -> V.sub
  | Ast.Mul -> V.mul
  | Ast.Div -> V.div
  | Ast.Mod -> V.modulo
  | Ast.Eq -> fun x y -> vbool (V.equal x y)
  | Ast.Neq -> fun x y -> vbool (not (V.equal x y))
  | Ast.Lt -> fun x y -> vbool (V.compare x y < 0)
  | Ast.Le -> fun x y -> vbool (V.compare x y <= 0)
  | Ast.Gt -> fun x y -> vbool (V.compare x y > 0)
  | Ast.Ge -> fun x y -> vbool (V.compare x y >= 0)
  | Ast.And | Ast.Or -> assert false

(* Attribute slots resolved at install time against the schema compiled
   for, like [st_static]: [as_v.(ty)] / [as_e.(ty)] is the attribute's
   position in the rows of vertex (edge) type [ty], -1 when the type lacks
   it.  A graph with another schema, a type added to the schema after
   install (an id past the table), or a type without the attribute takes
   the by-name read, which also raises the missing-attribute error. *)
type attr_slots = {
  as_schema : Pgraph.Schema.t;
  as_v : int array;
  as_e : int array;
}

let resolve_attr schema attr =
  let module S = Pgraph.Schema in
  let slot index ty = try index ty attr with Not_found -> -1 in
  Option.map
    (fun sch ->
      { as_schema = sch;
        as_v =
          Array.init (S.n_vertex_types sch) (fun i ->
              slot S.vertex_attr_index (S.vertex_type_of_id sch i));
        as_e =
          Array.init (S.n_edge_types sch) (fun i ->
              slot S.edge_attr_index (S.edge_type_of_id sch i)) })
    schema

let vertex_attr slots attr g v =
  match slots with
  | Some s when G.schema g == s.as_schema ->
    let ty = G.vertex_type_id g v in
    if ty < Array.length s.as_v && s.as_v.(ty) >= 0 then
      G.vertex_attr_at g v s.as_v.(ty)
    else E.vertex_attr g v attr
  | _ -> E.vertex_attr g v attr

let edge_attr slots attr g e =
  match slots with
  | Some s when G.schema g == s.as_schema ->
    let ty = G.edge_type_id g e in
    if ty < Array.length s.as_e && s.as_e.(ty) >= 0 then
      G.edge_attr_at g e s.as_e.(ty)
    else E.edge_attr g e attr
  | _ -> E.edge_attr g e attr

(* Evaluates closures left to right into a fresh array. *)
let eval_array (cs : rx array) env =
  let n = Array.length cs in
  if n = 0 then [||]
  else begin
    let a = Array.make n (cs.(0) env) in
    for i = 1 to n - 1 do
      a.(i) <- cs.(i) env
    done;
    a
  end

let read_target env (tgt : Accum.Store.target) =
  match env.overlay with
  | Some o ->
    (match Hashtbl.find_opt o tgt with
     | Some v -> v
     | None -> Accum.Store.read env.ctx.E.store tgt)
  | None -> Accum.Store.read env.ctx.E.store tgt

let rec compile_expr sc (e : Ast.expr) : rx =
  match e with
  | Ast.E_int n -> let v = V.Int n in fun _ -> v
  | Ast.E_float f -> let v = V.Float f in fun _ -> v
  | Ast.E_string s -> let v = V.Str s in fun _ -> v
  | Ast.E_bool b -> let v = V.Bool b in fun _ -> v
  | Ast.E_null -> fun _ -> V.Null
  | Ast.E_var name -> compile_var sc name
  | Ast.E_attr (base, attr) ->
    let slots = resolve_attr sc.sc_schema attr in
    let ctx_attr env =
      match E.ctx_var_value env.ctx base with
      | Some (V.Vertex v) -> vertex_attr slots attr env.ctx.E.graph v
      | Some (V.Edge e) -> edge_attr slots attr env.ctx.E.graph e
      | _ -> E.error "unbound variable %s" base
    in
    (match vslot_chain sc.sc_binders base with
     | Vr_sure f -> fun env -> vertex_attr slots attr env.ctx.E.graph (f env)
     | Vr_maybe f ->
       fun env ->
         let v = f env in
         if v >= 0 then vertex_attr slots attr env.ctx.E.graph v else ctx_attr env
     | Vr_none ->
       (match lookup_chain sc.sc_binders base with
        | Some lk ->
          fun env ->
            (match lk env with
             | Some (V.Vertex v) -> vertex_attr slots attr env.ctx.E.graph v
             | Some (V.Edge e) -> edge_attr slots attr env.ctx.E.graph e
             | Some other ->
               E.error "%s.%s: %s is not a vertex or edge" base attr
                 (V.to_string other)
             | None -> ctx_attr env)
        | None -> ctx_attr))
  | Ast.E_vacc (base, acc) ->
    let vid = compile_vertex_of sc base in
    fun env -> read_target env (Accum.Store.Vertex_acc (acc, vid env))
  | Ast.E_vacc_prev (base, acc) ->
    let vid = compile_vertex_of sc base in
    fun env ->
      Accum.Store.read_prev env.ctx.E.store (Accum.Store.Vertex_acc (acc, vid env))
  | Ast.E_gacc name ->
    let tgt = Accum.Store.Global name in
    fun env -> read_target env tgt
  | Ast.E_gacc_prev name ->
    let tgt = Accum.Store.Global name in
    fun env -> Accum.Store.read_prev env.ctx.E.store tgt
  | Ast.E_binop (Ast.And, a, b) ->
    let ca = compile_expr sc a and cb = compile_expr sc b in
    fun env -> vbool (V.to_bool (ca env) && V.to_bool (cb env))
  | Ast.E_binop (Ast.Or, a, b) ->
    let ca = compile_expr sc a and cb = compile_expr sc b in
    fun env -> vbool (V.to_bool (ca env) || V.to_bool (cb env))
  | Ast.E_binop (op, a, b) ->
    let ca = compile_expr sc a and cb = compile_expr sc b in
    let f = binop_fn op in
    fun env ->
      let x = ca env in
      let y = cb env in
      f x y
  | Ast.E_unop (Ast.Neg, a) ->
    let ca = compile_expr sc a in
    fun env -> V.neg (ca env)
  | Ast.E_unop (Ast.Not, a) ->
    let ca = compile_expr sc a in
    fun env -> vbool (not (V.to_bool (ca env)))
  | Ast.E_call (name, [ arg ]) when sc.sc_groups && E.is_aggregate_name name ->
    (* Folds the group's rows; the representative row stays current for
       the rest of the expression. *)
    let carg = compile_expr { sc with sc_groups = false } arg in
    fun env ->
      let rep = env.base in
      let value (base, _) =
        env.base <- base;
        carg env
      in
      let v = E.aggregate name arg ~mult:snd ~value env.group in
      env.base <- rep;
      v
  | Ast.E_call (name, args) ->
    (match E.builtin name (List.length args), List.map (compile_expr sc) args with
     | E.F1 f, [ ca ] -> fun env -> f (ca env)
     | E.F2 f, [ ca; cb ] ->
       fun env ->
         let x = ca env in
         let y = cb env in
         f x y
     | b, cargs -> fun env -> E.apply_builtin b (List.map (fun c -> c env) cargs))
  | Ast.E_method _ ->
    (* Methods resolve vertices through the raw env; bridge to Eval. *)
    let agg =
      if sc.sc_groups then
        Some (fun env name arg -> compile_expr sc (Ast.E_call (name, [ arg ])) env)
      else None
    in
    fun env -> E.eval_expr (to_eval_env sc env agg) e
  | Ast.E_tuple es ->
    let ces = Array.of_list (List.map (compile_expr sc) es) in
    fun env -> V.Vtuple (eval_array ces env)
  | Ast.E_arrow ([ k ], [ v ]) ->
    (* A MapAccum pair, as in Eval. *)
    let ck = compile_expr sc k and cv = compile_expr sc v in
    fun env ->
      let key = ck env in
      let value = cv env in
      V.Vtuple [| key; value |]
  | Ast.E_arrow (ks, vs) ->
    let cks = Array.of_list (List.map (compile_expr sc) ks) in
    let cvs = Array.of_list (List.map (compile_expr sc) vs) in
    fun env ->
      let keys = eval_array cks env in
      let vals = eval_array cvs env in
      V.Vtuple [| V.Vtuple keys; V.Vtuple vals |]

let compile_bool sc e =
  let ce = compile_expr sc e in
  fun env -> V.to_bool (ce env)

(* ------------------------------------------------------------------ *)
(* Flat binding tables                                                 *)

type fbt = {
  f_nv : int;
  f_ne : int;
  f_stride : int;
  mutable f_data : int array;
  mutable f_mult : B.t array;
  mutable f_n : int;
}

let fbt_make ~nv ~ne ~cap =
  let stride = nv + ne in
  let cap = max 1 cap in
  { f_nv = nv;
    f_ne = ne;
    f_stride = stride;
    f_data = Array.make (cap * stride) (-1);
    f_mult = Array.make cap B.one;
    f_n = 0 }

let fbt_grow bt =
  let cap = max 4 (2 * Array.length bt.f_mult) in
  let data' = Array.make (cap * bt.f_stride) (-1) in
  Array.blit bt.f_data 0 data' 0 (bt.f_n * bt.f_stride);
  bt.f_data <- data';
  let mult' = Array.make cap B.one in
  Array.blit bt.f_mult 0 mult' 0 bt.f_n;
  bt.f_mult <- mult'

(* Appends a fresh all-unset row; returns its base offset. *)
let fbt_push bt =
  if (bt.f_n + 1) * bt.f_stride > Array.length bt.f_data then fbt_grow bt;
  let base = bt.f_n * bt.f_stride in
  Array.fill bt.f_data base bt.f_stride (-1);
  bt.f_n <- bt.f_n + 1;
  base

(* Growable int buffer for CSR scans. *)
type ibuf = { mutable ia : int array; mutable im : B.t array; mutable il : int }

let ib_make () = { ia = Array.make 16 0; im = [||]; il = 0 }

let ib_push b x =
  if b.il = Array.length b.ia then begin
    let a' = Array.make (2 * Array.length b.ia) 0 in
    Array.blit b.ia 0 a' 0 b.il;
    b.ia <- a'
  end;
  b.ia.(b.il) <- x;
  b.il <- b.il + 1

let ib_contents b = Array.sub b.ia 0 b.il

(* Matched endpoint pairs.  [p_rev] marks Step scans, whose interpreter
   pair list is the reverse of CSR discovery order (it conses during the
   scan) — the join below replays the interpreter's exact iteration
   orders so compiled row order is bit-identical. *)
type pairs = {
  p_src : int array;
  p_dst : int array;
  p_edg : int array;          (* -1 when the conjunct binds no edge *)
  p_mul : B.t array;
  p_n : int;
  p_rev : bool;
}

(* Interpreter pair-list order. *)
let iter_eval p f =
  if p.p_rev then for i = p.p_n - 1 downto 0 do f i done
  else for i = 0 to p.p_n - 1 do f i done

(* ------------------------------------------------------------------ *)
(* Conjunct execution                                                  *)

type step = {
  st_ty : string option;
  st_rels : G.dir_rel list;             (* allowed, in [Out; In; Und] order *)
  st_rel_ok : bool array;               (* indexed by rel code *)
  st_static : (Pgraph.Schema.t * int array) option;
      (* install-time segment symbols, valid while the schema is the one
         compiled against; other schemas resolve per execution *)
}

type cj_kind =
  | Cj_step of step
  | Cj_ident of Darpe.Ast.t
      (* the DARPE accepts only the empty word ([fixed_unique_length] 0,
         e.g. [E>*0..0]): the DFA product constant-folds at install time
         to identity pairs (v, v) with multiplicity one *)
  | Cj_kleene of Darpe.Ast.t

type cconj = {
  cj_src_ep : Ast.endpoint;
  cj_dst_ep : Ast.endpoint;
  cj_src_alias : string;
  cj_dst_alias : string;
  cj_src_slot : int;
  cj_dst_slot : int;
  cj_edge_slot : int;                   (* -1 = none *)
  cj_src_pushed : (renv -> bool) list;  (* probe-scope pushed WHERE preds *)
  cj_dst_pushed : (renv -> bool) list;
  cj_kind : cj_kind;
}

let rel_allowed (adir : Darpe.Ast.adir) (rel : G.dir_rel) =
  match adir, rel with
  | Darpe.Ast.Fwd, G.Out | Darpe.Ast.Rev, G.In | Darpe.Ast.Undir, G.Und
  | Darpe.Ast.Any, _ -> true
  | (Darpe.Ast.Fwd | Darpe.Ast.Rev | Darpe.Ast.Undir), _ -> false

let make_step (schema : Pgraph.Schema.t option) ty adir =
  let rels = List.filter (rel_allowed adir) [ G.Out; G.In; G.Und ] in
  let rel_ok = Array.init 3 (fun c -> rel_allowed adir (Pgraph.Csr.rel_of_code c)) in
  let st_static =
    match schema, ty with
    | Some sch, Some name ->
      (match Pgraph.Schema.find_edge_type sch name with
       | Some et ->
         Some
           ( sch,
             Array.of_list
               (List.map
                  (fun rel -> Pgraph.Csr.sym ~etype:et.Pgraph.Schema.et_id ~rel)
                  rels) )
       | None -> None)
    | _ -> None
  in
  { st_ty = ty; st_rels = rels; st_rel_ok = rel_ok; st_static }

let step_syms env st tyname =
  match st.st_static with
  | Some (sch, syms) when sch == G.schema env.ctx.E.graph -> syms
  | _ ->
    (match Pgraph.Schema.find_edge_type (G.schema env.ctx.E.graph) tyname with
     | Some et ->
       Array.of_list
         (List.map
            (fun rel -> Pgraph.Csr.sym ~etype:et.Pgraph.Schema.et_id ~rel)
            st.st_rels)
     | None -> E.error "unknown edge type %s" tyname)

(* Specialized single-step scan over the frozen CSR's (etype, rel)
   segments.  Discovery order matches the interpreter's scan exactly;
   [p_rev] accounts for its list-consing reversal. *)
let run_step env st (sources : int array) ~(dst_ok : int -> bool) : pairs =
  let csr = Pgraph.Csr.of_graph env.ctx.E.graph in
  let sb = ib_make () and db = ib_make () and eb = ib_make () in
  let scan src lo hi =
    for j = lo to hi - 1 do
      let dst = csr.Pgraph.Csr.nbr.(j) in
      if dst_ok dst then begin
        ib_push sb src;
        ib_push db dst;
        ib_push eb csr.Pgraph.Csr.edg.(j)
      end
    done
  in
  (match st.st_ty with
   | Some tyname ->
     let syms = step_syms env st tyname in
     Array.iter
       (fun src ->
         Array.iter
           (fun sym ->
             match Pgraph.Csr.find_segment csr src ~sym with
             | Some (lo, hi) -> scan src lo hi
             | None -> ())
           syms)
       sources
   | None ->
     Array.iter
       (fun src ->
         Pgraph.Csr.iter_segments csr src (fun ~sym ~lo ~hi ->
             if st.st_rel_ok.(sym mod 3) then scan src lo hi))
       sources);
  let n = sb.il in
  { p_src = ib_contents sb;
    p_dst = ib_contents db;
    p_edg = ib_contents eb;
    p_mul = Array.make (max 1 n) B.one;
    p_n = n;
    p_rev = true }

let pairs_of_bindings (bl : Pathsem.Engine.binding list) : pairs =
  let n = List.length bl in
  let ps = Array.make (max 1 n) 0 in
  let pd = Array.make (max 1 n) 0 in
  let pm = Array.make (max 1 n) B.one in
  List.iteri
    (fun i (b : Pathsem.Engine.binding) ->
      ps.(i) <- b.Pathsem.Engine.b_src;
      pd.(i) <- b.Pathsem.Engine.b_dst;
      pm.(i) <- b.Pathsem.Engine.b_mult)
    bl;
  { p_src = ps; p_dst = pd; p_edg = Array.make (max 1 n) (-1); p_mul = pm;
    p_n = n; p_rev = false }

let exec_conjunct env (cj : cconj) (bt : fbt) : fbt =
  let ctx = env.ctx in
  let stride = bt.f_stride and nv = bt.f_nv in
  let src_bound =
    bt.f_n > 0
    &&
    let rec go r =
      r < bt.f_n && (bt.f_data.(r * stride + cj.cj_src_slot) >= 0 || go (r + 1))
    in
    go 0
  in
  let sources =
    if src_bound then begin
      let seen = Hashtbl.create 64 and buf = ib_make () in
      for r = 0 to bt.f_n - 1 do
        let v = bt.f_data.(r * stride + cj.cj_src_slot) in
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          ib_push buf v
        end
      done;
      ib_contents buf
    end
    else E.endpoint_seed ctx cj.cj_src_ep
  in
  let src_base = E.endpoint_pred ctx cj.cj_src_ep in
  let src_pinned = E.alias_constraint ctx cj.cj_src_alias in
  let src_ok v =
    src_base v
    && (cj.cj_src_pushed == []
        || begin
          env.probe <- v;
          List.for_all (fun p -> p env) cj.cj_src_pushed
        end)
    && (match src_pinned with None -> true | Some p -> v = p)
  in
  let sources =
    let buf = ib_make () in
    Array.iter (fun v -> if src_ok v then ib_push buf v) sources;
    ib_contents buf
  in
  let dst_base = E.endpoint_pred ctx cj.cj_dst_ep in
  let dst_pinned = E.alias_constraint ctx cj.cj_dst_alias in
  let pairs =
    match cj.cj_kind with
    | Cj_step st ->
      (* Sequential scan: probe mutation is safe. *)
      let dst_ok v =
        dst_base v
        && (cj.cj_dst_pushed == []
            || begin
              env.probe <- v;
              List.for_all (fun p -> p env) cj.cj_dst_pushed
            end)
        && (match dst_pinned with None -> true | Some p -> v = p)
      in
      run_step env st sources ~dst_ok
    | Cj_ident _ ->
      (* Sequential, like Cj_step: probe mutation is safe.  The engine
         would run one product-BFS per source only to accept the empty
         path; emitting (v, v) directly is result-identical (sources are
         already in the engine's iteration order, multiplicity of the
         unique empty path is one). *)
      let dst_ok v =
        dst_base v
        && (cj.cj_dst_pushed == []
            || begin
              env.probe <- v;
              List.for_all (fun p -> p env) cj.cj_dst_pushed
            end)
        && (match dst_pinned with None -> true | Some p -> v = p)
      in
      let sb = ib_make () in
      Array.iter (fun v -> if dst_ok v then ib_push sb v) sources;
      let n = sb.il in
      let vs = ib_contents sb in
      (* p_rev replays the engine's list-consing order (it folds over
         sources consing bindings, so its pair list is source-reversed). *)
      { p_src = vs; p_dst = vs;
        p_edg = Array.make (max 1 n) (-1);
        p_mul = Array.make (max 1 n) B.one;
        p_n = n; p_rev = true }
    | Cj_kleene darpe ->
      (* match_pairs fans out across domains: the predicate must not
         mutate the shared renv, so probe through a private copy. *)
      let dst_ok v =
        dst_base v
        && (cj.cj_dst_pushed == []
            ||
            let env' = { env with probe = v } in
            List.for_all (fun p -> p env') cj.cj_dst_pushed)
        && (match dst_pinned with None -> true | Some p -> v = p)
      in
      pairs_of_bindings
        (Pathsem.Engine.match_pairs ctx.E.graph darpe
           ctx.E.semantics ~sources ~dst_ok)
  in
  let result =
    if bt.f_n = 0 then begin
      let nbt = fbt_make ~nv ~ne:bt.f_ne ~cap:pairs.p_n in
      iter_eval pairs (fun i ->
          let base = fbt_push nbt in
          nbt.f_data.(base + cj.cj_src_slot) <- pairs.p_src.(i);
          nbt.f_data.(base + cj.cj_dst_slot) <- pairs.p_dst.(i);
          if cj.cj_edge_slot >= 0 then
            nbt.f_data.(base + nv + cj.cj_edge_slot) <- pairs.p_edg.(i);
          nbt.f_mult.(nbt.f_n - 1) <- pairs.p_mul.(i));
      nbt
    end
    else begin
      (* Hash-join on the already-bound endpoints; candidate-list and row
         iteration orders replicate the interpreter's. *)
      let by_src = Hashtbl.create 64 in
      iter_eval pairs (fun i ->
          let s = pairs.p_src.(i) in
          Hashtbl.replace by_src s
            (i :: (try Hashtbl.find by_src s with Not_found -> [])));
      let nbt = fbt_make ~nv ~ne:bt.f_ne ~cap:bt.f_n in
      let extend rbase rmult i =
        let s = pairs.p_src.(i) and d = pairs.p_dst.(i) in
        let rs = bt.f_data.(rbase + cj.cj_src_slot) in
        let rd = bt.f_data.(rbase + cj.cj_dst_slot) in
        if (rs >= 0 && rs <> s) || (rd >= 0 && rd <> d) then ()
        else begin
          let base = fbt_push nbt in
          Array.blit bt.f_data rbase nbt.f_data base stride;
          nbt.f_data.(base + cj.cj_src_slot) <- s;
          nbt.f_data.(base + cj.cj_dst_slot) <- d;
          if cj.cj_edge_slot >= 0 then
            nbt.f_data.(base + nv + cj.cj_edge_slot) <- pairs.p_edg.(i);
          nbt.f_mult.(nbt.f_n - 1) <- B.mul rmult pairs.p_mul.(i)
        end
      in
      for r = 0 to bt.f_n - 1 do
        let rbase = r * stride in
        let rmult = bt.f_mult.(r) in
        if src_bound && bt.f_data.(rbase + cj.cj_src_slot) >= 0 then
          match Hashtbl.find_opt by_src bt.f_data.(rbase + cj.cj_src_slot) with
          | Some idxs -> List.iter (extend rbase rmult) idxs
          | None -> ()
        else iter_eval pairs (extend rbase rmult)
      done;
      nbt
    end
  in
  (* Governor checkpoint, same placement as the interpreter — but the row
     count is O(1) here instead of a List.length walk. *)
  if Interrupt.governed () then begin
    Interrupt.check_rows result.f_n;
    Interrupt.tick_n result.f_n
  end;
  result

(* ------------------------------------------------------------------ *)
(* ACCUM / POST_ACCUM kernels                                          *)

type astmt = renv -> Accum.Store.phase -> unit

let collect_locals stmts =
  let ls = ref [] and n = ref 0 in
  let add x =
    if not (List.mem_assoc x !ls) then begin
      ls := (x, !n) :: !ls;
      incr n
    end
  in
  let rec go = function
    | Ast.A_local (x, _) -> add x
    | Ast.A_if (_, th, el) ->
      List.iter go th;
      List.iter go el
    | Ast.A_input _ | Ast.A_assign _ | Ast.A_attr_assign _ -> ()
  in
  List.iter go stmts;
  (List.rev !ls, !n)

let rec has_assign = function
  | [] -> false
  | Ast.A_assign _ :: _ -> true
  | Ast.A_if (_, th, el) :: rest -> has_assign th || has_assign el || has_assign rest
  | _ :: rest -> has_assign rest

(* The accumulators a kernel reads, by namespace: globals ([@@x], [@@x'])
   and vertex families ([v.@x], [v.@x']), found anywhere in its
   expressions — IF conditions, locals, input values, method bases and
   arguments.  Only these need the phase buffer: an input or assign to any
   other target cannot be observed before the commit, so it is applied to
   the store at once (docs/COMPILER.md, "Snapshot phases"). *)
type reads = { rd_globals : string list; rd_vertex : string list }

let rec expr_reads rd (e : Ast.expr) =
  match e with
  | Ast.E_gacc n | Ast.E_gacc_prev n -> { rd with rd_globals = n :: rd.rd_globals }
  | Ast.E_vacc (_, n) | Ast.E_vacc_prev (_, n) ->
    { rd with rd_vertex = n :: rd.rd_vertex }
  | Ast.E_binop (_, a, b) -> expr_reads (expr_reads rd a) b
  | Ast.E_unop (_, a) -> expr_reads rd a
  | Ast.E_call (_, args) | Ast.E_tuple args -> List.fold_left expr_reads rd args
  | Ast.E_method (base, _, args) -> List.fold_left expr_reads (expr_reads rd base) args
  | Ast.E_arrow (ks, vs) -> List.fold_left expr_reads (List.fold_left expr_reads rd ks) vs
  | Ast.E_int _ | Ast.E_float _ | Ast.E_string _ | Ast.E_bool _ | Ast.E_null | Ast.E_var _
  | Ast.E_attr _ ->
    rd

let rec stmt_reads rd = function
  | Ast.A_local (_, e) | Ast.A_input (_, e) | Ast.A_assign (_, e)
  | Ast.A_attr_assign (_, _, e) ->
    expr_reads rd e
  | Ast.A_if (c, th, el) ->
    List.fold_left stmt_reads (List.fold_left stmt_reads (expr_reads rd c) th) el

let kernel_reads stmts =
  List.fold_left stmt_reads { rd_globals = []; rd_vertex = [] } stmts

let target_read rd = function
  | Ast.T_global n -> List.mem n rd.rd_globals
  | Ast.T_vertex (_, n) -> List.mem n rd.rd_vertex

let compile_target sc (t : Ast.acc_target) : renv -> Accum.Store.target =
  match t with
  | Ast.T_global name ->
    let tgt = Accum.Store.Global name in
    fun _ -> tgt
  | Ast.T_vertex (alias, name) ->
    let vid = compile_vertex_of sc alias in
    fun env -> Accum.Store.Vertex_acc (name, vid env)

let run_kernel (kernel : astmt array) env phase =
  for i = 0 to Array.length kernel - 1 do
    kernel.(i) env phase
  done

let rec compile_acc_stmt sc locals rd (s : Ast.acc_stmt) : astmt =
  match s with
  | Ast.A_local (x, e) ->
    let i = List.assoc x locals in
    let ce = compile_expr sc e in
    fun env _ -> env.locals.(i) <- ce env
  | Ast.A_input (t, e) ->
    let ct = compile_target sc t in
    let ce = compile_expr sc e in
    if target_read rd t then
      fun env phase ->
        let tgt = ct env in
        let v = ce env in
        Accum.Store.buffer_input phase tgt v env.mult
    else
      fun env phase ->
        let tgt = ct env in
        let v = ce env in
        Accum.Store.apply_input phase tgt v env.mult
  | Ast.A_assign (t, e) ->
    let ct = compile_target sc t in
    let ce = compile_expr sc e in
    if target_read rd t then
      fun env phase ->
        let tgt = ct env in
        let v = ce env in
        Accum.Store.buffer_assign phase tgt v;
        (match env.overlay with
         | Some o -> Hashtbl.replace o tgt v
         | None -> ())
    else
      fun env phase ->
        let tgt = ct env in
        let v = ce env in
        Accum.Store.apply_assign phase tgt v
  | Ast.A_if (c, th, el) ->
    let cc = compile_bool sc c in
    let cth = compile_kernel sc locals rd th in
    let cel = compile_kernel sc locals rd el in
    fun env phase -> run_kernel (if cc env then cth else cel) env phase
  | Ast.A_attr_assign (alias, attr, e) ->
    let ce = compile_expr sc e in
    let lk = lookup_chain sc.sc_binders alias in
    fun env _ ->
      let v = ce env in
      (match (match lk with Some f -> f env | None -> None) with
       | Some (V.Vertex vid) -> G.set_vertex_attr env.ctx.E.graph vid attr v
       | Some (V.Edge eid) -> G.set_edge_attr env.ctx.E.graph eid attr v
       | _ -> E.error "unbound variable %s in attribute assignment" alias)

and compile_kernel sc locals rd stmts =
  Array.of_list (List.map (compile_acc_stmt sc locals rd) stmts)

type cgroup = {
  cg_alias : string option;
  cg_slot : int;  (* meaningful when cg_alias = Some _; -1 = unknown alias *)
  cg_kernel : astmt array;
  cg_nlocals : int;
  cg_overlay : bool;
}

(* ------------------------------------------------------------------ *)
(* Plan ops                                                            *)

type op = {
  op_exec : renv -> unit;
  op_lines : string list;  (* describe lines, indentation baked in *)
  op_total : int;
}

let indent lines = List.map (fun l -> "  " ^ l) lines

(* A single-statement op: ticks the governor, then runs. *)
let leaf_op line exec =
  { op_exec = (fun env -> Interrupt.tick (); exec env); op_lines = [ line ]; op_total = 1 }

let sum_total ops = List.fold_left (fun a o -> a + o.op_total) 0 ops
let child_lines ops = List.concat_map (fun o -> indent o.op_lines) ops

(* ------------------------------------------------------------------ *)
(* SELECT compilation                                                  *)

let m_selects = Obs.Metrics.counter "compile.select_blocks"
let h_select_ms = Obs.Metrics.histogram "compile.select_ms"

type cout = {
  co_spec : Ast.output_spec;
  co_cols : string list;
  co_aliases : string list;
  co_slots : [ `V of int | `E of int ] list;
  co_bad_alias : string option;
  co_exprs : rx list;
  co_having : (renv -> bool) option;
  co_order : ((renv -> V.t) * bool) list;
}

(* Stable sort on precomputed ORDER BY keys. *)
let sort_by_keys keyed =
  List.map snd (List.stable_sort (fun (ka, _) (kb, _) -> E.compare_keys ka kb) keyed)

let compile_select (schema : Pgraph.Schema.t option) (binding : string option)
    (b : Ast.select_block) : op =
  let v_aliases, e_aliases = E.collect_aliases b.Ast.s_from in
  let nv = Array.length v_aliases and ne = Array.length e_aliases in
  let row_sc = scope schema [ B_row (v_aliases, e_aliases) ] in
  (* WHERE push-down, decomposed at compile time: single-vertex-alias
     conjuncts become per-candidate probe predicates, the rest a residual
     row filter. *)
  let pushed_tbl, residual_expr =
    match b.Ast.s_where with
    | None -> ([], None)
    | Some cond ->
      let parts = E.and_conjuncts cond in
      let pushable, residual =
        List.partition
          (fun part ->
            let touches_edge =
              List.exists
                (fun a -> E.alias_slot e_aliases a >= 0)
                (E.expr_aliases_of e_aliases part)
            in
            if touches_edge then false
            else
              match E.expr_vertex_aliases_only v_aliases part with
              | Some names -> List.length (List.sort_uniq compare names) = 1
              | None -> false)
          parts
      in
      let by_alias = Hashtbl.create 4 in
      List.iter
        (fun part ->
          match E.expr_vertex_aliases_only v_aliases part with
          | Some (name :: _) ->
            Hashtbl.replace by_alias name
              (part :: (try Hashtbl.find by_alias name with Not_found -> []))
          | _ -> assert false)
        pushable;
      let compiled =
        Hashtbl.fold
          (fun name parts acc ->
            let psc = scope schema [ B_probe name ] in
            (name, List.map (compile_bool psc) parts) :: acc)
          by_alias []
      in
      let residual_expr =
        match residual with
        | [] -> None
        | first :: rest ->
          Some (List.fold_left (fun acc p -> Ast.E_binop (Ast.And, acc, p)) first rest)
      in
      (compiled, residual_expr)
  in
  let pushed_for alias =
    match List.assoc_opt alias pushed_tbl with Some ps -> ps | None -> []
  in
  let cconjs =
    List.map
      (fun (c : Ast.conjunct) ->
        let src_alias = E.endpoint_alias c.Ast.c_src in
        let dst_alias = E.endpoint_alias c.Ast.c_dst in
        { cj_src_ep = c.Ast.c_src;
          cj_dst_ep = c.Ast.c_dst;
          cj_src_alias = src_alias;
          cj_dst_alias = dst_alias;
          cj_src_slot = E.alias_slot v_aliases src_alias;
          cj_dst_slot = E.alias_slot v_aliases dst_alias;
          cj_edge_slot =
            (match c.Ast.c_edge_alias with
             | Some a -> E.alias_slot e_aliases a
             | None -> -1);
          cj_src_pushed = pushed_for src_alias;
          cj_dst_pushed = pushed_for dst_alias;
          cj_kind =
            (match c.Ast.c_darpe with
             | Darpe.Ast.Step (ty, adir) -> Cj_step (make_step schema ty adir)
             | d when Darpe.Ast.fixed_unique_length d = Some 0 -> Cj_ident d
             | d -> Cj_kleene d) })
      b.Ast.s_from
  in
  let build env =
    match cconjs with
    | [] -> E.error "FROM clause needs at least one pattern"
    | first :: rest ->
      let bt = exec_conjunct env first (fbt_make ~nv ~ne ~cap:0) in
      List.fold_left
        (fun bt cj -> if bt.f_n > 0 then exec_conjunct env cj bt else bt)
        bt rest
  in
  let residual = Option.map (compile_bool row_sc) residual_expr in
  (* ACCUM kernel. *)
  let acc_locals, acc_nlocals = collect_locals b.Ast.s_accum in
  let acc_sc = scope schema [ B_locals acc_locals; B_row (v_aliases, e_aliases) ] in
  let acc_kernel =
    compile_kernel acc_sc acc_locals (kernel_reads b.Ast.s_accum) b.Ast.s_accum
  in
  let acc_overlay = has_assign b.Ast.s_accum in
  (* POST_ACCUM: consecutive statements grouped by driving alias, one
     execution per distinct vertex (statically grouped via Analyze). *)
  let cgroups =
    List.map
      (fun (alias, stmts) ->
        let locals, nlocals = collect_locals stmts in
        let sc =
          match alias with
          | None -> scope schema [ B_locals locals ]
          | Some a -> scope schema [ B_probe a; B_locals locals ]
        in
        { cg_alias = alias;
          cg_slot =
            (match alias with
             | Some a -> E.alias_slot v_aliases a
             | None -> -1);
          cg_kernel = compile_kernel sc locals (kernel_reads stmts) stmts;
          cg_nlocals = nlocals;
          cg_overlay = has_assign stmts })
      (E.post_accum_groups b.Ast.s_post_accum)
  in
  let exec_accum env bt =
    if Array.length acc_kernel > 0 then
      Obs.Trace.span "accum" (fun () ->
          if Obs.Trace.enabled () then
            Obs.Trace.set_attr "rows" (Obs.Json.Int bt.f_n);
          let phase = Accum.Store.begin_phase env.ctx.E.store in
          let locals = Array.make (max 1 acc_nlocals) unset in
          env.locals <- locals;
          let overlay = if acc_overlay then Some (Hashtbl.create 8) else None in
          env.overlay <- overlay;
          for r = 0 to bt.f_n - 1 do
            Interrupt.tick ();
            env.base <- r * bt.f_stride;
            env.mult <- bt.f_mult.(r);
            if acc_nlocals > 0 then Array.fill locals 0 acc_nlocals unset;
            (match overlay with Some o -> Hashtbl.reset o | None -> ());
            run_kernel acc_kernel env phase
          done;
          Accum.Store.commit env.ctx.E.store phase)
  in
  let exec_post env bt =
    if cgroups <> [] then
      Obs.Trace.span "post_accum" (fun () ->
          List.iter
            (fun g ->
              let phase = Accum.Store.begin_phase env.ctx.E.store in
              (match g.cg_alias with
               | None ->
                 let locals = Array.make (max 1 g.cg_nlocals) unset in
                 env.locals <- locals;
                 env.overlay <-
                   (if g.cg_overlay then Some (Hashtbl.create 8) else None);
                 env.mult <- B.one;
                 run_kernel g.cg_kernel env phase
               | Some a ->
                 if g.cg_slot < 0 then
                   E.error "POST_ACCUM references unknown alias %s" a;
                 let seen = Hashtbl.create 64 in
                 let locals = Array.make (max 1 g.cg_nlocals) unset in
                 env.locals <- locals;
                 let overlay =
                   if g.cg_overlay then Some (Hashtbl.create 8) else None
                 in
                 env.overlay <- overlay;
                 env.mult <- B.one;
                 for r = 0 to bt.f_n - 1 do
                   Interrupt.tick ();
                   let v = bt.f_data.((r * bt.f_stride) + g.cg_slot) in
                   if v >= 0 && not (Hashtbl.mem seen v) then begin
                     Hashtbl.add seen v ();
                     env.probe <- v;
                     if g.cg_nlocals > 0 then
                       Array.fill locals 0 g.cg_nlocals unset;
                     (match overlay with
                      | Some o -> Hashtbl.reset o
                      | None -> ());
                     run_kernel g.cg_kernel env phase
                   end
                 done);
              Accum.Store.commit env.ctx.E.store phase)
            cgroups)
  in
  (* Outputs. *)
  let climit = Option.map (compile_expr (gscope schema)) b.Ast.s_limit in
  let signature = Ast.select_signature b in
  (* HAVING / ORDER BY for the vertex-set target, compiled in the probe
     scope of the selected alias. *)
  let chaving_v =
    match b.Ast.s_target with
    | Ast.Sel_vertices (_, alias, _) ->
      let psc = scope schema [ B_probe alias ] in
      Option.map (compile_bool psc) b.Ast.s_having
    | Ast.Sel_outputs _ -> None
  in
  let corder_v =
    match b.Ast.s_target with
    | Ast.Sel_vertices (_, alias, _) ->
      let psc = scope schema [ B_probe alias ] in
      List.map (fun (e, desc) -> (compile_expr psc e, desc)) b.Ast.s_order_by
    | Ast.Sel_outputs _ -> []
  in
  (* GROUP BY outputs: keys in the row scope; HAVING, ORDER BY and the
     outputs in the group scope, where aggregate calls fold the group's
     rows and other leaves read its first row. *)
  let grouped, group_outputs =
    match b.Ast.s_target with
    | Ast.Sel_outputs outputs when b.Ast.s_group_by <> [] -> (true, outputs)
    | _ -> (false, [])
  in
  let gsc = { row_sc with sc_groups = true } in
  let gkeys = Array.of_list (List.map (compile_expr row_sc) b.Ast.s_group_by) in
  let ghaving = if grouped then Option.map (compile_bool gsc) b.Ast.s_having else None in
  let gorder =
    if grouped then List.map (fun (e, desc) -> (compile_expr gsc e, desc)) b.Ast.s_order_by
    else []
  in
  let gouts =
    List.map
      (fun (o : Ast.output_spec) ->
        ( o,
          List.map E.column_name o.Ast.o_exprs,
          Array.of_list (List.map (fun (e, _) -> compile_expr gsc e) o.Ast.o_exprs) ))
      group_outputs
  in
  let exec_grouped env bt =
    let rows = List.init bt.f_n (fun r -> (r * bt.f_stride, bt.f_mult.(r))) in
    let enter group =
      env.group <- group;
      env.base <- fst (List.hd group)
    in
    let groups =
      E.group_by_key
        (fun (base, _) ->
          env.base <- base;
          V.Vtuple (eval_array gkeys env))
        rows
    in
    let groups =
      match ghaving with
      | None -> groups
      | Some pred ->
        List.filter
          (fun g ->
            enter g;
            pred env)
          groups
    in
    let groups =
      match gorder with
      | [] -> groups
      | keys ->
        sort_by_keys
          (List.map
             (fun g ->
               enter g;
               (List.map (fun (ck, desc) -> (ck env, desc)) keys, g))
             groups)
    in
    let groups =
      match climit with
      | None -> groups
      | Some cl ->
        let n = V.to_int (cl env) in
        List.filteri (fun i _ -> i < n) groups
    in
    List.iter
      (fun (o, cols, cexprs) ->
        let rows =
          List.map
            (fun g ->
              enter g;
              eval_array cexprs env)
            groups
        in
        E.bind_output env.ctx o (Table.create cols rows))
      gouts;
    env.group <- []
  in
  let couts =
    match b.Ast.s_target with
    | Ast.Sel_vertices _ -> []
    | Ast.Sel_outputs _ when grouped -> []
    | Ast.Sel_outputs outputs ->
      List.map
        (fun (o : Ast.output_spec) ->
          let aliases =
            List.sort_uniq compare
              (List.concat_map
                 (fun (e, _) -> E.expr_aliases v_aliases e_aliases e)
                 o.Ast.o_exprs)
          in
          let bad = ref None in
          let slots =
            List.map
              (fun a ->
                let vs = E.alias_slot v_aliases a in
                if vs >= 0 then `V vs
                else begin
                  let es = E.alias_slot e_aliases a in
                  if es >= 0 then `E es
                  else begin
                    if !bad = None then bad := Some a;
                    `V 0
                  end
                end)
              aliases
          in
          let csc =
            scope schema
              [ B_combo (List.mapi (fun i a -> (a, i, E.alias_slot v_aliases a < 0)) aliases) ]
          in
          let applicable_order =
            List.filter
              (fun (key, _) ->
                List.for_all
                  (fun a -> List.mem a aliases)
                  (E.expr_aliases v_aliases e_aliases key))
              b.Ast.s_order_by
          in
          { co_spec = o;
            co_cols = List.map E.column_name o.Ast.o_exprs;
            co_aliases = aliases;
            co_slots = slots;
            co_bad_alias = !bad;
            co_exprs = List.map (fun (e, _) -> compile_expr csc e) o.Ast.o_exprs;
            co_having = Option.map (compile_bool csc) b.Ast.s_having;
            co_order =
              List.map
                (fun (e, desc) -> (compile_expr csc e, desc))
                applicable_order })
        outputs
  in
  let exec_outputs env bt =
    match b.Ast.s_target with
    | Ast.Sel_vertices (_, alias, into) ->
      let slot = E.alias_slot v_aliases alias in
      if slot < 0 then E.error "SELECT %s: unknown alias" alias;
      let seen = Hashtbl.create 64 in
      let buf = ib_make () in
      for r = 0 to bt.f_n - 1 do
        let v = bt.f_data.((r * bt.f_stride) + slot) in
        if v >= 0 && not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          ib_push buf v
        end
      done;
      let vids = ib_contents buf in
      let vids =
        match chaving_v with
        | None -> vids
        | Some pred ->
          let b2 = ib_make () in
          Array.iter
            (fun v ->
              env.probe <- v;
              if pred env then ib_push b2 v)
            vids;
          ib_contents b2
      in
      let vids =
        match corder_v with
        | [] -> vids
        | keys ->
          Array.to_list vids
          |> List.map (fun v ->
                 env.probe <- v;
                 (List.map (fun (ck, desc) -> (ck env, desc)) keys, v))
          |> sort_by_keys |> Array.of_list
      in
      let vids =
        match climit with
        | None -> vids
        | Some cl ->
          let n = V.to_int (cl env) in
          if Array.length vids <= n then vids
          else Array.sub vids 0 (max 0 n)
      in
      if Obs.Trace.enabled () then
        Obs.Trace.set_attr "out_vertices" (Obs.Json.Int (Array.length vids));
      let bind name = Hashtbl.replace env.ctx.E.vars name (E.R_vset vids) in
      Option.iter bind binding;
      Option.iter bind into
    | Ast.Sel_outputs _ when grouped -> exec_grouped env bt
    | Ast.Sel_outputs _ ->
      List.iter
        (fun (o : cout) ->
          (match o.co_bad_alias with
           | Some a -> E.error "unknown alias %s in SELECT" a
           | None -> ());
          let combos =
            if o.co_aliases = [] then [ [||] ]  (* pure-global: one row *)
            else begin
              let seen = Hashtbl.create 64 in
              let out = ref [] in
              for r = 0 to bt.f_n - 1 do
                let vals =
                  List.map
                    (function
                      | `V i -> bt.f_data.((r * bt.f_stride) + i)
                      | `E i -> bt.f_data.((r * bt.f_stride) + bt.f_nv + i))
                    o.co_slots
                in
                if List.for_all (fun v -> v >= 0) vals
                   && not (Hashtbl.mem seen vals)
                then begin
                  Hashtbl.add seen vals ();
                  out := Array.of_list vals :: !out
                end
              done;
              List.rev !out
            end
          in
          let combos =
            match o.co_having with
            | None -> combos
            | Some pred ->
              List.filter
                (fun c ->
                  env.combo <- c;
                  pred env)
                combos
          in
          let rows =
            List.map
              (fun c ->
                env.combo <- c;
                (Array.of_list (List.map (fun ce -> ce env) o.co_exprs), c))
              combos
          in
          let rows =
            match o.co_order with
            | [] -> rows
            | keys ->
              sort_by_keys
                (List.map
                   (fun (row, c) ->
                     env.combo <- c;
                     (List.map (fun (ck, desc) -> (ck env, desc)) keys, (row, c)))
                   rows)
          in
          let rows =
            match climit with
            | None -> rows
            | Some cl ->
              let n = V.to_int (cl env) in
              List.filteri (fun i _ -> i < n) rows
          in
          E.bind_output env.ctx o.co_spec (Table.create o.co_cols (List.map fst rows)))
        couts
  in
  let exec_inner env =
    let ctx = env.ctx in
    if ctx.E.primed <> [] then Accum.Store.save_prev ctx.E.store ctx.E.primed;
    let bt = Obs.Trace.span "match" (fun () -> build env) in
    env.data <- bt.f_data;
    if Obs.Trace.enabled () then Obs.Trace.set_attr "rows" (Obs.Json.Int bt.f_n);
    (match residual with
     | None -> ()
     | Some pred ->
       let w = ref 0 in
       for r = 0 to bt.f_n - 1 do
         env.base <- r * bt.f_stride;
         if pred env then begin
           if !w <> r then begin
             Array.blit bt.f_data (r * bt.f_stride) bt.f_data (!w * bt.f_stride)
               bt.f_stride;
             bt.f_mult.(!w) <- bt.f_mult.(r)
           end;
           incr w
         end
       done;
       bt.f_n <- !w;
       if Obs.Trace.enabled () then
         Obs.Trace.set_attr "rows_after_where" (Obs.Json.Int bt.f_n));
    exec_accum env bt;
    env.overlay <- None;
    exec_post env bt;
    env.overlay <- None;
    exec_outputs env bt
  in
  let op_exec env =
    Interrupt.tick ();
    Obs.Metrics.incr m_selects 1;
    Obs.Metrics.time h_select_ms (fun () ->
        if not (Obs.Trace.enabled ()) then exec_inner env
        else
          Obs.Trace.span "select" (fun () ->
              Obs.Trace.set_attr "block" (Obs.Json.Str signature);
              (match binding with
               | Some x -> Obs.Trace.set_attr "binds" (Obs.Json.Str x)
               | None -> ());
              exec_inner env))
  in
  (* Describe lines + op accounting. *)
  let conj_lines =
    List.map
      (fun cj ->
        match cj.cj_kind with
        | Cj_step st ->
          Printf.sprintf "step %s -(%s)- %s%s" cj.cj_src_alias
            (match st.st_ty with Some t -> t | None -> "_")
            cj.cj_dst_alias
            (match st.st_static with
             | Some _ -> " [syms@install]"
             | None -> " [syms@invoke]")
        | Cj_ident d ->
          Printf.sprintf "identity %s -(%s)- %s [empty-word DFA folded @install]"
            cj.cj_src_alias (Darpe.Ast.to_string d) cj.cj_dst_alias
        | Cj_kleene d ->
          Printf.sprintf "dfa-product %s -(%s)- %s" cj.cj_src_alias
            (Darpe.Ast.to_string d) cj.cj_dst_alias)
      cconjs
  in
  let where_line =
    let pushed_names = List.map fst pushed_tbl |> List.sort compare in
    match pushed_names, residual_expr with
    | [], None -> []
    | names, res ->
      [ Printf.sprintf "where:%s%s"
          (if names = [] then ""
           else " pushed[" ^ String.concat "," names ^ "]")
          (if res = None then "" else " residual") ]
  in
  let accum_line =
    if b.Ast.s_accum = [] then []
    else
      [ Printf.sprintf "accum: %d stmts (locals %d%s)"
          (List.length b.Ast.s_accum) acc_nlocals
          (if acc_overlay then ", overlay" else "") ]
  in
  let post_line =
    if cgroups = [] then []
    else [ Printf.sprintf "post-accum: %d groups" (List.length cgroups) ]
  in
  let group_line =
    if not grouped then []
    else
      [ "group by: "
        ^ String.concat ", " (List.map Ast.expr_to_string b.Ast.s_group_by) ]
  in
  let out_line =
    match b.Ast.s_target with
    | Ast.Sel_vertices (_, alias, _) -> [ "emit: vertex set " ^ alias ]
    | Ast.Sel_outputs outs ->
      [ "emit: tables ["
        ^ String.concat ", " (List.map (fun o -> o.Ast.o_into) outs)
        ^ "]" ]
  in
  let n_inner =
    List.length cconjs + List.length b.Ast.s_accum
    + List.length b.Ast.s_post_accum
    + match b.Ast.s_target with
      | Ast.Sel_vertices _ -> 1
      | Ast.Sel_outputs outs -> List.length outs
  in
  { op_exec;
    op_lines =
      ("select " ^ signature)
      :: indent (conj_lines @ where_line @ accum_line @ post_line @ group_line @ out_line);
    op_total = 1 + n_inner }

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)

let set_label x = function
  | Ast.Set_types types -> Printf.sprintf "%s = {%s}" x (String.concat ", " types)
  | Ast.Set_copy y -> Printf.sprintf "%s = %s" x y
  | Ast.Set_op (op, a, b) ->
    Printf.sprintf "%s = %s %s %s" x a
      (match op with
       | Ast.Op_union -> "UNION"
       | Ast.Op_intersect -> "INTERSECT"
       | Ast.Op_minus -> "MINUS")
      b

let rec compile_stmt (schema : Pgraph.Schema.t option) (s : Ast.stmt) : op =
  match s with
  | Ast.S_select (binding, blk) -> compile_select schema binding blk
  | Ast.S_print items ->
    let label e alias = Option.value alias ~default:(Ast.expr_to_string e) in
    let compile_item = function
      | Ast.P_expr ((Ast.E_var name as e), alias) ->
        (* A variable of any kind prints under its own name. *)
        let ce = compile_expr (gscope schema) e in
        let label = Option.value alias ~default:name in
        fun env ->
          (match Hashtbl.find_opt env.ctx.E.vars name with
           | Some rv -> E.print_binding env.ctx label rv
           | None -> E.print_value env.ctx label (ce env))
      | Ast.P_expr (e, alias) ->
        let ce = compile_expr (gscope schema) e in
        let label = label e alias in
        fun env -> E.print_value env.ctx label (ce env)
      | Ast.P_proj (setname, exprs) ->
        let ces = Array.of_list (List.map (compile_expr (scope schema [ B_probe setname ])) exprs) in
        fun env ->
          let rows =
            Array.map
              (fun v ->
                env.probe <- v;
                eval_array ces env)
              (E.projected_set env.ctx setname)
          in
          E.print_projection env.ctx setname exprs (Array.to_list rows)
    in
    let citems = List.map compile_item items in
    leaf_op
      ("print "
       ^ String.concat ", "
           (List.map
              (function
                | Ast.P_expr (e, alias) -> label e alias
                | Ast.P_proj (setname, _) -> setname ^ "[...]")
              items))
      (fun env -> List.iter (fun f -> f env) citems)
  | Ast.S_insert (ty, attrs, values) ->
    let cvalues = List.map (compile_expr (gscope schema)) values in
    leaf_op ("insert into " ^ ty) (fun env ->
        E.insert env.ctx ty attrs (List.map (fun ce -> ce env) cvalues))
  | Ast.S_acc_decl d ->
    let cinit = Option.map (compile_expr (gscope schema)) d.Ast.d_init in
    let names =
      String.concat ", "
        (List.map
           (fun (g, n) -> (if g then "@@" else "@") ^ n)
           d.Ast.d_names)
    in
    leaf_op ("accum-decl " ^ names) (fun env ->
        E.declare env.ctx d (Option.map (fun ce -> ce env) cinit))
  | Ast.S_set_assign (x, src) ->
    leaf_op ("set " ^ set_label x src) (fun env -> E.set_assign env.ctx x src)
  | Ast.S_gacc_assign (name, is_input, e) ->
    let ce = compile_expr (gscope schema) e in
    let tgt = Accum.Store.Global name in
    leaf_op (Printf.sprintf "@@%s %s ..." name (if is_input then "+=" else "=")) (fun env ->
        let v = ce env in
        if is_input then Accum.Store.input_now env.ctx.E.store tgt v
        else Accum.Store.assign_now env.ctx.E.store tgt v)
  | Ast.S_let (x, e) ->
    let ce = compile_expr (gscope schema) e in
    leaf_op ("let " ^ x) (fun env ->
        Hashtbl.replace env.ctx.E.vars x (E.binding_of env.ctx e (fun () -> ce env)))
  | Ast.S_while (cond, limit, body) ->
    let ccond = compile_bool (gscope schema) cond in
    let climit = Option.map (compile_expr (gscope schema)) limit in
    let cbody = List.map (compile_stmt schema) body in
    { op_exec =
        (fun env ->
          Interrupt.tick ();
          let max_iters =
            match climit with None -> max_int | Some ce -> V.to_int (ce env)
          in
          let i = ref 0 in
          Obs.Trace.span "while" (fun () ->
              while !i < max_iters && ccond env do
                Interrupt.tick ();
                Obs.Trace.span "iter" (fun () ->
                    Obs.Trace.set_attr "i" (Obs.Json.Int !i);
                    List.iter (fun o -> o.op_exec env) cbody);
                incr i
              done;
              Obs.Trace.set_attr "iterations" (Obs.Json.Int !i)));
      op_lines = ("while " ^ Ast.expr_to_string cond) :: child_lines cbody;
      op_total = 1 + sum_total cbody }
  | Ast.S_if (cond, th, el) ->
    let ccond = compile_bool (gscope schema) cond in
    let cth = List.map (compile_stmt schema) th in
    let cel = List.map (compile_stmt schema) el in
    { op_exec =
        (fun env ->
          Interrupt.tick ();
          List.iter (fun o -> o.op_exec env) (if ccond env then cth else cel));
      op_lines =
        (("if " ^ Ast.expr_to_string cond) :: child_lines cth)
        @ (if cel = [] then [] else "else" :: child_lines cel);
      op_total = 1 + sum_total cth + sum_total cel }
  | Ast.S_foreach (x, e, body) ->
    let ce = compile_expr (gscope schema) e in
    let cbody = List.map (compile_stmt schema) body in
    { op_exec =
        (fun env ->
          Interrupt.tick ();
          List.iter
            (fun item ->
              Hashtbl.replace env.ctx.E.vars x (E.R_scalar item);
              List.iter (fun o -> o.op_exec env) cbody)
            (E.foreach_items env.ctx e (fun () -> ce env)));
      op_lines =
        (Printf.sprintf "foreach %s in %s" x (Ast.expr_to_string e))
        :: child_lines cbody;
      op_total = 1 + sum_total cbody }
  | Ast.S_return e ->
    let ce = compile_expr (gscope schema) e in
    leaf_op ("return " ^ Ast.expr_to_string e) (fun env ->
        env.ctx.E.returned <- Some (E.binding_of env.ctx e (fun () -> ce env));
        raise E.Returned)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)

type plan = {
  p_query : Ast.query option;
  p_primed : string list;
  p_ops : op list;
  p_compile_ms : float;
  p_total : int;
  p_describe : string;
}

let finish_plan query primed ops t0 =
  let total = sum_total ops in
  let header = Printf.sprintf "plan: %d ops" total in
  { p_query = query;
    p_primed = primed;
    p_ops = ops;
    p_compile_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    p_total = total;
    p_describe =
      String.concat "\n" (header :: List.concat_map (fun o -> indent o.op_lines) ops) }

let compile ?schema (q : Ast.query) =
  let t0 = Unix.gettimeofday () in
  let info = Analyze.check_query q in
  (match info.Analyze.errors with
   | [] -> ()
   | errs -> E.error "analysis failed: %s" (String.concat "; " errs));
  let ops = List.map (compile_stmt schema) q.Ast.q_body in
  finish_plan (Some q) info.Analyze.primed ops t0

let compile_block ?schema stmts =
  let t0 = Unix.gettimeofday () in
  let info = Analyze.check_block stmts in
  (match info.Analyze.errors with
   | [] -> ()
   | errs -> E.error "analysis failed: %s" (String.concat "; " errs));
  let ops = List.map (compile_stmt schema) stmts in
  finish_plan None info.Analyze.primed ops t0

let run plan ?semantics ~params graph =
  let sem =
    match plan.p_query with
    | Some q ->
      E.check_params q params;
      E.query_semantics ?semantics q
    | None -> (match semantics with Some s -> s | None -> Sem.All_shortest)
  in
  let ctx = E.make_ctx graph sem params plan.p_primed in
  let env =
    { ctx;
      data = [||];
      base = 0;
      mult = B.one;
      locals = [||];
      probe = -1;
      combo = [||];
      group = [];
      overlay = None }
  in
  (try List.iter (fun op -> op.op_exec env) plan.p_ops with
   | E.Returned -> ()
   | V.Type_error msg -> E.error "type error: %s" msg);
  E.finish ctx

(* Parameters are checked before compilation, as the interpreter checks
   them before analysis, so both raise the same first error. *)
let run_source graph ?semantics ?(params = []) src =
  let schema = G.schema graph in
  let plan =
    match Parser.parse_query src with
    | q ->
      E.check_params q params;
      compile ~schema q
    | exception Parser.Error _ -> compile_block ~schema (Parser.parse_block src)
  in
  run plan ?semantics ~params graph

let compile_ms plan = plan.p_compile_ms
let plan_ops plan = plan.p_total
let describe plan = plan.p_describe
