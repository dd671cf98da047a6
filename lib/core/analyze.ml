type info = {
  errors : string list;
  warnings : string list;
  tractable : bool;
  primed : string list;
  mutating : bool;
}

(* Mutation classification: a query is mutating iff evaluation can write
   graph state — an attribute assignment in ACCUM/POST_ACCUM or an INSERT
   anywhere in the body (both can hide under control flow). *)
let rec acc_stmt_mutates = function
  | Ast.A_attr_assign _ -> true
  | Ast.A_if (_, th, el) ->
    List.exists acc_stmt_mutates th || List.exists acc_stmt_mutates el
  | Ast.A_input _ | Ast.A_assign _ | Ast.A_local _ -> false

let rec stmt_mutates = function
  | Ast.S_insert _ -> true
  | Ast.S_select (_, b) ->
    List.exists acc_stmt_mutates b.Ast.s_accum
    || List.exists acc_stmt_mutates b.Ast.s_post_accum
  | Ast.S_while (_, _, body) -> List.exists stmt_mutates body
  | Ast.S_if (_, th, el) -> List.exists stmt_mutates th || List.exists stmt_mutates el
  | Ast.S_foreach (_, _, body) -> List.exists stmt_mutates body
  | Ast.S_acc_decl _ | Ast.S_set_assign _ | Ast.S_gacc_assign _ | Ast.S_let _
  | Ast.S_print _ | Ast.S_return _ -> false

let block_mutates stmts = List.exists stmt_mutates stmts

type acc_kind = Kglobal | Kvertex

type env = {
  mutable decls : (string * (acc_kind * Accum.Spec.t)) list;
  mutable errs : string list;
  mutable warns : string list;
  mutable is_tractable : bool;
  mutable primed_names : string list;
  mutable has_unbounded_darpe : bool;
}

let err env msg = env.errs <- msg :: env.errs
let warn env msg = env.warns <- msg :: env.warns

let note_primed env name =
  if not (List.mem name env.primed_names) then env.primed_names <- name :: env.primed_names

let lookup env name = List.assoc_opt name env.decls

let check_acc_ref env kind name =
  match lookup env name, kind with
  | Some (Kglobal, _), Kglobal | Some (Kvertex, _), Kvertex -> ()
  | Some (Kglobal, _), Kvertex ->
    err env (Printf.sprintf "@%s is declared as a global accumulator (use @@%s)" name name)
  | Some (Kvertex, _), Kglobal ->
    err env (Printf.sprintf "@@%s is declared as a vertex accumulator (use .@%s)" name name)
  | None, Kglobal -> err env (Printf.sprintf "undeclared global accumulator @@%s" name)
  | None, Kvertex -> err env (Printf.sprintf "undeclared vertex accumulator @%s" name)

let rec walk_expr env (e : Ast.expr) =
  match e with
  | Ast.E_int _ | Ast.E_float _ | Ast.E_string _ | Ast.E_bool _ | Ast.E_null | Ast.E_var _
  | Ast.E_attr _ -> ()
  | Ast.E_vacc (_, name) -> check_acc_ref env Kvertex name
  | Ast.E_vacc_prev (_, name) ->
    check_acc_ref env Kvertex name;
    note_primed env name
  | Ast.E_gacc name -> check_acc_ref env Kglobal name
  | Ast.E_gacc_prev name ->
    check_acc_ref env Kglobal name;
    note_primed env name
  | Ast.E_binop (_, a, b) ->
    walk_expr env a;
    walk_expr env b
  | Ast.E_unop (_, a) -> walk_expr env a
  | Ast.E_call (_, args) -> List.iter (walk_expr env) args
  | Ast.E_method (base, _, args) ->
    walk_expr env base;
    List.iter (walk_expr env) args
  | Ast.E_tuple es -> List.iter (walk_expr env) es
  | Ast.E_arrow (ks, vs) ->
    List.iter (walk_expr env) ks;
    List.iter (walk_expr env) vs

let walk_target env = function
  | Ast.T_global name -> check_acc_ref env Kglobal name
  | Ast.T_vertex (_, name) -> check_acc_ref env Kvertex name

let rec walk_acc_stmt env (s : Ast.acc_stmt) =
  match s with
  | Ast.A_input (t, e) | Ast.A_assign (t, e) ->
    walk_target env t;
    walk_expr env e
  | Ast.A_local (_, e) -> walk_expr env e
  | Ast.A_if (c, th, el) ->
    walk_expr env c;
    List.iter (walk_acc_stmt env) th;
    List.iter (walk_acc_stmt env) el
  | Ast.A_attr_assign (_, _, e) -> walk_expr env e

(* Vertex aliases a POST_ACCUM statement touches: used to enforce the
   one-alias-per-statement rule GSQL documents.  A bare variable counts
   when it names one of the block's FROM vertex aliases [from] ([id(v)]);
   any other variable (a parameter, a FOREACH variable) does not. *)
let rec post_accum_aliases from (s : Ast.acc_stmt) =
  let rec of_expr (e : Ast.expr) =
    match e with
    | Ast.E_vacc (v, _) | Ast.E_vacc_prev (v, _) | Ast.E_attr (v, _) -> [ v ]
    | Ast.E_var v when Array.mem v from -> [ v ]
    | Ast.E_binop (_, a, b) -> of_expr a @ of_expr b
    | Ast.E_unop (_, a) -> of_expr a
    | Ast.E_call (_, args) -> List.concat_map of_expr args
    | Ast.E_method (base, _, args) -> of_expr base @ List.concat_map of_expr args
    | Ast.E_tuple es | Ast.E_arrow (es, []) -> List.concat_map of_expr es
    | Ast.E_arrow (ks, vs) -> List.concat_map of_expr (ks @ vs)
    | _ -> []
  in
  match s with
  | Ast.A_input (Ast.T_vertex (v, _), e) | Ast.A_assign (Ast.T_vertex (v, _), e) ->
    v :: of_expr e
  | Ast.A_input (Ast.T_global _, e) | Ast.A_assign (Ast.T_global _, e) | Ast.A_local (_, e) ->
    of_expr e
  | Ast.A_attr_assign (v, _, e) -> v :: of_expr e
  | Ast.A_if (c, th, el) ->
    of_expr c
    @ List.concat_map (post_accum_aliases from) th
    @ List.concat_map (post_accum_aliases from) el

let sort_uniq l = List.sort_uniq compare l

let walk_select env (b : Ast.select_block) =
  List.iter
    (fun (c : Ast.conjunct) ->
      (match Darpe.Ast.max_path_length c.Ast.c_darpe with
       | None -> env.has_unbounded_darpe <- true
       | Some _ -> ());
      (match c.Ast.c_darpe, c.Ast.c_edge_alias with
       | Darpe.Ast.Step _, _ -> ()
       | _, Some alias ->
         err env
           (Printf.sprintf "edge alias %s bound to a multi-edge pattern %s" alias
              (Darpe.Ast.to_string c.Ast.c_darpe))
       | _, None -> ()))
    b.Ast.s_from;
  Option.iter (walk_expr env) b.Ast.s_where;
  List.iter (walk_acc_stmt env) b.Ast.s_accum;
  List.iter (walk_acc_stmt env) b.Ast.s_post_accum;
  let from = fst (Ast.collect_aliases b.Ast.s_from) in
  List.iter
    (fun stmt ->
      let aliases = sort_uniq (post_accum_aliases from stmt) in
      if List.length aliases > 1 then
        err env
          (Printf.sprintf "POST_ACCUM statement references several vertex aliases (%s)"
             (String.concat ", " aliases)))
    b.Ast.s_post_accum;
  List.iter (walk_expr env) b.Ast.s_group_by;
  (match b.Ast.s_target, b.Ast.s_group_by with
   | Ast.Sel_vertices _, _ :: _ ->
     err env "GROUP BY requires a multi-output SELECT (project aggregates INTO a table)"
   | _ -> ());
  Option.iter (walk_expr env) b.Ast.s_having;
  List.iter (fun (e, _) -> walk_expr env e) b.Ast.s_order_by;
  Option.iter (walk_expr env) b.Ast.s_limit;
  (match b.Ast.s_target with
   | Ast.Sel_vertices _ -> ()
   | Ast.Sel_outputs outputs ->
     List.iter (fun o -> List.iter (fun (e, _) -> walk_expr env e) o.Ast.o_exprs) outputs)

let order_dependent_decl (spec : Accum.Spec.t) = not (Accum.Spec.order_invariant spec)

let rec walk_stmt env (s : Ast.stmt) =
  match s with
  | Ast.S_acc_decl d ->
    List.iter
      (fun (is_global, name) ->
        let kind = if is_global then Kglobal else Kvertex in
        (match lookup env name with
         | Some _ -> warn env (Printf.sprintf "accumulator %s re-declared" name)
         | None -> ());
        env.decls <- (name, (kind, d.Ast.d_spec)) :: env.decls)
      d.Ast.d_names;
    Option.iter (walk_expr env) d.Ast.d_init
  | Ast.S_set_assign _ -> ()
  | Ast.S_select (_, b) -> walk_select env b
  | Ast.S_gacc_assign (name, _, e) ->
    check_acc_ref env Kglobal name;
    walk_expr env e
  | Ast.S_let (_, e) -> walk_expr env e
  | Ast.S_while (c, limit, body) ->
    walk_expr env c;
    Option.iter (walk_expr env) limit;
    List.iter (walk_stmt env) body
  | Ast.S_if (c, th, el) ->
    walk_expr env c;
    List.iter (walk_stmt env) th;
    List.iter (walk_stmt env) el
  | Ast.S_foreach (_, e, body) ->
    walk_expr env e;
    List.iter (walk_stmt env) body
  | Ast.S_print items ->
    List.iter
      (function
        | Ast.P_expr (e, _) -> walk_expr env e
        | Ast.P_proj (_, es) -> List.iter (walk_expr env) es)
      items
  | Ast.S_return e -> walk_expr env e
  | Ast.S_insert (_, _, values) -> List.iter (walk_expr env) values

let finish env =
  let uses_order_dependent =
    List.exists (fun (_, (_, spec)) -> order_dependent_decl spec) env.decls
  in
  if env.has_unbounded_darpe && uses_order_dependent then begin
    env.is_tractable <- false;
    warn env
      "query combines unbounded path patterns with order-dependent accumulators \
       (List/Array/SumAccum<string>): outside the tractable class of Theorem 7.1"
  end;
  { errors = List.rev env.errs;
    warnings = List.rev env.warns;
    tractable = env.is_tractable;
    primed = List.rev env.primed_names;
    mutating = false }

let fresh_env () =
  { decls = [];
    errs = [];
    warns = [];
    is_tractable = true;
    primed_names = [];
    has_unbounded_darpe = false }

let check_block stmts =
  let env = fresh_env () in
  List.iter (walk_stmt env) stmts;
  { (finish env) with mutating = block_mutates stmts }

let check_query (q : Ast.query) = check_block q.Ast.q_body
