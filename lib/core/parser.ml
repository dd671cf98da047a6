exception Error of string

type state = {
  mutable toks : Token.located array;
  mutable pos : int;
}

let peek st = st.toks.(st.pos).Token.tok
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Token.tok else Token.EOF

let here st =
  let { Token.line; col; _ } = st.toks.(st.pos) in
  Printf.sprintf "%d:%d" line col

let fail st msg =
  raise (Error (Printf.sprintf "parse error at %s (near %s): %s" (here st)
                  (Token.to_string (peek st)) msg))

let advance st = if st.pos + 1 < Array.length st.toks then st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st else fail st (Printf.sprintf "expected %s" what)

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let expect_ident st what =
  match peek st with
  | Token.IDENT name ->
    advance st;
    name
  | _ -> fail st (Printf.sprintf "expected %s" what)

let accept_kw st kw =
  match peek st with
  | Token.KW k when k = kw ->
    advance st;
    true
  | _ -> false

let expect_kw st kw = if not (accept_kw st kw) then fail st (Printf.sprintf "expected %s" kw)

(* Names of accumulator type constructors: an IDENT opening a declaration. *)
let accumulator_type_names =
  [ "SumAccum"; "MinAccum"; "MaxAccum"; "AvgAccum"; "OrAccum"; "AndAccum"; "SetAccum";
    "BagAccum"; "ListAccum"; "ArrayAccum"; "MapAccum"; "HeapAccum"; "GroupByAccum" ]

let is_accum_type_name name =
  List.mem name accumulator_type_names || Accum.Custom.is_registered name

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec parse_expr_prec st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "OR" then Ast.E_binop (Ast.Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "AND" then Ast.E_binop (Ast.And, lhs, parse_and st) else lhs

and parse_not st =
  if accept_kw st "NOT" then Ast.E_unop (Ast.Not, parse_not st) else parse_cmp st

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | Token.EQ -> Some Ast.Eq
    | Token.NEQ -> Some Ast.Neq
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | Some op ->
    advance st;
    Ast.E_binop (op, lhs, parse_add st)
  | None -> lhs

and parse_add st =
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
      advance st;
      go (Ast.E_binop (Ast.Add, lhs, parse_mul st))
    | Token.MINUS ->
      advance st;
      go (Ast.E_binop (Ast.Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match peek st with
    | Token.STAR ->
      advance st;
      go (Ast.E_binop (Ast.Mul, lhs, parse_unary st))
    | Token.SLASH ->
      advance st;
      go (Ast.E_binop (Ast.Div, lhs, parse_unary st))
    | Token.PERCENT ->
      advance st;
      go (Ast.E_binop (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  if accept st Token.MINUS then Ast.E_unop (Ast.Neg, parse_unary st) else parse_postfix st

and parse_postfix st =
  let rec go e =
    match peek st with
    | Token.DOT ->
      (match peek2 st with
       | Token.VACC name ->
         advance st;
         advance st;
         let base =
           match e with
           | Ast.E_var v -> v
           | _ -> fail st "vertex accumulator access requires a variable base"
         in
         if accept st Token.PRIME then go (Ast.E_vacc_prev (base, name))
         else go (Ast.E_vacc (base, name))
       | Token.IDENT field ->
         advance st;
         advance st;
         if peek st = Token.LPAREN then begin
           advance st;
           let args = parse_args st in
           expect st Token.RPAREN "')'";
           go (Ast.E_method (e, field, args))
         end
         else begin
           match e with
           | Ast.E_var v -> go (Ast.E_attr (v, field))
           | _ -> fail st "attribute access requires a variable base"
         end
       | _ -> fail st "expected attribute or accumulator after '.'")
    | _ -> e
  in
  go (parse_primary st)

and parse_args st =
  if peek st = Token.RPAREN then []
  else if peek st = Token.STAR && peek2 st = Token.RPAREN then begin
    (* The bare-star argument of SQL count aggregates. *)
    advance st;
    [ Ast.E_var "*" ]
  end
  else begin
    let rec go acc =
      let e = parse_expr_prec st in
      if accept st Token.COMMA then go (e :: acc) else List.rev (e :: acc)
    in
    go []
  end

and parse_primary st =
  match peek st with
  | Token.INT n ->
    advance st;
    Ast.E_int n
  | Token.FLOAT f ->
    advance st;
    Ast.E_float f
  | Token.STRING s ->
    advance st;
    Ast.E_string s
  | Token.KW "TRUE" ->
    advance st;
    Ast.E_bool true
  | Token.KW "FALSE" ->
    advance st;
    Ast.E_bool false
  | Token.KW "NULL" ->
    advance st;
    Ast.E_null
  | Token.GACC name ->
    advance st;
    if accept st Token.PRIME then Ast.E_gacc_prev name else Ast.E_gacc name
  | Token.KW "DATETIME" when peek2 st = Token.LPAREN ->
    (* datetime(y, m, d) is both a type keyword and a constructor. *)
    advance st;
    advance st;
    let args = parse_args st in
    expect st Token.RPAREN "')'";
    Ast.E_call ("datetime", args)
  | Token.IDENT name ->
    advance st;
    if peek st = Token.LPAREN then begin
      advance st;
      let args = parse_args st in
      expect st Token.RPAREN "')'";
      Ast.E_call (name, args)
    end
    else Ast.E_var name
  | Token.LPAREN ->
    advance st;
    let first = parse_expr_prec st in
    let rec collect acc =
      if accept st Token.COMMA then collect (parse_expr_prec st :: acc) else List.rev acc
    in
    let items = collect [ first ] in
    if accept st Token.ARROW then begin
      (* (k1, k2 -> a1, a2): Map/GroupBy accumulator input. *)
      let v1 = parse_expr_prec st in
      let values = collect [ v1 ] in
      expect st Token.RPAREN "')'";
      Ast.E_arrow (items, values)
    end
    else begin
      expect st Token.RPAREN "')'";
      match items with
      | [ single ] -> single
      | several -> Ast.E_tuple several
    end
  | _ -> fail st "expected expression"

(* ------------------------------------------------------------------ *)
(* Accumulator type specifications                                    *)

let rec parse_acc_spec st name =
  match name with
  | "SumAccum" ->
    let ty = parse_type_arg st in
    (match ty with
     | "INT" | "UINT" -> Accum.Spec.Sum_int
     | "FLOAT" | "DOUBLE" -> Accum.Spec.Sum_float
     | "STRING" -> Accum.Spec.Sum_string
     | other -> fail st (Printf.sprintf "SumAccum does not support element type %s" other))
  | "MinAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Min_acc
  | "MaxAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Max_acc
  | "AvgAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Avg_acc
  | "OrAccum" -> Accum.Spec.Or_acc
  | "AndAccum" -> Accum.Spec.And_acc
  | "SetAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Set_acc
  | "BagAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Bag_acc
  | "ListAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.List_acc
  | "ArrayAccum" ->
    ignore (parse_optional_type_arg st);
    Accum.Spec.Array_acc
  | "MapAccum" ->
    (* MapAccum<keytype, nested-accum> *)
    expect st Token.LT "'<'";
    ignore (parse_scalar_type_name st);
    expect st Token.COMMA "','";
    let nested = parse_nested_spec st in
    expect st Token.GT "'>'";
    Accum.Spec.Map_acc nested
  | "HeapAccum" ->
    (* HeapAccum(capacity, pos ASC|DESC, ...) — positional tuple fields. *)
    expect st Token.LPAREN "'('";
    let capacity =
      match peek st with
      | Token.INT n ->
        advance st;
        n
      | _ -> fail st "HeapAccum capacity must be an integer literal"
    in
    let fields = ref [] in
    while accept st Token.COMMA do
      let idx =
        match peek st with
        | Token.INT n ->
          advance st;
          n
        | _ -> fail st "HeapAccum sort field must be a tuple position"
      in
      let dir =
        if accept_kw st "DESC" then Accum.Spec.Desc
        else begin
          ignore (accept_kw st "ASC");
          Accum.Spec.Asc
        end
      in
      fields := (idx, dir) :: !fields
    done;
    expect st Token.RPAREN "')'";
    Accum.Spec.Heap_acc { Accum.Spec.h_capacity = capacity; h_fields = List.rev !fields }
  | "GroupByAccum" ->
    (* GroupByAccum<ty k1, ty k2, NestedAccum, ...> — key count inferred from
       the typed-name entries (paper Example 12 syntax). *)
    expect st Token.LT "'<'";
    let nkeys = ref 0 in
    let nested = ref [] in
    let rec entries () =
      (match peek st, peek2 st with
       | (Token.KW ("INT" | "UINT" | "FLOAT" | "DOUBLE" | "STRING" | "BOOL" | "DATETIME" | "VERTEX")),
         Token.IDENT _ ->
         advance st;
         advance st;
         incr nkeys
       | Token.IDENT tyname, _ when is_accum_type_name tyname ->
         advance st;
         nested := parse_acc_spec st tyname :: !nested
       | _ -> fail st "GroupByAccum entries are `type keyName` or nested accumulator types");
      if accept st Token.COMMA then entries ()
    in
    entries ();
    expect st Token.GT "'>'";
    if !nkeys = 0 then fail st "GroupByAccum needs at least one key";
    if !nested = [] then fail st "GroupByAccum needs at least one nested accumulator";
    Accum.Spec.Group_by (!nkeys, List.rev !nested)
  | other ->
    if Accum.Custom.is_registered other then Accum.Spec.Custom other
    else fail st (Printf.sprintf "unknown accumulator type %s" other)

and parse_nested_spec st =
  match peek st with
  | Token.IDENT tyname when is_accum_type_name tyname ->
    advance st;
    parse_acc_spec st tyname
  | _ -> fail st "expected a nested accumulator type"

and parse_scalar_type_name st =
  match peek st with
  | Token.KW (("INT" | "UINT" | "FLOAT" | "DOUBLE" | "STRING" | "BOOL" | "DATETIME" | "VERTEX" | "EDGE") as k) ->
    advance st;
    k
  | Token.IDENT name ->
    advance st;
    name
  | _ -> fail st "expected a type name"

and parse_type_arg st =
  expect st Token.LT "'<'";
  let ty = parse_scalar_type_name st in
  expect st Token.GT "'>'";
  ty

and parse_optional_type_arg st =
  if peek st = Token.LT then Some (parse_type_arg st) else None

(* ------------------------------------------------------------------ *)
(* FROM-clause patterns                                                *)

(* The DARPE between "-(" and ")-" is re-rendered to text and handed to the
   dedicated DARPE parser, so both parsers share one grammar. *)
let parse_darpe_body st =
  let buf = Buffer.create 32 in
  let edge_alias = ref None in
  let depth = ref 1 in
  let rec go () =
    (match peek st with
     | Token.RPAREN when !depth = 1 -> ()
     | Token.EOF -> fail st "unterminated pattern"
     | tok ->
       (match tok with
        | Token.LPAREN ->
          incr depth;
          Buffer.add_char buf '('
        | Token.RPAREN ->
          decr depth;
          Buffer.add_char buf ')'
        | Token.COLON when !depth = 1 ->
          advance st;
          (match peek st with
           | Token.IDENT a -> edge_alias := Some a
           | _ -> fail st "expected edge alias after ':'");
          if peek2 st <> Token.RPAREN then fail st "edge alias must close the pattern"
        | Token.IDENT name -> Buffer.add_string buf name
        | Token.KW k -> Buffer.add_string buf k
        | Token.INT n -> Buffer.add_string buf (string_of_int n)
        | Token.LT -> Buffer.add_char buf '<'
        | Token.GT -> Buffer.add_char buf '>'
        | Token.STAR -> Buffer.add_char buf '*'
        | Token.DOT ->
          (* Two adjacent dots are the bounds separator "..": re-render them
             without the intervening space the generic path would insert. *)
          if peek2 st = Token.DOT then begin
            advance st;
            Buffer.add_string buf ".."
          end
          else Buffer.add_char buf '.'
        | Token.PIPE -> Buffer.add_char buf '|'
        | Token.QUESTION -> Buffer.add_char buf '?'
        | _ -> fail st (Printf.sprintf "unexpected %s inside pattern" (Token.to_string tok)));
       Buffer.add_char buf ' ';
       advance st;
       go ())
  in
  go ();
  let text = Buffer.contents buf in
  match Darpe.Parse.parse text with
  | darpe -> (darpe, !edge_alias)
  | exception Darpe.Parse.Error msg -> fail st msg

let parse_endpoint st =
  let name = expect_ident st "vertex type or set name" in
  let alias = if accept st Token.COLON then Some (expect_ident st "alias") else None in
  { Ast.ep_set = name; ep_alias = alias }

(* A comma-separated FROM entry may chain several hops:
   "A:a -(E>)- B:b -(<F)- C:c" desugars into two conjuncts sharing b. *)
let parse_conjunct_chain st =
  let src = parse_endpoint st in
  let rec hops acc src =
    expect st Token.MINUS "'-'";
    expect st Token.LPAREN "'('";
    let darpe, edge_alias = parse_darpe_body st in
    expect st Token.RPAREN "')'";
    expect st Token.MINUS "'-'";
    let dst = parse_endpoint st in
    let conj = { Ast.c_src = src; c_darpe = darpe; c_edge_alias = edge_alias; c_dst = dst } in
    if peek st = Token.MINUS && peek2 st = Token.LPAREN then hops (conj :: acc) dst
    else List.rev (conj :: acc)
  in
  hops [] src

(* ------------------------------------------------------------------ *)
(* ACCUM / POST_ACCUM statement lists                                  *)

let rec parse_acc_stmt st =
  match peek st with
  | Token.KW "IF" ->
    advance st;
    let cond = parse_expr_prec st in
    expect_kw st "THEN";
    let then_branch = parse_acc_stmts st in
    let else_branch = if accept_kw st "ELSE" then parse_acc_stmts st else [] in
    expect_kw st "END";
    Ast.A_if (cond, then_branch, else_branch)
  | Token.GACC name ->
    advance st;
    (match peek st with
     | Token.PLUSEQ ->
       advance st;
       Ast.A_input (Ast.T_global name, parse_expr_prec st)
     | Token.EQ ->
       advance st;
       Ast.A_assign (Ast.T_global name, parse_expr_prec st)
     | _ -> fail st "expected += or = after global accumulator")
  | Token.KW ("INT" | "UINT" | "FLOAT" | "DOUBLE" | "STRING" | "BOOL" | "DATETIME") ->
    (* Typed local: FLOAT salesPrice = ... *)
    advance st;
    let name = expect_ident st "local variable name" in
    expect st Token.EQ "'='";
    Ast.A_local (name, parse_expr_prec st)
  | Token.IDENT base when peek2 st = Token.DOT ->
    advance st;
    advance st;
    (match peek st with
     | Token.VACC acc ->
       advance st;
       (match peek st with
        | Token.PLUSEQ ->
          advance st;
          Ast.A_input (Ast.T_vertex (base, acc), parse_expr_prec st)
        | Token.EQ ->
          advance st;
          Ast.A_assign (Ast.T_vertex (base, acc), parse_expr_prec st)
        | _ -> fail st "expected += or = after vertex accumulator")
     | Token.IDENT attr ->
       advance st;
       expect st Token.EQ "'=' (attribute write)";
       Ast.A_attr_assign (base, attr, parse_expr_prec st)
     | _ -> fail st "expected accumulator or attribute after '.'")
  | Token.IDENT _ when peek2 st = Token.EQ ->
    let name = expect_ident st "local variable name" in
    advance st;
    Ast.A_local (name, parse_expr_prec st)
  | _ -> fail st "expected an ACCUM statement"

and parse_acc_stmts st =
  let rec go acc =
    let s = parse_acc_stmt st in
    if accept st Token.COMMA then go (s :: acc) else List.rev (s :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* SELECT blocks                                                       *)

let at_post_accum st =
  match peek st with
  | Token.KW "POST_ACCUM" -> true
  | Token.IDENT p when String.uppercase_ascii p = "POST" && peek2 st = Token.MINUS -> true
  | _ -> false

let consume_post_accum st =
  match peek st with
  | Token.KW "POST_ACCUM" -> advance st
  | _ ->
    advance st;
    (* POST *)
    advance st;
    (* -    *)
    expect_kw st "ACCUM"

let parse_projection st =
  let e = parse_expr_prec st in
  let alias = if accept_kw st "AS" then Some (expect_ident st "output column name") else None in
  (e, alias)

let parse_select_head st =
  let parse_one_output () =
    let distinct = accept_kw st "DISTINCT" in
    let rec exprs acc =
      let p = parse_projection st in
      if accept st Token.COMMA then exprs (p :: acc) else List.rev (p :: acc)
    in
    let projections = exprs [] in
    let into = if accept_kw st "INTO" then Some (expect_ident st "table name") else None in
    (distinct, projections, into)
  in
  let first = parse_one_output () in
  match first with
  | distinct, [ (Ast.E_var alias, None) ], into when peek st = Token.KW "FROM" ->
    (* Single bare variable: classic vertex-set SELECT. *)
    Ast.Sel_vertices (distinct, alias, into)
  | _ ->
    let to_spec (distinct, projections, into) =
      match into with
      | Some table -> { Ast.o_distinct = distinct; o_exprs = projections; o_into = table }
      | None -> fail st "multi-output SELECT requires INTO on every fragment"
    in
    let rec more acc =
      (* An output followed by ';' continues the multi-output list (FROM is
         mandatory, so the head cannot end at a semicolon). *)
      if accept st Token.SEMI then more (to_spec (parse_one_output ()) :: acc) else List.rev acc
    in
    Ast.Sel_outputs (more [ to_spec first ])

let parse_order_items st =
  let rec go acc =
    let e = parse_expr_prec st in
    let desc = if accept_kw st "DESC" then true else (ignore (accept_kw st "ASC"); false) in
    if accept st Token.COMMA then go ((e, desc) :: acc) else List.rev ((e, desc) :: acc)
  in
  go []

let parse_select_block st =
  expect_kw st "SELECT";
  let target = parse_select_head st in
  expect_kw st "FROM";
  let rec conjuncts acc =
    let cs = parse_conjunct_chain st in
    if accept st Token.COMMA then conjuncts (List.rev_append cs acc)
    else List.rev (List.rev_append cs acc)
  in
  let from = conjuncts [] in
  let where = if accept_kw st "WHERE" then Some (parse_expr_prec st) else None in
  let accum = if accept_kw st "ACCUM" then parse_acc_stmts st else [] in
  let post_accum =
    if at_post_accum st then begin
      consume_post_accum st;
      parse_acc_stmts st
    end
    else []
  in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let rec go acc =
        let e = parse_expr_prec st in
        if accept st Token.COMMA then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr_prec st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      parse_order_items st
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (parse_expr_prec st) else None in
  { Ast.s_target = target;
    s_from = from;
    s_where = where;
    s_accum = accum;
    s_group_by = group_by;
    s_post_accum = post_accum;
    s_having = having;
    s_order_by = order_by;
    s_limit = limit }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)

let parse_set_source st =
  expect st Token.LBRACE "'{'";
  if accept_kw st "ANY" then begin
    expect st Token.RBRACE "'}'";
    Ast.Set_types [ "*" ]
  end
  else begin
    let rec go acc =
      let ty = expect_ident st "vertex type" in
      expect st Token.DOT "'.'";
      expect st Token.STAR "'*'";
      if accept st Token.COMMA then go (ty :: acc) else List.rev (ty :: acc)
    in
    let types = go [] in
    expect st Token.RBRACE "'}'";
    Ast.Set_types types
  end

let rec parse_stmt st =
  match peek st with
  | Token.IDENT name when is_accum_type_name name ->
    advance st;
    let spec = parse_acc_spec st name in
    let rec names acc =
      let entry =
        match peek st with
        | Token.VACC n ->
          advance st;
          (false, n)
        | Token.GACC n ->
          advance st;
          (true, n)
        | _ -> fail st "expected @name or @@name in accumulator declaration"
      in
      if accept st Token.COMMA then names (entry :: acc) else List.rev (entry :: acc)
    in
    let names = names [] in
    let init = if accept st Token.EQ then Some (parse_expr_prec st) else None in
    expect st Token.SEMI "';'";
    Ast.S_acc_decl { Ast.d_spec = spec; d_names = names; d_init = init }
  | Token.GACC name ->
    advance st;
    let is_input =
      match peek st with
      | Token.PLUSEQ -> true
      | Token.EQ -> false
      | _ -> fail st "expected = or += after global accumulator"
    in
    advance st;
    let e = parse_expr_prec st in
    expect st Token.SEMI "';'";
    Ast.S_gacc_assign (name, is_input, e)
  | Token.KW "WHILE" ->
    advance st;
    let cond = parse_expr_prec st in
    let limit = if accept_kw st "LIMIT" then Some (parse_expr_prec st) else None in
    expect_kw st "DO";
    let body = parse_stmts_until st [ "END" ] in
    expect_kw st "END";
    ignore (accept st Token.SEMI);
    Ast.S_while (cond, limit, body)
  | Token.KW "IF" ->
    advance st;
    let cond = parse_expr_prec st in
    expect_kw st "THEN";
    let then_branch = parse_stmts_until st [ "ELSE"; "END" ] in
    let else_branch = if accept_kw st "ELSE" then parse_stmts_until st [ "END" ] else [] in
    expect_kw st "END";
    ignore (accept st Token.SEMI);
    Ast.S_if (cond, then_branch, else_branch)
  | Token.KW "FOREACH" ->
    advance st;
    let var = expect_ident st "loop variable" in
    expect_kw st "IN";
    let e = parse_expr_prec st in
    expect_kw st "DO";
    let body = parse_stmts_until st [ "END" ] in
    expect_kw st "END";
    ignore (accept st Token.SEMI);
    Ast.S_foreach (var, e, body)
  | Token.KW "INSERT" ->
    advance st;
    expect_kw st "INTO";
    let ty =
      match peek st with
      | Token.IDENT name ->
        advance st;
        name
      | Token.KW "VERTEX" | Token.KW "EDGE" ->
        (* Optional VERTEX/EDGE noise word before the type name. *)
        advance st;
        expect_ident st "type name"
      | _ -> fail st "expected a vertex or edge type name"
    in
    let attrs =
      if accept st Token.LPAREN then begin
        if peek st = Token.RPAREN then begin
          advance st;
          []
        end
        else begin
          let rec go acc =
            let a = expect_ident st "attribute name" in
            if accept st Token.COMMA then go (a :: acc) else List.rev (a :: acc)
          in
          let names = go [] in
          expect st Token.RPAREN "')'";
          names
        end
      end
      else []
    in
    expect_kw st "VALUES";
    expect st Token.LPAREN "'('";
    let values = parse_args st in
    expect st Token.RPAREN "')'";
    expect st Token.SEMI "';'";
    Ast.S_insert (ty, attrs, values)
  | Token.KW "PRINT" ->
    advance st;
    let rec items acc =
      let item =
        match peek st, peek2 st with
        | Token.IDENT setname, Token.LBRACKET ->
          advance st;
          advance st;
          let rec exprs acc =
            let e = parse_expr_prec st in
            if accept st Token.COMMA then exprs (e :: acc) else List.rev (e :: acc)
          in
          let es = exprs [] in
          expect st Token.RBRACKET "']'";
          Ast.P_proj (setname, es)
        | _ ->
          let e = parse_expr_prec st in
          let alias = if accept_kw st "AS" then Some (expect_ident st "name") else None in
          Ast.P_expr (e, alias)
      in
      if accept st Token.COMMA then items (item :: acc) else List.rev (item :: acc)
    in
    let items = items [] in
    expect st Token.SEMI "';'";
    Ast.S_print items
  | Token.KW "RETURN" ->
    advance st;
    let e = parse_expr_prec st in
    expect st Token.SEMI "';'";
    Ast.S_return e
  | Token.KW "SELECT" ->
    let block = parse_select_block st in
    expect st Token.SEMI "';'";
    Ast.S_select (None, block)
  | Token.IDENT var when peek2 st = Token.EQ ->
    advance st;
    advance st;
    (match peek st with
     | Token.LBRACE ->
       let src = parse_set_source st in
       expect st Token.SEMI "';'";
       Ast.S_set_assign (var, src)
     | Token.KW "SELECT" ->
       let block = parse_select_block st in
       expect st Token.SEMI "';'";
       Ast.S_select (Some var, block)
     | Token.IDENT lhs
       when (match peek2 st with
             | Token.KW ("UNION" | "INTERSECT" | "MINUS") -> true
             | _ -> false) ->
       advance st;
       let op =
         match peek st with
         | Token.KW "UNION" -> Ast.Op_union
         | Token.KW "INTERSECT" -> Ast.Op_intersect
         | _ -> Ast.Op_minus
       in
       advance st;
       let rhs = expect_ident st "vertex set name" in
       expect st Token.SEMI "';'";
       Ast.S_set_assign (var, Ast.Set_op (op, lhs, rhs))
     | _ ->
       let e = parse_expr_prec st in
       expect st Token.SEMI "';'";
       Ast.S_let (var, e))
  | _ -> fail st "expected a statement"

and parse_stmts_until st enders =
  let rec go acc =
    match peek st with
    | Token.KW k when List.mem k enders -> List.rev acc
    | Token.RBRACE | Token.EOF -> List.rev acc
    | _ -> go (parse_stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Query headers and programs                                          *)

let parse_param st =
  let ty =
    match peek st with
    | Token.KW "INT" | Token.KW "UINT" ->
      advance st;
      Ast.Ty_int
    | Token.KW "FLOAT" | Token.KW "DOUBLE" ->
      advance st;
      Ast.Ty_float
    | Token.KW "STRING" ->
      advance st;
      Ast.Ty_string
    | Token.KW "BOOL" ->
      advance st;
      Ast.Ty_bool
    | Token.KW "DATETIME" ->
      advance st;
      Ast.Ty_datetime
    | Token.KW "VERTEX" ->
      advance st;
      if accept st Token.LT then begin
        let ty = expect_ident st "vertex type" in
        expect st Token.GT "'>'";
        Ast.Ty_vertex (Some ty)
      end
      else Ast.Ty_vertex None
    | _ -> fail st "expected a parameter type"
  in
  let name = expect_ident st "parameter name" in
  { Ast.p_name = name; p_ty = ty }

let parse_query_def st =
  expect_kw st "CREATE";
  expect_kw st "QUERY";
  let name = expect_ident st "query name" in
  expect st Token.LPAREN "'('";
  let params =
    if peek st = Token.RPAREN then []
    else begin
      let rec go acc =
        let p = parse_param st in
        if accept st Token.COMMA then go (p :: acc) else List.rev (p :: acc)
      in
      go []
    end
  in
  expect st Token.RPAREN "')'";
  let graph =
    if accept_kw st "FOR" then begin
      expect_kw st "GRAPH";
      Some (expect_ident st "graph name")
    end
    else None
  in
  let semantics =
    if accept_kw st "SEMANTICS" then begin
      match peek st with
      | Token.STRING s ->
        advance st;
        (match Pathsem.Semantics.of_string s with
         | Some sem -> Some sem
         | None -> fail st (Printf.sprintf "unknown semantics %S" s))
      | _ -> fail st "SEMANTICS expects a string literal"
    end
    else None
  in
  expect st Token.LBRACE "'{'";
  let body = parse_stmts_until st [] in
  expect st Token.RBRACE "'}'";
  { Ast.q_name = name; q_params = params; q_graph = graph; q_semantics = semantics; q_body = body }

let make_state src = { toks = Array.of_list (Lexer.tokenize src); pos = 0 }

let wrap_lex f src = try f (make_state src) with Lexer.Error msg -> raise (Error msg)

let parse_program src =
  wrap_lex
    (fun st ->
      let rec go acc =
        match peek st with
        | Token.EOF -> List.rev acc
        | _ -> go (parse_query_def st :: acc)
      in
      go [])
    src

let parse_query src =
  match parse_program src with
  | [ q ] -> q
  | qs -> raise (Error (Printf.sprintf "expected exactly one query, found %d" (List.length qs)))

let parse_block src =
  wrap_lex
    (fun st ->
      let stmts = parse_stmts_until st [] in
      (match peek st with
       | Token.EOF -> ()
       | _ -> fail st "trailing input after statements");
      stmts)
    src

let parse_source src =
  match parse_query src with
  | q -> `Query q
  | exception Error _ -> `Block (parse_block src)

let parse_expr src =
  wrap_lex
    (fun st ->
      let e = parse_expr_prec st in
      (match peek st with
       | Token.EOF -> ()
       | _ -> fail st "trailing input after expression");
      e)
    src
