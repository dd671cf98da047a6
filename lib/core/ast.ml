(** Abstract syntax of the GSQL fragment (paper §§2–5).

    The fragment covers everything the paper's listings use: accumulator
    declarations (global and vertex-attached, with initializers), vertex-set
    assignments, SELECT blocks with FROM patterns over DARPEs, WHERE, ACCUM,
    POST_ACCUM, multi-output SELECT ... INTO, HAVING / ORDER BY / LIMIT,
    control flow (WHILE ... LIMIT, IF, FOREACH), PRINT and RETURN, plus a
    [SEMANTICS] pragma for selecting the path-legality flavor per query
    (the per-query choice §6.1 argues for). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type expr =
  | E_int of int
  | E_float of float
  | E_string of string
  | E_bool of bool
  | E_null
  | E_var of string                       (* alias / parameter / set variable *)
  | E_attr of string * string             (* v.attr *)
  | E_vacc of string * string             (* v.@acc *)
  | E_vacc_prev of string * string        (* v.@acc' *)
  | E_gacc of string                      (* @@acc *)
  | E_gacc_prev of string                 (* @@acc' *)
  | E_binop of binop * expr * expr
  | E_unop of unop * expr
  | E_call of string * expr list          (* log(e), abs(e), datetime(y,m,d) *)
  | E_method of expr * string * expr list (* v.outdegree(), @@s.size() *)
  | E_tuple of expr list                  (* (e1, e2, ...) *)
  | E_arrow of expr list * expr list      (* (k1,k2 -> a1,a2): Map/GroupBy input *)

(** Accumulator operation target inside ACCUM / POST_ACCUM. *)
type acc_target =
  | T_global of string           (* @@name *)
  | T_vertex of string * string  (* alias.@name *)

(** Statements allowed inside ACCUM / POST_ACCUM clauses. *)
type acc_stmt =
  | A_input of acc_target * expr   (* target += e *)
  | A_assign of acc_target * expr  (* target = e *)
  | A_local of string * expr       (* [type] x = e — local to one acc-execution *)
  | A_if of expr * acc_stmt list * acc_stmt list
  | A_attr_assign of string * string * expr  (* v.attr = e — write a vertex attribute *)

type output_spec = {
  o_distinct : bool;
  o_exprs : (expr * string option) list;  (* projection, optional AS name *)
  o_into : string;                        (* INTO table name *)
}

type select_target =
  | Sel_vertices of bool * string * string option
      (* SELECT [DISTINCT] alias [INTO name] *)
  | Sel_outputs of output_spec list       (* multi-output SELECT (paper Ex. 5) *)

(* One side of a pattern conjunct: a vertex-type name, set variable or
   vertex-valued parameter, optionally aliased ("Person:p"). *)
type endpoint = {
  ep_set : string;
  ep_alias : string option;
}

(* "src -(darpe[:edge_alias])- dst".  The edge alias is only legal when the
   DARPE is a single step (tractable class: no variables under Kleene
   stars). *)
type conjunct = {
  c_src : endpoint;
  c_darpe : Darpe.Ast.t;
  c_edge_alias : string option;
  c_dst : endpoint;
}

type select_block = {
  s_target : select_target;
  s_from : conjunct list;
  s_where : expr option;
  s_accum : acc_stmt list;
  s_post_accum : acc_stmt list;
  s_group_by : expr list;
      (* SQL-borrowed GROUP BY (§4.2): groups the binding table for
         aggregate projections (count/sum/avg/min/max) in multi-output
         SELECTs *)
  s_having : expr option;
  s_order_by : (expr * bool) list;  (* expr, descending? *)
  s_limit : expr option;
}

type acc_decl = {
  d_spec : Accum.Spec.t;
  d_names : (bool * string) list;  (* is_global?, name (no @ prefix) *)
  d_init : expr option;
}

type set_operator = Op_union | Op_intersect | Op_minus

type set_source =
  | Set_types of string list  (* {T1.*, T2.*} or {ANY} as ["*"] *)
  | Set_copy of string        (* X = Y *)
  | Set_op of set_operator * string * string
      (* X = Y UNION|INTERSECT|MINUS Z — GSQL's vertex-set algebra *)

type stmt =
  | S_acc_decl of acc_decl
  | S_set_assign of string * set_source
  | S_select of string option * select_block  (* optional "X =" binding *)
  | S_gacc_assign of string * bool * expr     (* @@x = e (false) / @@x += e (true) *)
  | S_let of string * expr                    (* scalar local binding *)
  | S_while of expr * expr option * stmt list (* cond, LIMIT n, body *)
  | S_if of expr * stmt list * stmt list
  | S_foreach of string * expr * stmt list
  | S_print of print_item list
  | S_return of expr
  | S_insert of string * string list * expr list
      (* INSERT INTO TypeName (attr, ...) VALUES (e, ...); for edge types the
         first two VALUES are the source and target vertices *)

and print_item =
  | P_expr of expr * string option
  | P_proj of string * expr list  (* R[e1, e2]: project each member of set R *)

type param_ty =
  | Ty_int
  | Ty_float
  | Ty_string
  | Ty_bool
  | Ty_datetime
  | Ty_vertex of string option  (* vertex<Person> *)

type param = {
  p_name : string;
  p_ty : param_ty;
}

type query = {
  q_name : string;
  q_params : param list;
  q_graph : string option;
  q_semantics : Pathsem.Semantics.t option;
      (* SEMANTICS "non-repeated-edge" pragma; None = engine default
         (all-shortest-paths) *)
  q_body : stmt list;
}

type program = query list

(* ------------------------------------------------------------------ *)
(* Pretty-printing (used by error messages and tests).                 *)

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "AND" | Or -> "OR"

(* Float literals must re-lex: always a fraction dot, and a mantissa dot
   before any exponent ("1e+06" is not lexable, "1.0e+06" is). *)
let float_literal f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' then s
  else
    match String.index_opt s 'e' with
    | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
    | None -> s ^ ".0"

let rec expr_to_string = function
  | E_int n -> string_of_int n
  | E_float f -> float_literal f
  | E_string s -> Printf.sprintf "%S" s
  | E_bool b -> string_of_bool b
  | E_null -> "NULL"
  | E_var v -> v
  | E_attr (v, a) -> v ^ "." ^ a
  | E_vacc (v, a) -> v ^ ".@" ^ a
  | E_vacc_prev (v, a) -> v ^ ".@" ^ a ^ "'"
  | E_gacc a -> "@@" ^ a
  | E_gacc_prev a -> "@@" ^ a ^ "'"
  | E_binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op) (expr_to_string b)
  | E_unop (Neg, e) -> "(-" ^ expr_to_string e ^ ")"
  | E_unop (Not, e) -> "(NOT " ^ expr_to_string e ^ ")"
  | E_call (f, args) -> f ^ "(" ^ String.concat ", " (List.map expr_to_string args) ^ ")"
  | E_method (e, m, args) ->
    Printf.sprintf "%s.%s(%s)" (expr_to_string e) m (String.concat ", " (List.map expr_to_string args))
  | E_tuple es -> "(" ^ String.concat ", " (List.map expr_to_string es) ^ ")"
  | E_arrow (ks, vs) ->
    Printf.sprintf "(%s -> %s)"
      (String.concat ", " (List.map expr_to_string ks))
      (String.concat ", " (List.map expr_to_string vs))

let target_to_string = function
  | T_global g -> "@@" ^ g
  | T_vertex (v, a) -> v ^ ".@" ^ a

let endpoint_alias ep = match ep.ep_alias with Some a -> a | None -> ep.ep_set

(* Vertex and edge alias slots of a FROM clause, in first-mention order. *)
let collect_aliases (from : conjunct list) =
  let v_aliases = ref [] and e_aliases = ref [] in
  let add l a = if not (List.mem a !l) then l := a :: !l in
  List.iter
    (fun c ->
      add v_aliases (endpoint_alias c.c_src);
      add v_aliases (endpoint_alias c.c_dst);
      match c.c_edge_alias with Some a -> add e_aliases a | None -> ())
    from;
  (Array.of_list (List.rev !v_aliases), Array.of_list (List.rev !e_aliases))

let endpoint_to_string ep =
  match ep.ep_alias with Some a -> ep.ep_set ^ ":" ^ a | None -> ep.ep_set

let conjunct_to_string c =
  Printf.sprintf "%s -(%s%s)- %s" (endpoint_to_string c.c_src)
    (Darpe.Ast.to_string c.c_darpe)
    (match c.c_edge_alias with Some a -> ":" ^ a | None -> "")
    (endpoint_to_string c.c_dst)

(* A stable identity for a SELECT block.  The evaluator stamps it on every
   "select" span and EXPLAIN ANALYZE joins recorded spans back to plan nodes
   through it, so the same static block executed across WHILE iterations
   aggregates into one plan annotation.  The FROM clause alone is not enough
   (two blocks over the same pattern are common — e.g. an iterate-then-rank
   pair), so the projection target and the filtering/ordering clauses are
   folded in as well. *)
let select_signature (b : select_block) =
  let target =
    match b.s_target with
    | Sel_vertices (distinct, alias, into) ->
      (if distinct then "DISTINCT " else "")
      ^ alias
      ^ (match into with Some n -> " INTO " ^ n | None -> "")
    | Sel_outputs outs -> String.concat "; " (List.map (fun o -> "INTO " ^ o.o_into) outs)
  in
  let opt name = function None -> [] | Some e -> [ name ^ " " ^ expr_to_string e ] in
  String.concat " | "
    ([ target; String.concat ", " (List.map conjunct_to_string b.s_from) ]
     @ opt "WHERE" b.s_where
     @ (if b.s_accum = [] then [] else [ Printf.sprintf "ACCUM[%d]" (List.length b.s_accum) ])
     @ (if b.s_post_accum = [] then []
        else [ Printf.sprintf "POST_ACCUM[%d]" (List.length b.s_post_accum) ])
     @ (if b.s_order_by = [] then []
        else
          [ "ORDER BY "
            ^ String.concat ", "
                (List.map (fun (e, d) -> expr_to_string e ^ if d then " DESC" else "") b.s_order_by) ])
     @ opt "LIMIT" b.s_limit)

let pp_expr fmt e = Format.pp_print_string fmt (expr_to_string e)
