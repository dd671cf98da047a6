(** The GSQL interpreter.

    Implements the paper's declarative semantics (§4): the FROM clause
    produces a {e compressed} binding table — one row per distinct binding of
    the pattern variables, carrying the count of witnessing legal paths as a
    multiplicity (Theorem 7.1) — WHERE filters it, ACCUM executes once per
    row under snapshot semantics with multiplicity-aware accumulator inputs,
    POST_ACCUM executes once per distinct vertex, and the (multi-output)
    SELECT clause projects result tables.

    The path-legality semantics defaults to all-shortest-paths and can be
    overridden per query ([SEMANTICS "non-repeated-edge"] in the header) or
    per call ([~semantics]) — the paper's benchmarks exercise exactly this
    switch. *)

exception Runtime_error of string

(** A runtime binding: scalar value, vertex set, or result table. *)
type rt_value =
  | R_scalar of Pgraph.Value.t
  | R_vset of int array
  | R_table of Table.t

type result = {
  r_tables : (string * Table.t) list;  (** INTO tables, in creation order *)
  r_printed : string;                  (** rendered PRINT output *)
  r_return : rt_value option;          (** RETURN payload *)
  r_vsets : (string * int array) list; (** final vertex-set variables *)
}

val run_query :
  Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  params:(string * Pgraph.Value.t) list -> Ast.query -> result
(** Analyzes ({!Analyze.check_query}) and executes the query.  Raises
    {!Runtime_error} on analysis errors, missing/ill-typed parameters, or
    execution failures. *)

val run_block :
  Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  ?params:(string * Pgraph.Value.t) list -> Ast.stmt list -> result
(** Executes a bare statement block ("interpreted query"). *)

val run_source :
  Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  ?params:(string * Pgraph.Value.t) list -> string -> result
(** Parses a single [CREATE QUERY] definition (or, failing that, a bare
    statement block) and runs it. *)

val table : result -> string -> Table.t
(** Looks up an INTO table by name; raises {!Runtime_error} when absent. *)

val return_value : result -> Pgraph.Value.t
(** The RETURN payload as a value ([Vlist] of vertices for a set, flattened
    table rows for a table).  Raises {!Runtime_error} when the query did not
    return. *)

(** {1 Internal runtime surface}

    Everything below is the interpreter's own machinery, exposed so that
    {!Compile} can stage closures over the {e same} runtime: compiled plans
    share the execution context, fall back to {!exec_stmt} for cold
    constructs, and reuse the seed-set/predicate helpers verbatim so the
    two paths cannot drift semantically.  Not a stable API — nothing
    outside [Gsql] should touch it. *)

type ctx = {
  graph : Pgraph.Graph.t;
  store : Accum.Store.t;
  semantics : Pathsem.Semantics.t;
  vars : (string, rt_value) Hashtbl.t;
  mutable tables : (string * Table.t) list;  (** reverse creation order *)
  print_buf : Buffer.t;
  mutable returned : rt_value option;
  primed : string list;  (** accumulator families used with ['] *)
}

exception Returned
(** Raised by [RETURN]; {!run_query} catches it, a compiled plan must too. *)

type overlay = (Accum.Store.target, Pgraph.Value.t) Hashtbl.t
(** Within-execution assignment visibility for ACCUM snapshot semantics. *)

type env = {
  e_ctx : ctx;
  e_lookup : string -> Pgraph.Value.t option;
  e_overlay : overlay option;
  e_agg : (string -> Ast.expr list -> Pgraph.Value.t) option;
}

val error : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Runtime_error} with a formatted message. *)

val eval_expr : env -> Ast.expr -> Pgraph.Value.t

(** A builtin function resolved for one call site. *)
type builtin =
  | F1 of (Pgraph.Value.t -> Pgraph.Value.t)
  | F2 of (Pgraph.Value.t -> Pgraph.Value.t -> Pgraph.Value.t)
  | Fn of (Pgraph.Value.t list -> Pgraph.Value.t)

val builtin : string -> int -> builtin
(** [builtin name arity] dispatches once on the (case-insensitive) name
    and argument count.  A wrong arity or unknown name yields an [Fn] that
    raises {!Runtime_error} when applied. *)

val apply_builtin : builtin -> Pgraph.Value.t list -> Pgraph.Value.t
(** Applies a resolved builtin to as many arguments as it was resolved
    for. *)

val vertex_attr : Pgraph.Graph.t -> int -> string -> Pgraph.Value.t
val edge_attr : Pgraph.Graph.t -> int -> string -> Pgraph.Value.t
(** Attribute reads by name; raise {!Runtime_error} when the element's
    type has no such attribute. *)

val ctx_var_value : ctx -> string -> Pgraph.Value.t option
val plain_env : ctx -> env
val env_with : ctx -> (string * Pgraph.Value.t) list -> env

val endpoint_alias : Ast.endpoint -> string
val endpoint_seed : ctx -> Ast.endpoint -> int array
val endpoint_pred : ctx -> Ast.endpoint -> int -> bool
val alias_constraint : ctx -> string -> int option
(** A vertex-valued parameter or prior binding pinning the alias. *)

val alias_slot : string array -> string -> int
(** Index of [name] in the alias array, [-1] when absent. *)

val collect_aliases : Ast.conjunct list -> string array * string array
(** Vertex and edge alias slots of a FROM clause, in first-mention order. *)

val and_conjuncts : Ast.expr -> Ast.expr list
(** Splits a top-level AND tree (WHERE push-down decomposition). *)

val expr_vertex_aliases_only : string array -> Ast.expr -> string list option
(** [Some names] when the expression mentions pattern aliases only through
    the returned vertex aliases; [None] = not pushable. *)

val expr_aliases_of : string array -> Ast.expr -> string list
(** Aliases from the given slot array that the expression mentions. *)

val exec_stmt : ctx -> Ast.stmt -> unit
(** One interpreted statement (ticks the {!Interrupt} governor itself);
    compiled plans call this for constructs they leave interpreted. *)

val make_ctx :
  Pgraph.Graph.t -> Pathsem.Semantics.t -> (string * Pgraph.Value.t) list ->
  string list -> ctx

val finish : ctx -> result

val query_semantics : ?semantics:Pathsem.Semantics.t -> Ast.query -> Pathsem.Semantics.t
(** Per-call override, else the query's [SEMANTICS] pragma, else
    all-shortest. *)

val check_params : Ast.query -> (string * Pgraph.Value.t) list -> unit
(** Raises {!Runtime_error} on missing or ill-typed parameters. *)
