(** The GSQL interpreter: the reference semantics that compiled plans
    ({!Compile}, the only production executor) are checked against.

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
    share the execution context and call the statement, output and
    aggregate helpers below instead of keeping copies of them, so the two
    engines cannot drift semantically.  Not a stable API — nothing outside
    [Gsql] should touch it. *)

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
  e_agg : (string -> Ast.expr -> Pgraph.Value.t) option;
      (** aggregate-call hook (name, argument), set inside GROUP BY groups *)
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

val endpoint_seed : ctx -> Ast.endpoint -> int array
val endpoint_pred : ctx -> Ast.endpoint -> int -> bool
val alias_constraint : ctx -> string -> int option
(** A vertex-valued parameter or prior binding pinning the alias. *)

val alias_slot : string array -> string -> int
(** Index of [name] in the alias array, [-1] when absent. *)

val pushdown :
  Ast.conjunct list -> Ast.expr option -> (string * Ast.expr list) list * Ast.expr option
(** The WHERE push-down partition: the top-level AND conjuncts that
    reference exactly one vertex alias of the FROM clause (and no edge
    alias), grouped by that alias, and the rest folded back into one
    residual row filter.  Each alias's predicates come in evaluation order
    (last conjunct first); both executors test them in that order. *)

(** {2 Shared by both engines} *)

val is_aggregate_name : string -> bool
(** [count], [sum], [avg], [min], [max] (case-insensitive): a one-argument
    call to one of these inside a GROUP BY group is an aggregate. *)

val aggregate :
  string -> Ast.expr -> mult:('m -> Pgraph.Bignat.t) -> value:('m -> Pgraph.Value.t) ->
  'm list -> Pgraph.Value.t
(** [aggregate name arg ~mult ~value members] folds a group's member rows,
    each weighted by its path multiplicity [mult m].  [count( * )] counts
    every row; the other forms skip rows whose argument [value m] is NULL,
    and [sum]/[avg]/[min]/[max] return NULL when no value is left. *)

val group_by_key : ('a -> Pgraph.Value.t) -> 'a list -> 'a list list
(** Groups in first-appearance order of their key, members in input
    order. *)

val post_accum_groups :
  string array -> Ast.acc_stmt list -> (string option * Ast.acc_stmt list) list
(** POST_ACCUM statements grouped into executions: runs of consecutive
    statements over the same driving vertex alias ([None] = run once),
    given the block's vertex aliases. *)

val expr_aliases : string array -> string array -> Ast.expr -> string list
(** The pattern aliases (from the vertex and edge alias slot arrays) an
    output expression mentions. *)

val column_name : Ast.expr * string option -> string
(** An output column's name: its alias, else the expression's text. *)

val bind_output : ctx -> Ast.output_spec -> Table.t -> unit
(** Applies the output's DISTINCT and binds the table under its INTO
    name. *)

val declare : ctx -> Ast.acc_decl -> Pgraph.Value.t option -> unit
(** An accumulator declaration, with its evaluated initial value. *)

val binding_of : ctx -> Ast.expr -> (unit -> Pgraph.Value.t) -> rt_value
(** What [X = e] and [RETURN e] bind: a variable keeps its kind, anything
    else is the scalar [eval ()]. *)

val foreach_items : ctx -> Ast.expr -> (unit -> Pgraph.Value.t) -> Pgraph.Value.t list
(** What [FOREACH x IN e] iterates. *)

val set_assign : ctx -> string -> Ast.set_source -> unit
(** Vertex-set assignment ([X = {T.*}], copies, UNION/INTERSECT/MINUS). *)

val print_value : ctx -> string -> Pgraph.Value.t -> unit
val print_binding : ctx -> string -> rt_value -> unit
(** [PRINT] of a scalar, or of a variable of any kind, under a label. *)

val projected_set : ctx -> string -> int array
(** The vertex set a [PRINT S\[...\]] projects; raises when [S] is not
    one. *)

val print_projection : ctx -> string -> Ast.expr list -> Pgraph.Value.t array list -> unit
(** Records and prints the [PRINT S\[e1, ...\]] table given its rows. *)

val insert : ctx -> string -> string list -> Pgraph.Value.t list -> unit
(** [INSERT INTO ty (attrs) VALUES (values)] with the values evaluated:
    vertex or edge dispatch on [ty], arity and type errors. *)

val make_ctx :
  Pgraph.Graph.t -> Pathsem.Semantics.t -> (string * Pgraph.Value.t) list ->
  string list -> ctx

val finish : ctx -> result

val query_semantics : ?semantics:Pathsem.Semantics.t -> Ast.query -> Pathsem.Semantics.t
(** Per-call override, else the query's [SEMANTICS] pragma, else
    all-shortest. *)

val check_params : Ast.query -> (string * Pgraph.Value.t) list -> unit
(** Raises {!Runtime_error} on missing or ill-typed parameters. *)
