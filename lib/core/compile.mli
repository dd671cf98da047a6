(** Install-time query compilation: closure plans over the {!Eval} runtime.

    TigerGraph's install-once/invoke-many workflow exists so per-invoke
    work can be paid once at install time.  {!compile} lowers an analyzed
    AST to a flat plan of OCaml closures: statement sequences, WHILE loops
    and ACCUM/POST-ACCUM row kernels become staged functions with every
    name resolved to a slot, the single-step DARPE-product scan specialized
    to its CSR segment symbols ({!Darpe.Dfa.sym} resolution done against
    the schema at compile time when one is supplied), binding tables
    unboxed over flat [int] arrays, and {!Interrupt} ticks emitted as
    generated checkpoints at the same program points the interpreter
    checks.  Every statement form is lowered, GROUP BY, PRINT and INSERT
    included: compiled plans are the only executor.

    The interpreter is the differential-testing oracle: for every query,
    [run (compile q) g ~params] must produce a result identical to
    [Eval.run_query g ~params q] — same tables in the same row order, same
    vertex sets, same PRINT output, same accumulator commits, and the same
    governor cancellation behavior under an {!Interrupt} budget.  See
    docs/COMPILER.md. *)

type plan

(** ORDER BY … LIMIT k as a streaming bounded selection, shared by the
    vertex-set, table and GROUP BY outputs of a compiled SELECT. *)
module Topk : sig
  type 'a t

  val create : desc:bool array -> int -> 'a t
  (** [create ~desc k] selects the first [max 0 k] items; [desc.(i)] says
      whether ORDER BY key [i] sorts descending ([[||]]: no ORDER BY). *)

  val offer : 'a t -> Pgraph.Value.t array -> 'a -> unit
  (** [offer t keys x] streams the next item with its ORDER BY key
      values (in {!Pgraph.Value.compare} order, [desc] applied). *)

  val items : 'a t -> 'a list
  (** The selected items: exactly the first [k] of the stable sort of
      every offered item by its keys (ties in arrival order). *)

  val held : 'a t -> int
  (** Item slots allocated so far — never more than [k]. *)
end

val compile : ?schema:Pgraph.Schema.t -> Ast.query -> plan
(** Analyzes ({!Analyze.check_query}) and lowers the query.  Raises
    {!Eval.Runtime_error} when analysis fails.  When [schema] is given,
    single-step segment symbols and attribute slots are resolved
    statically; plans still run correctly against graphs with a different
    schema (they are then resolved per execution). *)

val compile_block : ?schema:Pgraph.Schema.t -> Ast.stmt list -> plan
(** Lowers a bare statement block ("interpreted query" sources). *)

val compile_source :
  ?schema:Pgraph.Schema.t -> params:(string * Pgraph.Value.t) list ->
  [ `Query of Ast.query | `Block of Ast.stmt list ] -> plan
(** {!compile} or {!compile_block} on a {!Parser.parse_source} result; a
    query's [params] are checked first, so the first error raised is the
    interpreter's. *)

val check :
  ?schema:Pgraph.Schema.t -> [ `Query of Ast.query | `Block of Ast.stmt list ] ->
  Analyze.info * plan option
(** The analysis, and the plan when analysis accepts the source ([None]
    when [errors] is non-empty).  Raises nothing. *)

val run :
  plan -> ?semantics:Pathsem.Semantics.t ->
  params:(string * Pgraph.Value.t) list -> Pgraph.Graph.t -> Eval.result
(** Executes the plan.  Parameter checking, semantics resolution and error
    wrapping match {!Eval.run_query} exactly. *)

val run_source :
  Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  ?params:(string * Pgraph.Value.t) list -> string -> Eval.result
(** Parses the source ({!Parser.parse_source}), compiles it against the
    graph's schema and runs it.  Raises what {!Eval.run_source} raises on
    the same input. *)

val analysis : plan -> Analyze.info
(** The {!Analyze} result the plan was compiled from. *)

val compile_ms : plan -> float
(** Wall-clock milliseconds spent lowering (the install-time cost). *)

val plan_ops : plan -> int
(** Total statement operations in the plan, nested ones included. *)

val describe : ?annot:(Ast.select_block -> string list) -> plan -> string
(** Deterministic rendering of the op tree — the plan EXPLAIN prints.  Each
    [select] op lists its pattern kernels (adjacency [step] with its
    segment-symbol resolution point, constant-folded [identity], or
    [dfa-product] with its path-length class), every pushed WHERE predicate
    under its alias, the residual predicate, the accumulator targets of
    ACCUM and POST_ACCUM, GROUP BY keys and its outputs.  [annot] appends
    lines under each select op (EXPLAIN ANALYZE's runtime stats). *)
