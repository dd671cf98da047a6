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
    checks.

    Constructs off the hot path — [PRINT], [INSERT], and [GROUP BY]
    SELECTs — stay interpreted: the plan calls {!Eval.exec_stmt} on the
    shared execution context for them, so compiled and interpreted
    fragments compose within one run.

    The interpreter remains the differential-testing oracle: for every
    query, [run (compile q) g ~params] must produce a result identical to
    [Eval.run_query g ~params q] — same tables in the same row order, same
    vertex sets, same PRINT output, same accumulator commits, and the same
    governor cancellation behavior under an {!Interrupt} budget.  See
    docs/COMPILER.md. *)

type plan

val compile : ?schema:Pgraph.Schema.t -> Ast.query -> plan
(** Analyzes ({!Analyze.check_query}) and lowers the query.  Raises
    {!Eval.Runtime_error} when analysis fails.  When [schema] is given,
    single-step segment symbols are resolved statically; plans still run
    correctly against graphs with a different schema (symbols are then
    resolved per execution). *)

val compile_block : ?schema:Pgraph.Schema.t -> Ast.stmt list -> plan
(** Lowers a bare statement block ("interpreted query" sources). *)

val run :
  plan -> ?semantics:Pathsem.Semantics.t ->
  params:(string * Pgraph.Value.t) list -> Pgraph.Graph.t -> Eval.result
(** Executes the plan.  Parameter checking, semantics resolution and error
    wrapping match {!Eval.run_query} exactly. *)

val compile_ms : plan -> float
(** Wall-clock milliseconds spent lowering (the install-time cost). *)

val plan_ops : plan -> int
(** Total statement operations in the plan, nested ones included. *)

val compiled_ops : plan -> int
(** Operations lowered to closures (the rest run via {!Eval.exec_stmt}). *)

val describe : plan -> string
(** Deterministic plan-shape rendering (op tree, per-SELECT kernel
    summary, compiled/interpreted marking) — the [EXPLAIN] section. *)
