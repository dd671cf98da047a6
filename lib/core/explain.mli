(** Query plans, explained.

    EXPLAIN prints the plan {!Compile} builds — the one that runs — and
    nothing else: the query header (name, parameters, path semantics), the
    op tree of {!Compile.describe} (per-pattern kernel: adjacency step,
    constant-folded identity, or graph×DFA product with its path-length
    class; pushed and residual WHERE predicates; accumulator targets), then
    the {!Analyze} verdict of the same compile: analysis errors, warnings,
    and the tractable-class verdict of Theorem 7.1.  A source that fails
    analysis has no plan; the report shows the errors instead. *)

val query : ?schema:Pgraph.Schema.t -> Ast.query -> string
val block : ?schema:Pgraph.Schema.t -> Ast.stmt list -> string
(** Raises nothing; analysis errors are embedded in the report.  With
    [schema], the plan is the one compiled against it — what
    {!Compile.run_source} and the catalog install run ([[syms@install]]
    steps); without, segment symbols resolve per invoke. *)

(** {1 EXPLAIN ANALYZE} *)

type analysis = {
  an_report : string;       (** annotated plan + execution telemetry *)
  an_result : Eval.result;  (** the real execution result *)
  an_trace : Obs.Json.t;    (** span-tree document (trace schema) *)
  an_metrics : Obs.Json.t;  (** {!Obs.Metrics.dump} snapshot of the run *)
}

val analyze_source :
  Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  ?params:(string * Pgraph.Value.t) list -> ?timings:bool -> string -> analysis
(** Parses [src] and compiles it against the graph's schema like
    {!Compile.run_source}, executes that plan with metrics and tracing
    enabled, and reports the same plan with the recorded spans joined onto
    its select ops: executions, binding-table sizes, path-engine stats
    (sources, bindings, multiplicity totals, BFS frontier sizes per hop),
    and accumulator merge/assign counts, followed by a whole-run telemetry
    footer.  [~timings:false] omits wall-clock values so the report is
    deterministic (golden tests).  Metrics are reset on entry; the previous
    enabled/disabled state of the registry is restored on exit.  Raises
    whatever {!Compile.run_source} raises. *)

val strip_explain : string -> [ `Plain | `Explain | `Analyze ] * string
(** Recognizes a leading [EXPLAIN \[ANALYZE\]] keyword (case-insensitive)
    and returns the mode together with the remaining source text. *)
