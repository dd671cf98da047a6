(** Query plans, explained.

    Renders how the evaluator will treat a query: per-pattern DARPE
    classification (single step → adjacency scan; bounded/unbounded Kleene →
    graph×DFA product under the counting or enumeration engine), which WHERE
    conjuncts push into the pattern match as seed filters, which accumulators
    each clause touches, and the tractable-class verdict of Theorem 7.1 —
    the reasoning §7 walks through, per query. *)

val query : ?annot:(Ast.select_block -> string list) -> Ast.query -> string
val block : ?annot:(Ast.select_block -> string list) -> Ast.stmt list -> string
(** Raises nothing; analysis errors are embedded in the report.  [annot]
    supplies extra per-SELECT-block lines (EXPLAIN ANALYZE hangs runtime
    stats off the static plan through it). *)

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
(** Parses [src] like {!Compile.run_source}, executes its compiled plan
    with metrics and tracing enabled, and joins the recorded spans back onto the static plan:
    each SELECT block is annotated with executions, binding-table sizes,
    path-engine stats (sources, bindings, multiplicity totals, BFS frontier
    sizes per hop), and accumulator merge/assign counts, followed by a
    whole-run telemetry footer.  [~timings:false] omits wall-clock values so
    the report is deterministic (golden tests).  Metrics are reset on entry;
    the previous enabled/disabled state of the registry is restored on exit.
    Raises whatever {!Compile.run_source} raises. *)

val strip_explain : string -> [ `Plain | `Explain | `Analyze ] * string
(** Recognizes a leading [EXPLAIN \[ANALYZE\]] keyword (case-insensitive)
    and returns the mode together with the remaining source text. *)
