(** PageRank in the accumulator style (paper Example 7 / Figure 4).

    Two implementations of the same algorithm:
    - {!run} drives the accumulator {e library} directly (vertex-attached
      [SumAccum] for received score, global [MaxAccum] for the convergence
      test, snapshot phases per iteration) — the shape a host-language
      application built on this library would use;
    - {!run_gsql} executes the paper's Figure 4 query text as a compiled
      GSQL plan ({!Gsql.Compile.run_source}).

    Both follow the query's exact update rule, so they agree to floating
    point rounding — a property the test suite checks. *)

type options = {
  damping : float;       (** default 0.85 *)
  max_iterations : int;  (** default 20 *)
  max_change : float;    (** early-exit threshold on the max score delta *)
}

val default_options : options

val run :
  Pgraph.Graph.t -> ?options:options -> ?vertex_type:string ->
  ?edge_type:string -> unit -> float array
(** [run g ()] returns the score per vertex id.  [vertex_type]/[edge_type]
    restrict the traversal ([None] = every vertex / every directed edge). *)

val run_gsql :
  Pgraph.Graph.t -> ?options:options -> vertex_type:string ->
  edge_type:string -> unit -> float array
(** Same result via the Figure 4 GSQL query (requires concrete type names
    for the query text). *)

val iterations_used : Pgraph.Graph.t -> ?options:options -> unit -> int
(** Number of iterations before the early-exit criterion fired. *)
