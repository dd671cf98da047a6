(** Static analysis of parsed queries.

    Checks performed before evaluation:
    - every accumulator reference resolves to a declaration of matching kind
      (global [@@x] vs vertex [@x]);
    - edge aliases only appear on single-step DARPEs (variables bound inside
      Kleene scope are excluded from the paper's tractable class, §7);
    - ACCUM/POST_ACCUM statements reference at most one vertex alias per
      POST_ACCUM statement;
    - primed reads ([@a']) reference declared accumulators.

    Also classifies queries against the paper's tractable class
    (Theorem 7.1). *)

type info = {
  errors : string list;          (** empty = query accepted *)
  warnings : string list;
  tractable : bool;
      (** false when the query combines unbounded DARPEs with
          order-dependent accumulators (List/Array/[SumAccum<string>]) or
          edge variables — evaluation falls back to enumeration costs *)
  primed : string list;
      (** accumulator families read with the previous-value operator *)
  mutating : bool;
      (** true when evaluation can write graph state: a vertex/edge
          attribute assignment in ACCUM/POST_ACCUM or an INSERT anywhere
          in the body — the service routes such queries through the
          single-writer lane (docs/DURABILITY.md) *)
}

val check_query : Ast.query -> info
val check_block : Ast.stmt list -> info

val block_mutates : Ast.stmt list -> bool
(** The {!info.mutating} classification on a bare statement block. *)

val post_accum_aliases : string array -> Ast.acc_stmt -> string list
(** [post_accum_aliases from stmt]: the vertex aliases a POST_ACCUM
    statement references, [from] being the block's FROM vertex aliases
    (a bare variable counts only when it is one of them).  The evaluator
    uses the head alias to drive the per-distinct-vertex execution. *)
