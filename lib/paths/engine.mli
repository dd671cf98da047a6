(** Unified pattern-match interface over all path-legality semantics.

    Produces the {e compressed binding table} of paper Theorem 7.1: one
    [(source, target, multiplicity)] triple per distinct endpoint binding,
    with the path count as the binding's multiplicity, instead of one row per
    matched path.  Under [All_shortest] the triples are computed by counting
    (polynomial); under the enumerative semantics they are computed by
    materializing paths (exponential in the worst case), faithfully modelling
    the engines the paper compares against. *)

type binding = {
  b_src : int;
  b_dst : int;
  b_mult : Pgraph.Bignat.t;  (** number of legal satisfying paths *)
  b_dist : int;              (** path length; meaningful for shortest-path
                                 semantics, [-1] for mixed-length bags *)
}

val compile : Pgraph.Graph.t -> Darpe.Ast.t -> Darpe.Dfa.t
(** Compiles (and memoizes per graph schema) the DARPE's DFA. *)

val match_pairs :
  ?workers:int -> Pgraph.Graph.t -> Darpe.Ast.t -> Semantics.t ->
  sources:int array -> dst_ok:(int -> bool) -> binding list
(** [match_pairs g d sem ~sources ~dst_ok] evaluates the pattern
    [src -(d)- dst] for [src] ranging over [sources] and targets filtered by
    [dst_ok].

    Under the counting semantics ([All_shortest]/[Existential]) sources fan
    out across domains in contiguous balanced slices ({!Accum.Parallel}'s
    partitioning), each worker running the CSR BFS kernel with a private
    scratch under the caller's inherited {!Interrupt} budget — cancelling
    the caller stops every slice, and all domains are joined even on
    failure (the [paths.engine.fanout.spawned]/[.joined] counters witness
    it).  [workers] defaults to [Accum.Parallel.default_workers] over the
    source count; [~workers:1] forces the sequential loop, and seed sets
    smaller than 4 sources never spawn.  The binding list (order included)
    is identical for every worker count.  The enumerative semantics always
    run sequentially — they model the baseline engines the paper compares
    against. *)

val count_single_pair :
  Pgraph.Graph.t -> Darpe.Ast.t -> Semantics.t -> src:int -> dst:int -> Pgraph.Bignat.t
(** Multiplicity of one endpoint pair — the quantity the paper's diamond
    experiment (Table 1) measures. *)

val clear_cache : unit -> unit
(** Drops memoized DFAs (tests use this to exercise cold compiles). *)
