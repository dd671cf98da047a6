(** Shortest DARPE Match Counting (SDMC) — paper Theorem 6.1.

    BFS over the product of the graph with the DARPE's DFA.  Because the
    automaton is deterministic, every graph path induces exactly one product
    path, so per-level count propagation counts {e paths}, not runs.  Counts
    are {!Pgraph.Bignat.t} because they can be exponential in the graph size
    (the whole point of the theorem is that they are nevertheless computed in
    polynomial time).

    Caveat shared with the paper's formal model: a directed self-loop crossed
    by both an [E>] and an [<E] branch of the same DARPE yields two adorned
    words over the same edge sequence and is counted once per adornment.

    The kernel runs over the {!Pgraph.Csr} frozen adjacency index
    (obtained via the version-keyed [Csr.of_graph] memo): flat [int]
    arrays, one DFA transition per (edge-type, relation) segment, and a
    generation-stamped scratch kept once per domain — see
    docs/PERFORMANCE.md.  One BFS queue records each product state when it
    is first stamped; the collapse to per-vertex results walks only those
    states, so after a domain's first run a source costs work in the
    states it reaches, not in |V|·|Q|.  Bignat multiplicity accumulation,
    the [paths.count.*] metrics and the per-hop governor checkpoints are
    unchanged from the original list-frontier engine; Theorem 6.1
    (counting = enumerated shortest paths) is its test oracle. *)

type source_result = {
  sr_src : int;
  sr_dist : int array;
      (** [sr_dist.(t)] — edge count of the shortest satisfying path from the
          source to [t]; [-1] when no satisfying path exists. *)
  sr_count : Pgraph.Bignat.t array;
      (** [sr_count.(t)] — number of shortest satisfying paths (0 when
          unreachable). *)
}

type scratch
(** BFS working state: generation-stamped distance/count arrays and a
    queue sized |V|·|Q|, plus per-vertex collapse arrays sized |V|, grown
    on demand and never cleared.  Every function below without a
    [?scratch] argument (and [single_source] without one) runs on a
    scratch kept per domain ([Domain.DLS]), so the arrays are allocated
    once per domain rather than once per call; a run nested inside a
    callback of another run on the same domain gets a fresh scratch.  A
    scratch passed explicitly must not be shared between domains. *)

val create_scratch : unit -> scratch

val iter_reached :
  ?scratch:scratch -> Pgraph.Graph.t -> Darpe.Dfa.t -> int ->
  (int -> int -> Pgraph.Bignat.t -> unit) -> unit
(** [iter_reached g dfa s f] calls [f t dist count] for every vertex [t]
    with a satisfying path from [s], in ascending [t]: [dist] is the
    length of the shortest one and [count] the number of shortest ones.
    The sparse form of {!single_source}: besides the BFS it allocates
    only the reached-vertex list. *)

val single_source : ?scratch:scratch -> Pgraph.Graph.t -> Darpe.Dfa.t -> int -> source_result
(** [single_source g dfa s] solves the single-source SDMC flavor: counts of
    shortest satisfying paths from [s] to every vertex — {!iter_reached}
    spread into dense |V|-sized arrays.
    Complexity O((|V| + |E|)·|DFA|) BFS steps plus big-number additions. *)

val single_pair : Pgraph.Graph.t -> Darpe.Dfa.t -> int -> int -> (int * Pgraph.Bignat.t) option
(** [single_pair g dfa s t] is [Some (length, count)] for the shortest
    satisfying paths from [s] to [t], or [None] when no path satisfies the
    DARPE.  The zero-length path [s = t] counts when the DARPE accepts the
    empty word. *)

val all_pairs :
  Pgraph.Graph.t -> Darpe.Dfa.t -> sources:int array ->
  (int -> int -> int -> Pgraph.Bignat.t -> unit) -> unit
(** [all_pairs g dfa ~sources f] runs {!iter_reached} for each source and
    calls [f src dst dist count] for every reachable pair.  This is the
    all-paths SDMC flavor restricted to the given sources (pass every vertex
    for the unrestricted flavor). *)

val exists_path : Pgraph.Graph.t -> Darpe.Dfa.t -> int -> int -> bool
(** SparQL-style reachability: is there any satisfying path?  Reduces to
    [single_pair <> None] as in the paper (SDMC > 0). *)
