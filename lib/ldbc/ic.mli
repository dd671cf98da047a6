(** LDBC SNB Interactive-Complex-style queries, written in GSQL.

    These are the queries of the paper's §7.1 large-scale experiment: the
    IC family with the person-to-person [KNOWS] traversal widened from the
    original 2 hops to 3 and 4, run under all-shortest-paths semantics
    (TigerGraph) vs non-repeated-edge semantics (Neo4j's default).  Each
    query is generated as GSQL source parameterized by the hop count and
    executed as a compiled plan ({!Gsql.Compile.run_source}), so the
    semantics switch is a single [~semantics] argument — exactly the
    comparison the paper makes.

    Query shapes (scaled-down but structurally faithful):
    - [ic1]: friends within h hops with a given first name, with their city;
    - [ic2]: most recent messages (posts or comments) by the friends;
    - [ic3]: friends within h hops located in a given country, ranked by
      comment count;
    - [ic5]: forums the friends joined after a date, ranked by the number
      of posts those friends made in them;
    - [ic6]: tags co-occurring with a given tag on the friends' posts;
    - [ic9]: most recent comments by friends before a date;
    - [ic11]: friends' employment at companies in a given country before a
      year. *)

type name = Ic1 | Ic2 | Ic3 | Ic5 | Ic6 | Ic9 | Ic11

val all : name list
val name_to_string : name -> string

val source : name -> hops:int -> string
(** The GSQL text, with the KNOWS pattern fixed to [KNOWS*1..hops]. *)

val default_params : Snb.t -> seed:int -> name -> (string * Pgraph.Value.t) list
(** Deterministic parameter pick (person, country, tag, dates) for a
    generated graph. *)

val run :
  Snb.t -> ?semantics:Pathsem.Semantics.t -> hops:int -> seed:int -> name ->
  Gsql.Eval.result
(** Generates parameters and executes the query's compiled plan. *)

val result_rows : Gsql.Eval.result -> int
(** Row count of the query's [Result] table (sanity metric for tests and
    bench logs). *)
