(** Query catalogs: named, pre-parsed, pre-analyzed {e and pre-compiled}
    GSQL queries.

    Mirrors TigerGraph's install-then-call workflow ([CREATE QUERY] once,
    invoke many times): installation parses, analyzes and lowers each query
    to a {!Compile} closure plan eagerly, so calls fail fast and the
    per-invoke hot path never tree-walks the AST.  The interpreter
    ({!Eval}) is only the differential-testing oracle — see
    docs/COMPILER.md.

    Entries are immutable once installed; {!replace_query} swaps a name to
    a new (query, plan, generation) triple atomically, so a concurrent
    reader never observes the new plan under the old generation (the
    service keys its result cache on the generation for exactly this
    reason). *)

type t

exception Error of string

val create : unit -> t

val install : ?schema:Pgraph.Schema.t -> t -> string -> string list
(** [install cat source] parses a program (one or more [CREATE QUERY]
    definitions), analyzes and compiles each, and registers them by name.
    Returns the installed names in source order.  Raises {!Error} on
    parse/analysis/compile failure or a duplicate name.  [schema] lets the
    compiler resolve CSR segment symbols at install time. *)

val install_query : ?schema:Pgraph.Schema.t -> t -> Ast.query -> unit
(** Registers an already-parsed query.  Raises {!Error} when the name is
    taken (use {!replace_query} to reinstall). *)

val replace_query : ?schema:Pgraph.Schema.t -> t -> Ast.query -> unit
(** Installs or reinstalls: compiles outside the catalog lock, then swaps
    the entry — plan and generation together — in one atomic step. *)

val recompile : ?schema:Pgraph.Schema.t -> t -> unit
(** Re-lowers every installed query (e.g. after a graph reload changed the
    schema the plans were specialized against).  Bumps every generation. *)

val names : t -> string list
val find : t -> string -> Ast.query option
val mem : t -> string -> bool

(** A consistent snapshot of one installed query, taken under a single
    lock acquisition: the plan always belongs to the generation. *)
type installed = {
  i_query : Ast.query;
  i_info : Analyze.info;
  i_plan : Compile.plan;
  i_generation : int;
}

val lookup : t -> string -> installed option

val drop : t -> string -> unit
(** Removes a query; silent when absent. *)

val run :
  t -> Pgraph.Graph.t -> ?semantics:Pathsem.Semantics.t ->
  params:(string * Pgraph.Value.t) list -> string -> Eval.result
(** [run cat g ~params name] executes the installed query's compiled
    plan.  Raises {!Error} on an unknown name. *)

val info_of : t -> string -> Analyze.info
(** Analysis results recorded at install time (tractability, mutation
    classification).  Raises {!Error} on an unknown name. *)

val plan_of : t -> string -> Compile.plan
(** The compiled plan (EXPLAIN, compile stats).  Raises {!Error} on an
    unknown name. *)

val generation_of : t -> string -> int
(** Monotone install generation; changes on every {!replace_query} or
    {!recompile} of the name.  Raises {!Error} on an unknown name. *)

val source_of : t -> string -> string
(** The installed query re-rendered by {!Pretty.query}.  Raises {!Error} on
    an unknown name. *)

val signature_of : t -> string -> (string * Ast.param_ty) list
(** Parameter names and types of an installed query. *)
