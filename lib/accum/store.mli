(** Accumulator stores and snapshot-semantics commit machinery (paper §4.3).

    A store owns every accumulator a query declares: one instance per global
    accumulator ([@@name]) and one instance per vertex for each vertex
    accumulator family ([@name]).  The ACCUM clause runs under {e snapshot
    semantics}: acc-executions read a common snapshot and emit buffered
    operations; the reduce phase ({!commit}) folds the buffer into the
    instances afterwards, so acc-executions never observe each other's
    writes. *)

type t

type target =
  | Global of string           (** [@@name] *)
  | Vertex_acc of string * int (** [v.@name] *)

val create : unit -> t

(** {1 Declaration} *)

val declare_global : t -> string -> Spec.t -> unit
(** Declares (or re-declares, resetting) a global accumulator. *)

val declare_vertex : t -> string -> Spec.t -> n_vertices:int -> unit
(** Declares a vertex accumulator family; instances are created lazily per
    vertex id, and the family grows with the graph (vertices inserted after
    declaration also get instances).  [n_vertices] is a sizing hint. *)

val set_vertex_init : t -> string -> Pgraph.Value.t -> unit
(** Initial value for every instance of a vertex family — supports
    declarations like [SumAccum<float> @score = 1].  Applies to existing and
    future instances.  Raises [Not_found] for undeclared families. *)

val global_names : t -> string list
val vertex_names : t -> string list
val is_global : t -> string -> bool
val is_vertex : t -> string -> bool

(** {1 Direct access (committed state)} *)

val global_acc : t -> string -> Acc.t
(** Raises [Not_found] for undeclared names. *)

val vertex_acc : t -> string -> int -> Acc.t
val read : t -> target -> Pgraph.Value.t
val assign_now : t -> target -> Pgraph.Value.t -> unit
(** Immediate assignment, outside any ACCUM phase (e.g. top-level
    [@@acc = 0] statements between query blocks). *)

val input_now : t -> target -> Pgraph.Value.t -> unit
(** Immediate [+=], outside any ACCUM phase. *)

(** {1 Snapshot phases} *)

type phase

val begin_phase : t -> phase
(** Opens a Map phase.  Buffered operations accumulate until {!commit}. *)

val buffer_input : phase -> target -> Pgraph.Value.t -> Pgraph.Bignat.t -> unit
(** Queue [target += value] with a path multiplicity (Theorem 7.1: the
    reduce phase applies it via {!Acc.input_mult}). *)

val buffer_assign : phase -> target -> Pgraph.Value.t -> unit
(** Queue [target = value]. *)

val apply_input : phase -> target -> Pgraph.Value.t -> Pgraph.Bignat.t -> unit
(** [target += value] with multiplicity, applied to the store now rather
    than at {!commit}.  Only for a target that no acc-execution of this
    phase reads: nothing can then observe it before the commit, and since
    every operation on the target takes this path, they still land in
    emission order.  Counted by {!commit} like a buffered input. *)

val apply_assign : phase -> target -> Pgraph.Value.t -> unit
(** [target = value] applied now; same contract as {!apply_input}. *)

val commit : t -> phase -> unit
(** The Reduce phase: apply buffered operations in emission order, and
    report them together with the directly applied ones to the
    [accum.*] metrics and the enclosing trace span.  For
    order-invariant accumulators the result is independent of that order
    (paper §4.3); the order-dependent types (List/Array/[SumAccum<string>])
    observe it, as GSQL documents. *)

val pending_ops : phase -> int

(** {1 Previous-iteration values ([@acc'])} *)

val save_prev : t -> string list -> unit
(** [save_prev t names] snapshots the current read-values of the listed
    accumulator families (global or vertex) for later access via
    {!read_prev}.  Called by the evaluator at the start of each query block
    that mentions a primed accumulator. *)

val read_prev : t -> target -> Pgraph.Value.t
(** Value saved by the last {!save_prev} covering the target's family;
    the family's {!Spec.default_value} when never saved. *)

val reset_all : t -> unit
(** Reset every declared accumulator to its initial state. *)
