(** Accumulator type specifications (paper §3).

    A specification describes an accumulator's internal value type, input
    type and combiner ⊕; {!Acc} instantiates mutable state from it.  The
    constructor set mirrors GSQL's built-in accumulator library, including
    arbitrary nesting of accumulators as [MapAccum] values and the composite
    [GroupByAccum] the paper uses to subsume SQL GROUP BY (§8, Example 12). *)

type order = Asc | Desc

type t =
  | Sum_int               (** [SumAccum<int>] *)
  | Sum_float             (** [SumAccum<float>] *)
  | Sum_string            (** [SumAccum<string>] — concatenation; one of the
                              three order-{e dependent} types *)
  | Min_acc               (** [MinAccum<ordered>] *)
  | Max_acc               (** [MaxAccum<ordered>] *)
  | Avg_acc               (** [AvgAccum<num>] — order-invariant via
                              internal (sum, count) pair *)
  | Or_acc                (** [OrAccum] *)
  | And_acc               (** [AndAccum] *)
  | Set_acc               (** [SetAccum<T>] *)
  | Bag_acc               (** [BagAccum<T>] *)
  | List_acc              (** [ListAccum<T>] — order-dependent *)
  | Array_acc             (** [ArrayAccum<T>] — order-dependent *)
  | Map_acc of t          (** [MapAccum<K, A>] with nested accumulator [A] *)
  | Heap_acc of heap_spec (** [HeapAccum<Tup>(capacity, f1 dir, ...)] *)
  | Group_by of int * t list
      (** [GroupByAccum<k keys, nested accumulators>]: inputs are
          [(key-tuple → input-tuple)] pairs; each distinct key tuple owns one
          instance of every nested accumulator. *)
  | Custom of string
      (** user-defined accumulator from the {!Custom} registry (paper §3's
          extensible accumulator library) *)

and heap_spec = {
  h_capacity : int;
  h_fields : (int * order) list;
      (** lexicographic sort: tuple-field index plus direction *)
}

val order_invariant : t -> bool
(** Paper §4.3: whether the reduce phase result is independent of input
    order.  False exactly for [Sum_string], [List_acc], [Array_acc] — and
    for composites nesting them. *)

val multiplicity_insensitive : t -> bool
(** Whether inputting the same value [µ] times equals inputting it once
    (Min/Max/Set/Or/And and maps thereof).  Drives the Theorem 7.1
    evaluation shortcut. *)

val default_value : t -> Pgraph.Value.t
(** The value read from a freshly created instance. *)

val to_string : t -> string
(** GSQL-style rendering, e.g. ["SumAccum<float>"]. *)

val pp : Format.formatter -> t -> unit
