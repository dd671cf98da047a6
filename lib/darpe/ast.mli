(** Abstract syntax of Direction-Aware Regular Path Expressions (DARPEs).

    DARPEs (paper §2) extend regular path expressions over edge types with
    direction adornments: for every edge type [E] the adorned alphabet
    contains [E>] (traverse a directed E-edge forwards), [<E] (traverse one
    backwards) and bare [E] (traverse an undirected E-edge).  The wildcard
    [_] stands for any edge type and accepts the same three adornments. *)

type adir =
  | Fwd    (** [E>] — directed edge crossed source→target *)
  | Rev    (** [<E] — directed edge crossed target→source *)
  | Undir  (** [E] — undirected edge *)
  | Any    (** [E?] extension / bare wildcard in permissive mode: any of the
               three.  Convenient for schema-agnostic analytics; expands to
               the three concrete adornments during compilation. *)

type t =
  | Step of string option * adir
      (** [Step (Some "E", Fwd)] is [E>]; [Step (None, d)] is the wildcard
          with adornment [d]. *)
  | Seq of t * t        (** concatenation [r1 . r2] *)
  | Alt of t * t        (** disjunction [r1 | r2] *)
  | Star of t * int * int option
      (** [Star (r, lo, hi)] is [r * lo..hi]; [hi = None] means unbounded.
          The plain Kleene star is [Star (r, 0, None)]. *)
  | Epsilon             (** the empty path; arises from [r*0..0] *)

val star : t -> t
(** Plain unbounded Kleene star. *)

val seq_all : t list -> t
(** Concatenation of a non-empty list. *)

val alt_all : t list -> t
(** Disjunction of a non-empty list. *)

val equal : t -> t -> bool

val min_path_length : t -> int
(** Length of the shortest word the expression accepts. *)

val max_path_length : t -> int option
(** Length of the longest accepted word; [None] when unbounded. *)

val fixed_unique_length : t -> int option
(** [Some n] when the DARPE belongs to the paper's {e fixed-unique-length}
    class — Kleene-free with every accepted path of the same length [n]
    (§6.1).  For this class, all-shortest-paths semantics coincides with
    unrestricted semantics. *)

val mentions_wildcard : t -> bool

val step_to_string : string option -> adir -> string
(** One adorned step: [E>], [<E], [E], [E?]; [_] for the wildcard. *)

val to_string : t -> string
(** Concrete syntax re-rendering, parseable by {!Parse.parse}. *)

val pp : Format.formatter -> t -> unit
