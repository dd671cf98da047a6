(** In-memory property graphs with mixed directed/undirected edges.

    The storage model is columnar: vertices and edges are dense integer ids
    indexing type/attribute tables, and each vertex carries an adjacency list
    of {e half-edges} annotated with the traversal relation
    ([Out]/[In]/[Und]).  Pattern engines traverse half-edges so that a
    direction-adorned step ([E>], [<E], [E]) is a single label test. *)

type dir_rel =
  | Out  (** edge is directed away from this vertex *)
  | In   (** edge is directed into this vertex *)
  | Und  (** edge is undirected *)

type half = {
  h_edge : int;   (** edge id *)
  h_other : int;  (** the opposite endpoint *)
  h_rel : dir_rel;
}

type t

(** Logical mutation, as captured by the journal hook and replayed by the
    durability layer ({!apply_mutation}).  Ids are the dense integer ids of
    the graph the mutation was recorded against; replay against the same
    committed prefix reproduces them exactly. *)
type mutation =
  | M_add_vertex of string * (string * Value.t) list
  | M_add_edge of string * int * int * (string * Value.t) list
  | M_set_vertex_attr of int * string * Value.t
  | M_set_edge_attr of int * string * Value.t

val create : Schema.t -> t
val schema : t -> Schema.t

(** {1 Snapshots and journaling (MVCC-lite)} *)

val snapshot : t -> t
(** [snapshot g] is an O(#columns) copy-on-write clone: both graphs share
    every backing array until one of them writes, at which point the writer
    copies out the touched spine/row/bucket first.  Readers holding either
    graph never block and never observe the other side's mutations — the
    intended protocol is single-writer: clone, mutate the clone, atomically
    publish it.  The clone starts with no journal hook installed. *)

val set_journal : t -> (mutation -> unit) option -> unit
(** Install (or clear) a hook called after each successful mutation with
    its logical description — the write-ahead log's capture point.  Not
    inherited by {!snapshot} clones. *)

val apply_mutation : t -> mutation -> unit
(** Replay one captured mutation (recovery path).  Raises like the
    underlying mutator on schema mismatch. *)

(** {1 Construction} *)

val add_vertex : t -> string -> (string * Value.t) list -> int
(** [add_vertex g type_name attrs] inserts a vertex and returns its id.
    Attributes omitted from [attrs] default per {!Schema.attr_default}.
    Raises [Invalid_argument] on unknown type, unknown attribute, or
    ill-typed attribute value. *)

val add_edge : t -> string -> int -> int -> (string * Value.t) list -> int
(** [add_edge g type_name src dst attrs] inserts an edge and returns its id.
    For undirected edge types the [src]/[dst] order is stored but carries no
    semantic weight.  Endpoint vertex types are validated against the edge
    type's declared signature. *)

(** {1 Cardinalities} *)

val n_vertices : t -> int
val n_edges : t -> int

(** {1 Vertex accessors} *)

val vertex_type : t -> int -> Schema.vertex_type
val vertex_type_id : t -> int -> int
val vertex_attr : t -> int -> string -> Value.t
(** Raises [Invalid_argument] on an attribute not in the vertex's type. *)

val set_vertex_attr : t -> int -> string -> Value.t -> unit
val vertex_attr_opt : t -> int -> string -> Value.t option

val vertex_attr_at : t -> int -> int -> Value.t
(** [vertex_attr_at g v i] is attribute [i] of [v]'s type, by its position
    in [vt_attrs] — the by-index read for callers that resolved the name
    with {!Schema.vertex_attr_index} against [schema g] beforehand. *)

(** {1 Edge accessors} *)

val edge_type : t -> int -> Schema.edge_type
val edge_type_id : t -> int -> int
val edge_src : t -> int -> int
val edge_dst : t -> int -> int
val edge_attr : t -> int -> string -> Value.t
val edge_attr_opt : t -> int -> string -> Value.t option

val edge_attr_at : t -> int -> int -> Value.t
(** By-index edge attribute read; see {!vertex_attr_at}. *)

val set_edge_attr : t -> int -> string -> Value.t -> unit
val edge_other_endpoint : t -> int -> int -> int
(** [edge_other_endpoint g e v] is the endpoint of [e] that is not [v]. *)

(** {1 Traversal} *)

val adjacency : t -> int -> half array
(** All half-edges incident to a vertex (out, in, and undirected), in
    insertion order.

    {b Copy cost:} every call materializes a fresh array of boxed [half]
    records — O(degree) allocation.  Never call this inside a traversal
    loop: use {!iter_adjacent} (no allocation), or freeze the graph into
    a {!Csr.t} and scan its flat segment slices (what the hot path
    engines do — see docs/PERFORMANCE.md). *)

val iter_adjacent : t -> int -> (half -> unit) -> unit
(** Visit a vertex's half-edges in insertion order, without allocating.
    The traversal building block for code that has no CSR index at
    hand. *)

val out_degree : t -> int -> int
(** Count of outgoing directed plus undirected half-edges — matching GSQL's
    [outdegree()] which treats undirected edges as traversable. *)

val in_degree : t -> int
  -> int

val degree : t -> int -> int

val neighbors : t -> int -> rel:dir_rel -> etype:int option -> int list
(** [neighbors g v ~rel ~etype] lists opposite endpoints over half-edges
    matching relation [rel] and (when [etype] is [Some id]) the edge type.

    {b Order:} stable and documented — edge insertion order (the order
    {!add_edge} ran), the same order {!iter_adjacent} visits; a
    regression test pins this.  Allocates the result list: fine for
    request-scoped lookups, wrong inside traversal loops (use
    {!iter_adjacent} or a {!Csr.t} slice there). *)

(** {1 Iteration} *)

val iter_vertices : t -> (int -> unit) -> unit
val iter_vertices_of_type : t -> int -> (int -> unit) -> unit
val vertices_of_type : t -> int -> int array
val iter_edges : t -> (int -> unit) -> unit
val fold_vertices : t -> init:'a -> f:('a -> int -> 'a) -> 'a

(** {1 Lookup} *)

val find_vertex_by_attr : t -> string -> string -> Value.t -> int option
(** [find_vertex_by_attr g type_name attr v] scans the vertices of the type
    for the first one whose attribute equals [v]. *)
