(** Recursive-descent parser for the GSQL fragment.

    Entry points accept full programs (a sequence of [CREATE QUERY] blocks),
    single
    queries, or bare statement blocks (the "interpreted query" style used by
    the test suites and examples). *)

exception Error of string
(** Message carries the offending token's line/column. *)

val parse_program : string -> Ast.program
val parse_query : string -> Ast.query
(** Raises {!Error} when the source holds anything but exactly one query. *)

val parse_block : string -> Ast.stmt list
(** Parses a braceless statement sequence. *)

val parse_source : string -> [ `Query of Ast.query | `Block of Ast.stmt list ]
(** A single [CREATE QUERY] definition or, failing that, a bare statement
    block; a source that is neither raises the block parser's {!Error}. *)

val parse_expr : string -> Ast.expr
(** Parses a single expression (tests, REPL conditions). *)
