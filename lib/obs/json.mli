(** Minimal JSON values — the telemetry, wire and on-disk format.

    The observability layer must not pull in external dependencies, so this
    is a self-contained emitter and parser for the JSON subset the tracer,
    the service protocol and the durability layer produce: objects, arrays,
    strings, ints, floats, bools and null.  [to_string] and [parse]
    round-trip, floats to the 12 significant digits they are rendered with
    (see docs/OBSERVABILITY.md for the span schema built on top).  One
    lexer serves both [parse] and the streaming {!reader}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite floats render as [null] (JSON has no
    NaN/infinity). *)

val pretty : t -> string
(** Two-space indented rendering, for humans and golden files. *)

val parse : string -> (t, string) result
(** Parses a complete JSON document; trailing garbage is an error.  Numbers
    without [.], [e] or [E] become [Int], all others [Float].  It is
    [value] then [finish] on a fresh {!reader}. *)

(** {1 Streaming reader}

    The lexer [parse] is built on, for consumers that walk a large
    document without building its tree (snapshot recovery streams the
    rows of a whole graph this way).  Each function skips leading
    whitespace, consumes exactly one construct and raises
    {!Parse_error} with the same message [parse] would return. *)

exception Parse_error of string

type reader
(** A cursor over a prefix of a string. *)

val reader : ?len:int -> string -> reader
(** Reads [src.[0 .. len-1]] ([len] defaults to the whole string), so a
    document followed by a footer is read without copying it out.
    Raises [Invalid_argument] when [len] is out of range. *)

val value : reader -> t
(** One whole value, as a tree. *)

val fields : reader -> (string -> unit) -> unit
(** An object: [f key] is called for each member in document order and
    must consume the member's value (with [value], [fields] or [items]). *)

val items : reader -> (unit -> unit) -> unit
(** An array: [f ()] is called for each element and must consume it. *)

val finish : reader -> unit
(** Checks that only whitespace is left. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_list_opt : t -> t list option
val to_str_opt : t -> string option
