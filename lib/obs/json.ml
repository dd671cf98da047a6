type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* A float literal that re-parses as JSON: finite, and with an explicit
   fraction or exponent so it stays a float through a round trip. *)
let float_literal f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec render buf ~indent ~level v =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_literal f)
  | Str s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        render buf ~indent ~level:(level + 1) item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape_string buf k;
        Buffer.add_char buf ':';
        if indent then Buffer.add_char buf ' ';
        render buf ~indent ~level:(level + 1) item)
      fields;
    nl level;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  render buf ~indent:false ~level:0 v;
  Buffer.contents buf

let pretty v =
  let buf = Buffer.create 256 in
  render buf ~indent:true ~level:0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* One lexer serves the tree parser and the streaming consumers alike: a
   cursor over [src.[pos .. lim-1]] that peeks without allocating, slices
   an escape-free string with one [String.sub] and accumulates a short
   integer in place.  Every [unsafe_get] sits behind an explicit
   [< lim] check. *)

exception Parse_error of string

type reader = { src : string; mutable pos : int; lim : int }

let reader ?len src =
  let lim =
    match len with
    | None -> String.length src
    | Some n when n < 0 || n > String.length src -> invalid_arg "Json.reader: len out of range"
    | Some n -> n
  in
  { src; pos = 0; lim }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let rec skip_ws r =
  if r.pos < r.lim then
    match String.unsafe_get r.src r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      r.pos <- r.pos + 1;
      skip_ws r
    | _ -> ()

(* The next byte, or NUL at the end of input: compared only against
   structural characters, so a NUL byte in the data cannot be mistaken. *)
let peek r = if r.pos < r.lim then String.unsafe_get r.src r.pos else '\000'

let expect r c =
  if r.pos >= r.lim then fail "expected '%c' at offset %d, found end of input" c r.pos
  else
    let c' = String.unsafe_get r.src r.pos in
    if c' = c then r.pos <- r.pos + 1
    else fail "expected '%c' at offset %d, found '%c'" c r.pos c'

let literal r word v =
  let m = String.length word in
  if r.pos + m <= r.lim && String.sub r.src r.pos m = word then begin
    r.pos <- r.pos + m;
    v
  end
  else fail "bad literal at offset %d" r.pos

(* The escape path: [buf] holds the string's text so far and [r.pos] is
   on the next unread byte. *)
let rec escaped r buf =
  if r.pos >= r.lim then fail "unterminated string"
  else
    match String.unsafe_get r.src r.pos with
    | '"' ->
      r.pos <- r.pos + 1;
      Buffer.contents buf
    | '\\' ->
      r.pos <- r.pos + 1;
      if r.pos >= r.lim then fail "unterminated escape";
      let c =
        match String.unsafe_get r.src r.pos with
        | ('"' | '\\' | '/') as c -> c
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'u' ->
          if r.pos + 4 >= r.lim then fail "truncated \\u escape";
          let hex = String.sub r.src (r.pos + 1) 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some code -> code
            | None -> fail "bad \\u escape %s" hex
          in
          r.pos <- r.pos + 4;
          (* ASCII only; wider codepoints keep a replacement byte. *)
          if code < 0x80 then Char.chr code else '?'
        | c -> fail "bad escape \\%c" c
      in
      Buffer.add_char buf c;
      r.pos <- r.pos + 1;
      escaped r buf
    | c ->
      Buffer.add_char buf c;
      r.pos <- r.pos + 1;
      escaped r buf

let rec string_from r start i =
  if i >= r.lim then fail "unterminated string"
  else
    match String.unsafe_get r.src i with
    | '"' ->
      r.pos <- i + 1;
      String.sub r.src start (i - start)
    | '\\' ->
      let buf = Buffer.create (i - start + 16) in
      Buffer.add_substring buf r.src start (i - start);
      r.pos <- i;
      escaped r buf
    | _ -> string_from r start (i + 1)

let string r =
  expect r '"';
  string_from r r.pos r.pos

let rec num_end r i =
  if i < r.lim then
    match String.unsafe_get r.src i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> num_end r (i + 1)
    | _ -> i
  else i

(* [src.[i .. stop-1]] as a decimal, or -1 if a byte is not a digit. *)
let rec digits src i stop acc =
  if i >= stop then acc
  else
    match String.unsafe_get src i with
    | '0' .. '9' as c -> digits src (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* A number is the longest run of number characters.  [-]d{1,18} is
   accumulated in place (it cannot overflow); every other run goes to
   [int_of_string_opt] / [float_of_string_opt], which decide what is
   accepted. *)
let number r =
  let start = r.pos in
  let stop = num_end r start in
  r.pos <- stop;
  let neg = String.unsafe_get r.src start = '-' in
  let d0 = if neg then start + 1 else start in
  let n = if stop > d0 && stop - d0 <= 18 then digits r.src d0 stop 0 else -1 in
  if n >= 0 then Int (if neg then -n else n)
  else
    let s = String.sub r.src start (stop - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "bad number %s" s
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail "bad number %s" s

let fields r f =
  skip_ws r;
  expect r '{';
  skip_ws r;
  if peek r = '}' then r.pos <- r.pos + 1
  else
    let rec members () =
      skip_ws r;
      let key = string r in
      skip_ws r;
      expect r ':';
      f key;
      skip_ws r;
      match peek r with
      | ',' ->
        r.pos <- r.pos + 1;
        members ()
      | '}' -> r.pos <- r.pos + 1
      | _ -> fail "expected ',' or '}' at offset %d" r.pos
    in
    members ()

let items r f =
  skip_ws r;
  expect r '[';
  skip_ws r;
  if peek r = ']' then r.pos <- r.pos + 1
  else
    let rec elements () =
      f ();
      skip_ws r;
      match peek r with
      | ',' ->
        r.pos <- r.pos + 1;
        elements ()
      | ']' -> r.pos <- r.pos + 1
      | _ -> fail "expected ',' or ']' at offset %d" r.pos
    in
    elements ()

let rec value r =
  skip_ws r;
  if r.pos >= r.lim then fail "unexpected end of input";
  match String.unsafe_get r.src r.pos with
  | '{' ->
    let acc = ref [] in
    fields r (fun k -> acc := (k, value r) :: !acc);
    Obj (List.rev !acc)
  | '[' ->
    let acc = ref [] in
    items r (fun () -> acc := value r :: !acc);
    List (List.rev !acc)
  | '"' -> Str (string r)
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | '-' | '0' .. '9' -> number r
  | c -> fail "unexpected character '%c' at offset %d" c r.pos

let finish r =
  skip_ws r;
  if r.pos <> r.lim then fail "trailing characters at offset %d" r.pos

let parse src =
  match
    let r = reader src in
    let v = value r in
    finish r;
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
