type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Datetime of int
  | Vertex of int
  | Edge of int
  | Vlist of t list
  | Vtuple of t array

exception Type_error of string

let type_error msg = raise (Type_error msg)

let constructor_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2 (* numerics share a rank so they compare by value *)
  | Str _ -> 3
  | Datetime _ -> 4
  | Vertex _ -> 5
  | Edge _ -> 6
  | Vlist _ -> 7
  | Vtuple _ -> 8

(* Floats in [-2^62, 2^62) truncate to an exact int. *)
let int_range_lo = -4.611686018427387904e18
let int_range_hi = 4.611686018427387904e18

(* Exact order of an int against a float — [float_of_int] rounds above
   2^53, which made [Int (2^53 + 1)] equal to [Float 2^53] and so broke
   transitivity.  NaN sorts below every number, as [Stdlib.compare] puts
   it below every float. *)
let compare_int_float x f =
  if Float.is_nan f then 1
  else if f >= int_range_hi then -1
  else if f < int_range_lo then 1
  else
    let t = Float.to_int f in
    if x <> t then Stdlib.compare x t
    else Stdlib.compare (float_of_int t) f

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> Stdlib.compare x y
  | Datetime x, Datetime y -> Stdlib.compare x y
  | Vertex x, Vertex y -> Stdlib.compare x y
  | Edge x, Edge y -> Stdlib.compare x y
  | Vlist x, Vlist y -> compare_list x y
  | Vtuple x, Vtuple y -> compare_array x y
  | _ -> Stdlib.compare (constructor_rank a) (constructor_rank b)

and compare_list x y =
  match x, y with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | xh :: xt, yh :: yt ->
    let c = compare xh yh in
    if c <> 0 then c else compare_list xt yt

and compare_array x y =
  let lx = Array.length x and ly = Array.length y in
  if lx <> ly then Stdlib.compare lx ly
  else begin
    let rec go i = if i = lx then 0 else let c = compare x.(i) y.(i) in if c <> 0 then c else go (i + 1) in
    go 0
  end

let equal a b = compare a b = 0

let rec hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int n -> Hashtbl.hash n
  | Float f ->
    (* Equal to some [Int] exactly when integral and in int range: hash
       as that int, so [equal] implies the same hash at every magnitude. *)
    if Float.is_integer f && f >= int_range_lo && f < int_range_hi then
      Hashtbl.hash (Float.to_int f)
    else Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Datetime d -> 41 + (Hashtbl.hash d * 7)
  | Vertex v -> 43 + (v * 2654435761)
  | Edge e -> 47 + (e * 40503)
  | Vlist l -> List.fold_left (fun acc v -> (acc * 31) + hash v) 53 l
  | Vtuple a -> Array.fold_left (fun acc v -> (acc * 31) + hash v) 59 a

let to_bool = function
  | Bool b -> b
  | v -> type_error ("expected bool, got " ^ (match v with Null -> "null" | _ -> "non-bool"))

let to_int = function
  | Int n -> n
  | _ -> type_error "expected int"

let to_float = function
  | Int n -> float_of_int n
  | Float f -> f
  | Datetime d -> float_of_int d
  | _ -> type_error "expected numeric"

let to_string_exn = function
  | Str s -> s
  | _ -> type_error "expected string"

let vertex_id = function
  | Vertex v -> v
  | _ -> type_error "expected vertex"

let edge_id = function
  | Edge e -> e
  | _ -> type_error "expected edge"

let is_null = function Null -> true | _ -> false

let add a b =
  match a, b with
  | Int x, Int y -> Int (x + y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a +. to_float b)
  | Str x, Str y -> Str (x ^ y)
  | Vlist x, Vlist y -> Vlist (x @ y)
  | _ -> type_error "add: incompatible operands"

let sub a b =
  match a, b with
  | Int x, Int y -> Int (x - y)
  | (Int _ | Float _ | Datetime _), (Int _ | Float _ | Datetime _) -> Float (to_float a -. to_float b)
  | _ -> type_error "sub: incompatible operands"

let mul a b =
  match a, b with
  | Int x, Int y -> Int (x * y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a *. to_float b)
  | _ -> type_error "mul: incompatible operands"

let div a b =
  match a, b with
  | Int x, Int y -> if y = 0 then type_error "div: division by zero" else Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
    let d = to_float b in
    if d = 0.0 then type_error "div: division by zero" else Float (to_float a /. d)
  | _ -> type_error "div: incompatible operands"

let neg = function
  | Int n -> Int (-n)
  | Float f -> Float (-.f)
  | _ -> type_error "neg: not numeric"

let modulo a b =
  match a, b with
  | Int x, Int y -> if y = 0 then type_error "mod: division by zero" else Int (x mod y)
  | _ -> type_error "mod: expects ints"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s -> s
  | Datetime d -> Printf.sprintf "dt:%d" d
  | Vertex v -> Printf.sprintf "v%d" v
  | Edge e -> Printf.sprintf "e%d" e
  | Vlist l -> "[" ^ String.concat "; " (List.map to_string l) ^ "]"
  | Vtuple a -> "(" ^ String.concat ", " (Array.to_list (Array.map to_string a)) ^ ")"

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* Days since 1970-01-01 for a proleptic Gregorian date (civil-from-days
   algorithm, Howard Hinnant's formulation). *)
let days_of_ymd y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let ymd_of_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let datetime_of_ymd y m d = Datetime (days_of_ymd y m d * 86400)

let year_of_datetime = function
  | Datetime s ->
    let y, _, _ = ymd_of_days (s / 86400) in
    y
  | _ -> type_error "year: expected datetime"

let month_of_datetime = function
  | Datetime s ->
    let _, m, _ = ymd_of_days (s / 86400) in
    m
  | _ -> type_error "month: expected datetime"
