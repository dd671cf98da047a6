type order = Asc | Desc

type t =
  | Sum_int
  | Sum_float
  | Sum_string
  | Min_acc
  | Max_acc
  | Avg_acc
  | Or_acc
  | And_acc
  | Set_acc
  | Bag_acc
  | List_acc
  | Array_acc
  | Map_acc of t
  | Heap_acc of heap_spec
  | Group_by of int * t list
  | Custom of string

and heap_spec = {
  h_capacity : int;
  h_fields : (int * order) list;
}

let rec order_invariant = function
  | Sum_string | List_acc | Array_acc -> false
  | Sum_int | Sum_float | Min_acc | Max_acc | Avg_acc | Or_acc | And_acc | Set_acc | Bag_acc
  | Heap_acc _ -> true
  | Map_acc nested -> order_invariant nested
  | Group_by (_, nested) -> List.for_all order_invariant nested
  | Custom _ -> true (* registration contract: ⊕ commutative/associative *)

let rec multiplicity_insensitive = function
  | Min_acc | Max_acc | Or_acc | And_acc | Set_acc -> true
  | Sum_int | Sum_float | Sum_string | Avg_acc | Bag_acc | List_acc | Array_acc | Heap_acc _ ->
    false
  | Map_acc nested -> multiplicity_insensitive nested
  | Group_by (_, nested) -> List.for_all multiplicity_insensitive nested
  | Custom _ -> false

let default_value = function
  | Sum_int -> Pgraph.Value.Int 0
  | Sum_float -> Pgraph.Value.Float 0.0
  | Sum_string -> Pgraph.Value.Str ""
  | Min_acc | Max_acc -> Pgraph.Value.Null
  | Avg_acc -> Pgraph.Value.Float 0.0
  | Or_acc -> Pgraph.Value.Bool false
  | And_acc -> Pgraph.Value.Bool true
  | Set_acc | Bag_acc | List_acc | Array_acc | Map_acc _ | Heap_acc _ | Group_by _ ->
    Pgraph.Value.Vlist []
  | Custom name ->
    (match Custom.find name with
     | Some def -> def.Custom.init
     | None -> invalid_arg (Printf.sprintf "Spec: custom accumulator %s is not registered" name))

let rec to_string = function
  | Sum_int -> "SumAccum<int>"
  | Sum_float -> "SumAccum<float>"
  | Sum_string -> "SumAccum<string>"
  | Min_acc -> "MinAccum"
  | Max_acc -> "MaxAccum"
  | Avg_acc -> "AvgAccum"
  | Or_acc -> "OrAccum"
  | And_acc -> "AndAccum"
  | Set_acc -> "SetAccum"
  | Bag_acc -> "BagAccum"
  | List_acc -> "ListAccum"
  | Array_acc -> "ArrayAccum"
  | Map_acc nested -> Printf.sprintf "MapAccum<%s>" (to_string nested)
  | Heap_acc { h_capacity; h_fields } ->
    Printf.sprintf "HeapAccum(%d, %s)" h_capacity
      (String.concat ", "
         (List.map
            (fun (i, o) -> Printf.sprintf "#%d %s" i (match o with Asc -> "ASC" | Desc -> "DESC"))
            h_fields))
  | Group_by (nkeys, nested) ->
    Printf.sprintf "GroupByAccum<%d keys; %s>" nkeys (String.concat ", " (List.map to_string nested))
  | Custom name -> name

let pp fmt s = Format.pp_print_string fmt (to_string s)
