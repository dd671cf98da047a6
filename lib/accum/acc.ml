module V = Pgraph.Value
module B = Pgraph.Bignat

module VH = Hashtbl.Make (struct
  type t = V.t

  let equal = V.equal
  let hash = V.hash
end)

type state =
  | S_int of int
  | S_float of float
  | S_string of string
  | S_minmax of V.t option
  | S_avg of float * int
  | S_bool of bool
  | S_set of unit VH.t
  | S_bag of int VH.t
  | S_list of V.t Pgraph.Vec.t
  | S_map of t VH.t
  | S_heap of V.t Pgraph.Vec.t  (* sorted best-first per heap_spec *)
  | S_group of t array VH.t
  | S_custom of Custom.def * V.t

and t = {
  a_spec : Spec.t;
  mutable st : state;
}

let spec a = a.a_spec

let create (s : Spec.t) =
  let st =
    match s with
    | Spec.Sum_int -> S_int 0
    | Spec.Sum_float -> S_float 0.0
    | Spec.Sum_string -> S_string ""
    | Spec.Min_acc | Spec.Max_acc -> S_minmax None
    | Spec.Avg_acc -> S_avg (0.0, 0)
    | Spec.Or_acc -> S_bool false
    | Spec.And_acc -> S_bool true
    | Spec.Set_acc -> S_set (VH.create 8)
    | Spec.Bag_acc -> S_bag (VH.create 8)
    | Spec.List_acc | Spec.Array_acc -> S_list (Pgraph.Vec.create ())
    | Spec.Map_acc _ -> S_map (VH.create 8)
    | Spec.Heap_acc _ -> S_heap (Pgraph.Vec.create ())
    | Spec.Group_by _ -> S_group (VH.create 8)
    | Spec.Custom name ->
      (match Custom.find name with
       | Some def -> S_custom (def, def.Custom.init)
       | None ->
         invalid_arg (Printf.sprintf "Acc: custom accumulator %s is not registered" name))
  in
  { a_spec = s; st }

(* Lexicographic tuple comparison for heap ordering; ties broken by full
   value comparison so heap contents are deterministic.  Closure-free: it
   runs once per retained element an input passes. *)
let heap_field v i =
  match v with
  | V.Vtuple t when i < Array.length t -> t.(i)
  | _ -> V.type_error "HeapAccum: input is not a wide-enough tuple"

let rec heap_compare_fields fields a b =
  match fields with
  | [] -> V.compare a b
  | (i, ord) :: rest ->
    let c = V.compare (heap_field a i) (heap_field b i) in
    if c <> 0 then (match ord with Spec.Asc -> c | Spec.Desc -> -c)
    else heap_compare_fields rest a b

let heap_compare (hs : Spec.heap_spec) a b = heap_compare_fields hs.Spec.h_fields a b

(* Insert keeping the vector sorted best-first, then truncate.  An input
   sorts after every retained element it does not beat (a tie never moves
   ahead), so when the heap is full one that compares >= 0 against the
   last element would be truncated again at once: reject it unpushed. *)
let heap_insert hs vec v =
  let n = Pgraph.Vec.length vec in
  let cap = hs.Spec.h_capacity in
  if n >= cap && (n = 0 || heap_compare hs v (Pgraph.Vec.get vec (n - 1)) >= 0) then ()
  else begin
    Pgraph.Vec.push vec v;
    let i = ref n in
    while !i > 0 && heap_compare hs v (Pgraph.Vec.get vec (!i - 1)) < 0 do
      Pgraph.Vec.set vec !i (Pgraph.Vec.get vec (!i - 1));
      decr i
    done;
    Pgraph.Vec.set vec !i v;
    if Pgraph.Vec.length vec > cap then ignore (Pgraph.Vec.pop vec)
  end

let group_key_of_input nkeys v =
  match v with
  | V.Vtuple [| (V.Vtuple keys as key); V.Vtuple inputs |] when Array.length keys = nkeys ->
    (key, inputs)
  | V.Vtuple [| k; inp |] when nkeys = 1 ->
    (* Single-key group-bys also accept the MapAccum-style (k -> v) pair the
       surface syntax produces. *)
    (V.Vtuple [| k |], [| inp |])
  | V.Vtuple [| V.Vtuple keys; V.Vtuple _ |] ->
    V.type_error
      (Printf.sprintf "GroupByAccum: expected %d keys, got %d" nkeys (Array.length keys))
  | _ -> V.type_error "GroupByAccum: input must be (keys -> inputs) tuple pair"

let rec input a v =
  match a.st, a.a_spec with
  | S_int cur, _ -> a.st <- S_int (cur + V.to_int v)
  | S_float cur, _ -> a.st <- S_float (cur +. V.to_float v)
  | S_string cur, _ -> a.st <- S_string (cur ^ V.to_string_exn v)
  | S_minmax cur, spec ->
    let better =
      match cur with
      | None -> v
      | Some old ->
        let c = V.compare v old in
        (match spec with
         | Spec.Min_acc -> if c < 0 then v else old
         | _ -> if c > 0 then v else old)
    in
    a.st <- S_minmax (Some better)
  | S_avg (sum, n), _ -> a.st <- S_avg (sum +. V.to_float v, n + 1)
  | S_bool cur, Spec.Or_acc -> a.st <- S_bool (cur || V.to_bool v)
  | S_bool cur, _ -> a.st <- S_bool (cur && V.to_bool v)
  | S_set tbl, _ -> if not (VH.mem tbl v) then VH.add tbl v ()
  | S_bag tbl, _ ->
    (match VH.find_opt tbl v with
     | Some n -> VH.replace tbl v (n + 1)
     | None -> VH.add tbl v 1)
  | S_list vec, _ -> Pgraph.Vec.push vec v
  | S_map tbl, Spec.Map_acc nested ->
    (match v with
     | V.Vtuple [| k; nested_input |] ->
       let inst =
         match VH.find_opt tbl k with
         | Some inst -> inst
         | None ->
           let inst = create nested in
           VH.add tbl k inst;
           inst
       in
       if not (V.is_null nested_input) then input inst nested_input
     | _ -> V.type_error "MapAccum: input must be a (key, value) pair")
  | S_heap vec, Spec.Heap_acc hs ->
    (match v with
     | V.Vtuple _ -> heap_insert hs vec v
     | _ -> V.type_error "HeapAccum: input must be a tuple")
  | S_group tbl, Spec.Group_by (nkeys, nested) ->
    let key, inputs = group_key_of_input nkeys v in
    if Array.length inputs <> List.length nested then
      V.type_error "GroupByAccum: wrong number of aggregate inputs";
    let insts =
      match VH.find_opt tbl key with
      | Some insts -> insts
      | None ->
        let insts = Array.of_list (List.map create nested) in
        VH.add tbl key insts;
        insts
    in
    for i = 0 to Array.length inputs - 1 do
      if not (V.is_null inputs.(i)) then input insts.(i) inputs.(i)
    done
  | S_custom (def, cur), _ -> a.st <- S_custom (def, def.Custom.combine cur v)
  | (S_map _ | S_heap _ | S_group _), _ -> assert false

let mult_to_int mu what =
  match B.to_int_opt mu with
  | Some n -> n
  | None ->
    invalid_arg
      (Printf.sprintf
         "Acc.input_mult: multiplicity %s exceeds native range for %s — query is outside the \
          tractable class"
         (B.to_string mu) what)

let rec input_mult a v mu =
  if not (B.is_zero mu) then
    if B.equal mu B.one then input a v
    else if Spec.multiplicity_insensitive a.a_spec then input a v
    else
      match a.st, a.a_spec with
      | S_int cur, _ ->
        (* Exact µ·v via big-number arithmetic; overflow of the *result* is
           an error rather than a silent wrap. *)
        let term = B.mul_int mu (abs (V.to_int v)) in
        let signed =
          match B.to_int_opt term with
          | Some n -> if V.to_int v < 0 then -n else n
          | None -> invalid_arg "Acc.input_mult: SumAccum<int> overflow"
        in
        a.st <- S_int (cur + signed)
      | S_float cur, _ -> a.st <- S_float (cur +. (B.to_float mu *. V.to_float v))
      | S_avg (sum, n), _ ->
        a.st <- S_avg (sum +. (B.to_float mu *. V.to_float v), n + mult_to_int mu "AvgAccum")
      | S_bag tbl, _ ->
        let k = mult_to_int mu "BagAccum" in
        (match VH.find_opt tbl v with
         | Some n -> VH.replace tbl v (n + k)
         | None -> VH.add tbl v k)
      | S_heap _, Spec.Heap_acc hs ->
        (* Beyond [capacity] copies, additional duplicates can never appear
           in the retained prefix. *)
        let reps =
          match B.to_int_opt mu with
          | Some n -> min n hs.Spec.h_capacity
          | None -> hs.Spec.h_capacity
        in
        for _ = 1 to reps do input a v done
      | S_map tbl, Spec.Map_acc nested ->
        (match v with
         | V.Vtuple [| k; nested_input |] ->
           let inst =
             match VH.find_opt tbl k with
             | Some inst -> inst
             | None ->
               let inst = create nested in
               VH.add tbl k inst;
               inst
           in
           if not (V.is_null nested_input) then input_mult inst nested_input mu
         | _ -> V.type_error "MapAccum: input must be a (key, value) pair")
      | S_group tbl, Spec.Group_by (nkeys, nested) ->
        let key, inputs = group_key_of_input nkeys v in
        let insts =
          match VH.find_opt tbl key with
          | Some insts -> insts
          | None ->
            let insts = Array.of_list (List.map create nested) in
            VH.add tbl key insts;
            insts
        in
        for i = 0 to Array.length inputs - 1 do
          if not (V.is_null inputs.(i)) then input_mult insts.(i) inputs.(i) mu
        done
      | (S_string _ | S_list _), _ ->
        let reps = mult_to_int mu "an order-dependent accumulator" in
        for _ = 1 to reps do input a v done
      | S_custom _, _ ->
        let reps = mult_to_int mu "a custom accumulator" in
        for _ = 1 to reps do input a v done
      | (S_minmax _ | S_bool _ | S_set _), _ -> input a v
      | (S_heap _ | S_map _ | S_group _), _ -> assert false

let sorted_values_of_tbl fold tbl =
  let l = fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> V.compare a b) l

let rec read a =
  match a.st, a.a_spec with
  | S_int n, _ -> V.Int n
  | S_float f, _ -> V.Float f
  | S_string s, _ -> V.Str s
  | S_minmax None, _ -> V.Null
  | S_minmax (Some v), _ -> v
  | S_avg (_, 0), _ -> V.Float 0.0
  | S_avg (sum, n), _ -> V.Float (sum /. float_of_int n)
  | S_bool b, _ -> V.Bool b
  | S_set tbl, _ -> V.Vlist (List.map fst (sorted_values_of_tbl VH.fold tbl))
  | S_bag tbl, _ ->
    V.Vlist
      (List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) (sorted_values_of_tbl VH.fold tbl))
  | S_list vec, _ -> V.Vlist (Pgraph.Vec.to_list vec)
  | S_map tbl, _ ->
    V.Vlist
      (List.map (fun (k, inst) -> V.Vtuple [| k; read inst |]) (sorted_values_of_tbl VH.fold tbl))
  | S_heap vec, _ -> V.Vlist (Pgraph.Vec.to_list vec)
  | S_custom (def, cur), _ ->
    (match def.Custom.finish with Some f -> f cur | None -> cur)
  | S_group tbl, _ ->
    V.Vlist
      (List.map
         (fun (key, insts) ->
           let keys = match key with V.Vtuple ks -> ks | _ -> assert false in
           V.Vtuple (Array.append keys (Array.map read insts)))
         (sorted_values_of_tbl VH.fold tbl))

let map_find a k =
  match a.st with
  | S_map tbl -> (match VH.find_opt tbl k with Some inst -> read inst | None -> V.Null)
  | _ -> invalid_arg "Acc.map_find: not a MapAccum"

let size a =
  match a.st with
  | S_set tbl -> VH.length tbl
  | S_bag tbl -> VH.fold (fun _ n acc -> acc + n) tbl 0
  | S_list vec | S_heap vec -> Pgraph.Vec.length vec
  | S_map tbl -> VH.length tbl
  | S_group tbl -> VH.length tbl
  | S_avg (_, n) -> n
  | S_int _ | S_float _ | S_string _ | S_minmax _ | S_bool _ | S_custom _ ->
    invalid_arg "Acc.size: scalar accumulator"

let assign a v =
  match a.st, a.a_spec with
  | S_int _, _ -> a.st <- S_int (V.to_int v)
  | S_float _, _ -> a.st <- S_float (V.to_float v)
  | S_string _, _ -> a.st <- S_string (V.to_string_exn v)
  | S_minmax _, _ -> a.st <- S_minmax (if V.is_null v then None else Some v)
  | S_avg _, _ -> a.st <- (if V.is_null v then S_avg (0.0, 0) else S_avg (V.to_float v, 1))
  | S_bool _, _ -> a.st <- S_bool (V.to_bool v)
  | S_set _, _ ->
    (match v with
     | V.Vlist l ->
       let tbl = VH.create 8 in
       List.iter (fun x -> if not (VH.mem tbl x) then VH.add tbl x ()) l;
       a.st <- S_set tbl
     | _ -> V.type_error "SetAccum: assignment expects a list")
  | S_bag _, _ ->
    (match v with
     | V.Vlist l ->
       let tbl = VH.create 8 in
       List.iter
         (fun x ->
           match VH.find_opt tbl x with
           | Some n -> VH.replace tbl x (n + 1)
           | None -> VH.add tbl x 1)
         l;
       a.st <- S_bag tbl
     | _ -> V.type_error "BagAccum: assignment expects a list")
  | S_list _, _ ->
    (match v with
     | V.Vlist l -> a.st <- S_list (Pgraph.Vec.of_list l)
     | _ -> V.type_error "ListAccum: assignment expects a list")
  | S_heap _, Spec.Heap_acc hs ->
    (match v with
     | V.Vlist l ->
       let vec = Pgraph.Vec.create () in
       a.st <- S_heap vec;
       List.iter (fun x -> heap_insert hs vec x) l
     | _ -> V.type_error "HeapAccum: assignment expects a list of tuples")
  | S_map _, _ ->
    (match v with
     | V.Vlist [] -> a.st <- S_map (VH.create 8)
     | _ -> V.type_error "MapAccum: only assignment of the empty list (clear) is supported")
  | S_group _, _ ->
    (match v with
     | V.Vlist [] -> a.st <- S_group (VH.create 8)
     | _ -> V.type_error "GroupByAccum: only assignment of the empty list (clear) is supported")
  | S_custom (def, _), _ -> a.st <- S_custom (def, v)
  | S_heap _, _ -> assert false

let rec copy a =
  let st =
    match a.st with
    | S_int _ | S_float _ | S_string _ | S_minmax _ | S_avg _ | S_bool _ | S_custom _ -> a.st
    | S_set tbl -> S_set (VH.copy tbl)
    | S_bag tbl -> S_bag (VH.copy tbl)
    | S_list vec -> S_list (Pgraph.Vec.copy vec)
    | S_heap vec -> S_heap (Pgraph.Vec.copy vec)
    | S_map tbl ->
      let t = VH.create (VH.length tbl) in
      VH.iter (fun k inst -> VH.add t k (copy inst)) tbl;
      S_map t
    | S_group tbl ->
      let t = VH.create (VH.length tbl) in
      VH.iter (fun k insts -> VH.add t k (Array.map copy insts)) tbl;
      S_group t
  in
  { a_spec = a.a_spec; st }

let rec merge ~into src =
  if into.a_spec <> src.a_spec then invalid_arg "Acc.merge: accumulator spec mismatch";
  match into.st, src.st with
  | S_int x, S_int y -> into.st <- S_int (x + y)
  | S_float x, S_float y -> into.st <- S_float (x +. y)
  | S_string x, S_string y -> into.st <- S_string (x ^ y)
  | S_minmax _, S_minmax None -> ()
  | S_minmax _, S_minmax (Some v) -> input into v
  | S_avg (s1, n1), S_avg (s2, n2) -> into.st <- S_avg (s1 +. s2, n1 + n2)
  | S_bool x, S_bool y ->
    into.st <- S_bool (match into.a_spec with Spec.Or_acc -> x || y | _ -> x && y)
  | S_set dst, S_set s -> VH.iter (fun k () -> if not (VH.mem dst k) then VH.add dst k ()) s
  | S_bag dst, S_bag s ->
    VH.iter
      (fun k n ->
        match VH.find_opt dst k with
        | Some m -> VH.replace dst k (m + n)
        | None -> VH.add dst k n)
      s
  | S_list dst, S_list s -> Pgraph.Vec.iter (Pgraph.Vec.push dst) s
  | S_heap _, S_heap s -> Pgraph.Vec.iter (fun v -> input into v) s
  | S_map dst, S_map s ->
    VH.iter
      (fun k inst ->
        match VH.find_opt dst k with
        | Some existing -> merge ~into:existing inst
        | None -> VH.add dst k (copy inst))
      s
  | S_group dst, S_group s ->
    VH.iter
      (fun k insts ->
        match VH.find_opt dst k with
        | Some existing -> Array.iteri (fun i inst -> merge ~into:existing.(i) inst) insts
        | None -> VH.add dst k (Array.map copy insts))
      s
  | S_custom (def, x), S_custom (_, y) -> into.st <- S_custom (def, def.Custom.combine x y)
  | _ -> assert false

let reset a = a.st <- (create a.a_spec).st

let equal a b = a.a_spec = b.a_spec && V.equal (read a) (read b)

let pp fmt a = V.pp fmt (read a)
