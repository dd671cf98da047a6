exception Error of string

type entry = {
  query : Ast.query;
  info : Analyze.info;
  plan : Compile.plan;
  generation : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (* reverse installation order *)
  mutable next_gen : int;
  lock : Mutex.t;
  (* Guards entries/order/next_gen.  Plans themselves are immutable, so a
     reader holding an [entry] keeps a consistent (query, plan, generation)
     triple even while a reinstall swaps the name to a new one. *)
}

let create () =
  { entries = Hashtbl.create 16;
    order = [];
    next_gen = 0;
    lock = Mutex.create () }

let locked cat f =
  Mutex.lock cat.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cat.lock) f

let analyze (q : Ast.query) =
  let info = Analyze.check_query q in
  (match info.Analyze.errors with
   | [] -> ()
   | errs ->
     raise
       (Error (Printf.sprintf "query %s failed analysis: %s" q.Ast.q_name (String.concat "; " errs))));
  info

let compile_entry ?schema (q : Ast.query) =
  let info = analyze q in
  let plan =
    try Compile.compile ?schema q
    with Eval.Runtime_error msg ->
      raise (Error (Printf.sprintf "query %s failed to compile: %s" q.Ast.q_name msg))
  in
  (info, plan)

let install_query ?schema cat (q : Ast.query) =
  let info, plan = compile_entry ?schema q in
  locked cat (fun () ->
      if Hashtbl.mem cat.entries q.Ast.q_name then
        raise (Error (Printf.sprintf "query %s is already installed" q.Ast.q_name));
      let generation = cat.next_gen in
      cat.next_gen <- generation + 1;
      Hashtbl.replace cat.entries q.Ast.q_name { query = q; info; plan; generation };
      cat.order <- q.Ast.q_name :: cat.order)

(* Reinstall without a window where the name is missing or where the new
   plan is visible under the old generation: analysis and compilation
   happen outside the lock, the entry swap (plan + generation together) is
   one mutation under it. *)
let replace_query ?schema cat (q : Ast.query) =
  let info, plan = compile_entry ?schema q in
  locked cat (fun () ->
      let fresh = not (Hashtbl.mem cat.entries q.Ast.q_name) in
      let generation = cat.next_gen in
      cat.next_gen <- generation + 1;
      Hashtbl.replace cat.entries q.Ast.q_name { query = q; info; plan; generation };
      if fresh then cat.order <- q.Ast.q_name :: cat.order)

let install ?schema cat source =
  let program =
    try Parser.parse_program source with Parser.Error msg -> raise (Error msg)
  in
  if program = [] then raise (Error "no CREATE QUERY definitions in source");
  List.iter (install_query ?schema cat) program;
  List.map (fun (q : Ast.query) -> q.Ast.q_name) program

let names cat = locked cat (fun () -> List.rev cat.order)

let find_entry cat name = locked cat (fun () -> Hashtbl.find_opt cat.entries name)

let find cat name = Option.map (fun e -> e.query) (find_entry cat name)

let mem cat name = locked cat (fun () -> Hashtbl.mem cat.entries name)

let drop cat name =
  locked cat (fun () ->
      if Hashtbl.mem cat.entries name then begin
        Hashtbl.remove cat.entries name;
        cat.order <- List.filter (fun n -> n <> name) cat.order
      end)

let get cat name =
  match find_entry cat name with
  | Some e -> e
  | None -> raise (Error (Printf.sprintf "no installed query named %s" name))

type installed = {
  i_query : Ast.query;
  i_info : Analyze.info;
  i_plan : Compile.plan;
  i_generation : int;
}

(* One lock acquisition — callers get a consistent (query, plan,
   generation) snapshot even against concurrent reinstalls. *)
let lookup cat name =
  Option.map
    (fun e ->
      { i_query = e.query;
        i_info = e.info;
        i_plan = e.plan;
        i_generation = e.generation })
    (find_entry cat name)

(* Re-resolve every plan's static specializations against a new schema
   (service graph reload).  Generations advance: the plans changed. *)
let recompile ?schema cat =
  let entries = locked cat (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) cat.entries []) in
  List.iter (fun e -> replace_query ?schema cat e.query) entries

let run cat g ?semantics ~params name =
  let e = get cat name in
  try Compile.run e.plan ?semantics ~params g
  with Eval.Runtime_error msg -> raise (Error (Printf.sprintf "%s: %s" name msg))

let info_of cat name = (get cat name).info

let plan_of cat name = (get cat name).plan

let generation_of cat name = (get cat name).generation

let source_of cat name = Pretty.query (get cat name).query

let signature_of cat name =
  List.map (fun (p : Ast.param) -> (p.Ast.p_name, p.Ast.p_ty)) (get cat name).query.Ast.q_params
