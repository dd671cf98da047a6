module V = Pgraph.Value
module B = Pgraph.Bignat

type target =
  | Global of string
  | Vertex_acc of string * int

type vertex_family = {
  vf_spec : Spec.t;
  vf_insts : (int, Acc.t) Hashtbl.t;  (* created on first touch; growable so
                                         vertices inserted mid-query still
                                         get instances *)
  mutable vf_init : V.t option;
}

type t = {
  globals : (string, Acc.t) Hashtbl.t;
  vertex_families : (string, vertex_family) Hashtbl.t;
  prev_globals : (string, V.t) Hashtbl.t;
  prev_vertex : (string, (int, V.t) Hashtbl.t) Hashtbl.t;
  touch_lock : Mutex.t;
      (* guards first-touch instance creation in [vertex_acc]: the
         per-source path fan-out (Pathsem.Engine.match_pairs) evaluates
         pushed-down destination predicates on several domains at once,
         and one that reads a vertex accumulator ([WHERE t.@seen == 0])
         reaches [vertex_acc]; a concurrent [Hashtbl.replace] on
         [vf_insts] would corrupt the table.  Everything else on the
         store stays single-domain (ops are buffered or applied by the
         driver's ACCUM loop, and commits run on the driver). *)
}

type op =
  | Op_input of target * V.t * B.t
  | Op_assign of target * V.t

type phase = {
  ph_store : t;
  ops : op Pgraph.Vec.t;
  mutable direct_merges : int;   (* applied now by [apply_input] *)
  mutable direct_assigns : int;
}

let create () =
  { globals = Hashtbl.create 8;
    vertex_families = Hashtbl.create 8;
    prev_globals = Hashtbl.create 8;
    prev_vertex = Hashtbl.create 8;
    touch_lock = Mutex.create () }

let declare_global t name spec = Hashtbl.replace t.globals name (Acc.create spec)

let declare_vertex t name spec ~n_vertices =
  ignore n_vertices;
  Hashtbl.replace t.vertex_families name
    { vf_spec = spec; vf_insts = Hashtbl.create 64; vf_init = None }

let global_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.globals [] |> List.sort compare
let vertex_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.vertex_families [] |> List.sort compare

let is_global t name = Hashtbl.mem t.globals name
let is_vertex t name = Hashtbl.mem t.vertex_families name

let global_acc t name = Hashtbl.find t.globals name

let vertex_acc t name v =
  let fam = Hashtbl.find t.vertex_families name in
  match Hashtbl.find_opt fam.vf_insts v with
  | Some a -> a
  | None ->
    Mutex.lock t.touch_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.touch_lock)
      (fun () ->
        (* Re-check under the lock: another domain may have created the
           instance between our lock-free probe and acquiring it. *)
        match Hashtbl.find_opt fam.vf_insts v with
        | Some a -> a
        | None ->
          let a = Acc.create fam.vf_spec in
          (match fam.vf_init with Some init -> Acc.assign a init | None -> ());
          Hashtbl.replace fam.vf_insts v a;
          a)

let set_vertex_init t name init =
  let fam = Hashtbl.find t.vertex_families name in
  fam.vf_init <- Some init;
  (* Also reset instances that already exist. *)
  Hashtbl.iter (fun _ a -> Acc.assign a init) fam.vf_insts

let read t = function
  | Global name -> Acc.read (global_acc t name)
  | Vertex_acc (name, v) -> Acc.read (vertex_acc t name v)

let assign_now t target v =
  match target with
  | Global name -> Acc.assign (global_acc t name) v
  | Vertex_acc (name, vid) -> Acc.assign (vertex_acc t name vid) v

let input_now t target v =
  match target with
  | Global name -> Acc.input (global_acc t name) v
  | Vertex_acc (name, vid) -> Acc.input (vertex_acc t name vid) v

let input_mult_now t target v mu =
  match target with
  | Global name -> Acc.input_mult (global_acc t name) v mu
  | Vertex_acc (name, vid) -> Acc.input_mult (vertex_acc t name vid) v mu

let begin_phase t =
  { ph_store = t; ops = Pgraph.Vec.create (); direct_merges = 0; direct_assigns = 0 }

let buffer_input ph target v mu = Pgraph.Vec.push ph.ops (Op_input (target, v, mu))
let buffer_assign ph target v = Pgraph.Vec.push ph.ops (Op_assign (target, v))

let apply_input ph target v mu =
  ph.direct_merges <- ph.direct_merges + 1;
  input_mult_now ph.ph_store target v mu

let apply_assign ph target v =
  ph.direct_assigns <- ph.direct_assigns + 1;
  assign_now ph.ph_store target v

(* Telemetry (docs/OBSERVABILITY.md): merge/assign totals of the phase,
   buffered and directly applied alike.  The counters are registry
   handles created once; feeding them is a boolean check while telemetry
   is off. *)
let m_commits = Obs.Metrics.counter "accum.commits"
let m_merge_ops = Obs.Metrics.counter "accum.merge_ops"
let m_assign_ops = Obs.Metrics.counter "accum.assign_ops"
let h_commit_ops = Obs.Metrics.histogram "accum.ops_per_commit"

let commit t ph =
  if not (ph.ph_store == t) then invalid_arg "Store.commit: phase belongs to a different store";
  let merges = ref ph.direct_merges and assigns = ref ph.direct_assigns in
  Pgraph.Vec.iter
    (function
      | Op_input (target, v, mu) ->
        incr merges;
        input_mult_now t target v mu
      | Op_assign (target, v) ->
        incr assigns;
        assign_now t target v)
    ph.ops;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_commits 1;
    Obs.Metrics.incr m_merge_ops !merges;
    Obs.Metrics.incr m_assign_ops !assigns;
    Obs.Metrics.observe h_commit_ops (float_of_int (!merges + !assigns))
  end;
  if Obs.Trace.enabled () then begin
    (* Report into whatever span the evaluator opened around this phase. *)
    Obs.Trace.add_count "merge_ops" !merges;
    Obs.Trace.add_count "assign_ops" !assigns;
    Obs.Trace.add_count "commits" 1
  end;
  Pgraph.Vec.clear ph.ops;
  ph.direct_merges <- 0;
  ph.direct_assigns <- 0

let pending_ops ph = Pgraph.Vec.length ph.ops

let family_default fam =
  match fam.vf_init with
  | Some init -> init
  | None -> Spec.default_value fam.vf_spec

let save_prev t names =
  List.iter
    (fun name ->
      if Hashtbl.mem t.globals name then
        Hashtbl.replace t.prev_globals name (Acc.read (global_acc t name))
      else
        match Hashtbl.find_opt t.vertex_families name with
        | Some fam ->
          let snap = Hashtbl.create (Hashtbl.length fam.vf_insts) in
          Hashtbl.iter (fun vid a -> Hashtbl.replace snap vid (Acc.read a)) fam.vf_insts;
          Hashtbl.replace t.prev_vertex name snap
        | None -> ())
    names

let read_prev t = function
  | Global name ->
    (match Hashtbl.find_opt t.prev_globals name with
     | Some v -> v
     | None -> Spec.default_value (Acc.spec (global_acc t name)))
  | Vertex_acc (name, vid) ->
    let fam = Hashtbl.find t.vertex_families name in
    (match Hashtbl.find_opt t.prev_vertex name with
     | Some snap ->
       (match Hashtbl.find_opt snap vid with
        | Some v -> v
        | None -> family_default fam)
     | None -> family_default fam)

let reset_all t =
  Hashtbl.iter (fun _ a -> Acc.reset a) t.globals;
  Hashtbl.iter
    (fun _ fam ->
      Hashtbl.iter
        (fun _ a ->
          Acc.reset a;
          match fam.vf_init with Some init -> Acc.assign a init | None -> ())
        fam.vf_insts)
    t.vertex_families;
  Hashtbl.reset t.prev_globals;
  Hashtbl.reset t.prev_vertex
