(* Handles do not carry their name: the registry key is the single source
   of naming, and {!dump} reads it from there.

   Domain-safety: the master switch is an atomic read first in every
   recording call — the disabled path is one load + branch, no allocation,
   no lock.  Enabled-path mutation, registration and snapshotting all run
   under one global mutex; the instruments are simple scalar cells, so a
   single lock (held for a few loads/stores) beats per-instrument or
   striped locks at this registry's size. *)
type counter = { mutable c_value : int }
type gauge = { mutable g_value : float; mutable g_set : bool }

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let switch = Atomic.make false
let enabled () = Atomic.get switch
let set_enabled b = Atomic.set switch b

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_value = 0 } in
        Hashtbl.replace counters name c;
        c)

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
        let g = { g_value = 0.0; g_set = false } in
        Hashtbl.replace gauges name g;
        g)

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h = { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity } in
        Hashtbl.replace histograms name h;
        h)

(* The recording bodies cannot raise, so bare lock/unlock (no Fun.protect
   closure allocation) is safe on these hot paths. *)
let incr c n =
  if Atomic.get switch then begin
    Mutex.lock lock;
    c.c_value <- c.c_value + n;
    Mutex.unlock lock
  end

let set_gauge g v =
  if Atomic.get switch then begin
    Mutex.lock lock;
    g.g_value <- v;
    g.g_set <- true;
    Mutex.unlock lock
  end

let observe h v =
  if Atomic.get switch then begin
    Mutex.lock lock;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    Mutex.unlock lock
  end

let time h f =
  if Atomic.get switch then begin
    let t0 = Unix.gettimeofday () in
    let finally () = observe h ((Unix.gettimeofday () -. t0) *. 1000.0) in
    Fun.protect ~finally f
  end
  else f ()

let value c = locked (fun () -> c.c_value)
let gauge_value g = locked (fun () -> g.g_value)
let hist_count h = locked (fun () -> h.h_count)
let hist_sum h = locked (fun () -> h.h_sum)
let hist_min h = locked (fun () -> if h.h_count = 0 then Float.nan else h.h_min)
let hist_max h = locked (fun () -> if h.h_count = 0 then Float.nan else h.h_max)

let hist_mean h =
  locked (fun () -> if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
      Hashtbl.iter
        (fun _ g ->
          g.g_value <- 0.0;
          g.g_set <- false)
        gauges;
      Hashtbl.iter
        (fun _ h ->
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
        histograms)

let sorted_fold tbl live render =
  Hashtbl.fold (fun name v acc -> if live v then (name, render v) :: acc else acc) tbl []
  |> List.sort compare

let dump () =
  locked (fun () ->
      let cs = sorted_fold counters (fun c -> c.c_value <> 0) (fun c -> Json.Int c.c_value) in
      let gs = sorted_fold gauges (fun g -> g.g_set) (fun g -> Json.Float g.g_value) in
      let hs =
        sorted_fold histograms
          (fun h -> h.h_count > 0)
          (fun h ->
            Json.Obj
              [ ("count", Json.Int h.h_count);
                ("sum", Json.Float h.h_sum);
                ("min", Json.Float h.h_min);
                ("max", Json.Float h.h_max);
                ("mean", Json.Float (h.h_sum /. float_of_int h.h_count)) ])
      in
      Json.Obj
        [ ("counters", Json.Obj cs); ("gauges", Json.Obj gs); ("histograms", Json.Obj hs) ])
