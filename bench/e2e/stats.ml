(* Order statistics shared by the benchmark and the comparison tool. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array ([p] in [0, 1]); nan when
   empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (sorted xs) 0.5

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so spreads printed here match the ones an
   outside script computes from the same runs.  Needs two or more values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Within-run spread: (max - min) / median over a few sub-window values. *)
let range_frac xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = median xs in
    let lo = List.fold_left Float.min Float.infinity xs in
    let hi = List.fold_left Float.max Float.neg_infinity xs in
    if m = 0.0 then 0.0 else (hi -. lo) /. Float.abs m
