(* Order statistics shared by the workloads and by [compare]. *)

(* Nearest-rank median; 0 on no samples. *)
let median samples = Obs.Metrics.percentile samples 0.5

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes them
   (the "exclusive" method), so the spreads [compare] prints are the ones
   a reader recomputes from the same values. Needs at least one sample. *)
let quartiles samples =
  let d = Array.copy samples in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median: the spread the
   bounds are checked against. *)
let spread samples =
  let q1, q2, q3 = quartiles samples in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

type verdict = Gain | Ok | Regressed | Unresolved

let verdict_to_string = function
  | Gain -> "gain"
  | Ok -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* The rule for a change measured against its parent, from alternating
   pairs [parent.(i)] / [change.(i)]:
   - the spread of either side wider than [bound] leaves the metric
     unresolved, unless every change run reads better than every parent
     run;
   - a change median worse than the parent's by more than [bound] (a share
     of the parent's median) is a regression;
   - a gain needs at least ten pairs, at least nine tenths of them won
     (ties count for neither side), and a median gap wider than the
     parent's inter-quartile distance. *)
let verdict ~higher_better ~bound ~parent ~change =
  let better a b = if higher_better then a > b else a < b in
  let pm = median parent and cm = median change in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent) change
  in
  let q1, _, q3 = quartiles parent in
  let worse_by = (if higher_better then pm -. cm else cm -. pm) /. Float.abs pm in
  if Float.max (spread parent) (spread change) > bound && not all_better then
    Unresolved
  else if worse_by > bound then Regressed
  else if
    pairs >= 10
    && 10 * !wins >= 9 * pairs
    && better cm pm
    && Float.abs (cm -. pm) > q3 -. q1
  then Gain
  else Ok
