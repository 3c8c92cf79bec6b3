(** Lock-free metrics registry. See metrics.mli for the contract.

    Registration takes the registry mutex (cold path, idempotent by name);
    bumps touch only atomics owned by the handle. Histograms keep a count
    per fixed bucket plus sum/count/max; float cells are updated by CAS
    retry loops (OCaml atomics compare boxed floats by physical identity,
    so the loop re-reads the exact box it is replacing). *)

type counter = { c_name : string; cell : int Atomic.t }

(* Log-spaced bucket upper bounds, seconds: 1µs · 2^k. The last bound is
   ~67s; observations beyond it land in the overflow bucket and percentile
   estimates above it fall back to the exact max. *)
let bucket_bounds =
  Array.init 27 (fun k -> 1e-6 *. Float.of_int (1 lsl k))

type histogram = {
  h_name : string;
  buckets : int Atomic.t array;  (** length = Array.length bucket_bounds + 1 *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_max : float Atomic.t;
}

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = make () in
        Hashtbl.replace tbl name h;
        h
  in
  Mutex.unlock lock;
  h

let counter name =
  registered counters name (fun () -> { c_name = name; cell = Atomic.make 0 })

let bump c = Atomic.incr c.cell
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.cell n)
let counter_value c = Atomic.get c.cell

let histogram name =
  registered histograms name (fun () ->
      {
        h_name = name;
        buckets =
          Array.init (Array.length bucket_bounds + 1) (fun _ -> Atomic.make 0);
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0.;
        h_max = Atomic.make 0.;
      })

let rec atomic_add_float cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then
    atomic_add_float cell x

let rec atomic_max_float cell x =
  let cur = Atomic.get cell in
  if x > cur && not (Atomic.compare_and_set cell cur x) then
    atomic_max_float cell x

(* Bucket index by binary search over the fixed bounds (first bound >= v);
   the overflow bucket is the final slot. *)
let bucket_index v =
  let n = Array.length bucket_bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bucket_bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  let v = Float.max 0. v in
  Atomic.incr h.buckets.(bucket_index v);
  Atomic.incr h.h_count;
  atomic_add_float h.h_sum v;
  atomic_max_float h.h_max v

let time h f =
  let t0 = Budget.now () in
  Fun.protect ~finally:(fun () -> observe h (Budget.now () -. t0)) f

type histogram_snapshot = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let quantile ~counts ~total ~max_ q =
  if total = 0 then 0.
  else begin
    let target = Float.to_int (Float.round (q *. Float.of_int total)) in
    let target = Stdlib.max 1 target in
    let acc = ref 0 and i = ref 0 and result = ref max_ in
    let n = Array.length counts in
    (try
       while !i < n do
         acc := !acc + counts.(!i);
         if !acc >= target then begin
           result :=
             (if !i < Array.length bucket_bounds then bucket_bounds.(!i)
              else max_);
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    Float.min !result max_
  end

let snapshot_histogram h =
  let counts = Array.map Atomic.get h.buckets in
  let total = Atomic.get h.h_count in
  let max_ = Atomic.get h.h_max in
  {
    count = total;
    sum = Atomic.get h.h_sum;
    p50 = quantile ~counts ~total ~max_ 0.50;
    p95 = quantile ~counts ~total ~max_ 0.95;
    p99 = quantile ~counts ~total ~max_ 0.99;
    max = max_;
  }

let snapshot () =
  Mutex.lock lock;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) counters [] in
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) histograms [] in
  Mutex.unlock lock;
  {
    counters =
      List.map (fun c -> (c.c_name, Atomic.get c.cell)) cs
      |> List.sort compare;
    histograms =
      List.map (fun h -> (h.h_name, snapshot_histogram h)) hs
      |> List.sort compare;
  }

let counters_leq a b =
  List.for_all
    (fun (name, v) ->
      match List.assoc_opt name b.counters with
      | Some v' -> v <= v'
      | None -> false)
    a.counters

(* Exact sample percentile (nearest-rank on a sorted copy), unlike the
   registry histograms whose estimates carry one log-bucket of error — the
   serving bench reports its p50/p95/p99 latencies from raw samples. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let q = Float.max 0. (Float.min 1. q) in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int h.count);
                     ("sum_s", Json.Float h.sum);
                     ("p50_s", Json.Float h.p50);
                     ("p95_s", Json.Float h.p95);
                     ("p99_s", Json.Float h.p99);
                     ("max_s", Json.Float h.max);
                   ] ))
             s.histograms) );
    ]

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun b -> Atomic.set b 0) h.buckets;
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0.;
      Atomic.set h.h_max 0.)
    histograms;
  Mutex.unlock lock
