(** k-fold cross-validation (Section 6.1: 10-fold everywhere, 5-fold on UW).

    Positives and negatives are split into [k] folds separately (stratified),
    each fold serves once as the test set, the learner runs on the remaining
    folds, and the learned definition is scored on the held-out fold with
    coverage testing over the full database (background knowledge is shared,
    only examples are split — the standard ILP protocol). *)

type learner = {
  name : string;
  run :
    rng:Random.State.t ->
    train_pos:Relational.Relation.tuple list ->
    train_neg:Relational.Relation.tuple list ->
    Logic.Clause.definition * Budget.status;
      (** returns the definition and why the run ended *)
}
(** A learner under evaluation. The coverage context (bias, sampling, ground
    BCs) is baked into [run] by the caller; cross-validation only shuffles
    examples. *)

type fold_result = {
  fold : int;
  metrics : Metrics.t;
  learn_time : float;
  status : Budget.status;
  definition : Logic.Clause.definition;
}

type result = {
  folds : fold_result list;
  mean_metrics : Metrics.t;
  mean_time : float;
  any_timed_out : bool;
}

let split_folds rng k l =
  let arr = Array.of_list (Datasets.Dataset.shuffle rng l) in
  let folds = Array.make k [] in
  Array.iteri (fun i x -> folds.(i mod k) <- x :: folds.(i mod k)) arr;
  Array.to_list folds

(** [run ?pool ?k learner cov ~rng ~positives ~negatives] cross-validates
    [learner]. [cov] is used only for {e scoring} on held-out folds; the
    learner brings its own coverage context. [k] defaults to 10 and is
    clamped so every fold holds at least one positive.

    With [pool], folds run concurrently across the pool's domains; each
    fold draws a private [Random.State] derived deterministically from
    [rng], so the parallel result is identical for every pool size (it
    differs from the sequential result, which threads one RNG through the
    folds in order — the historical behaviour, kept bit-identical). *)
let run ?pool ?(k = 10) learner cov ~rng ~positives ~negatives =
  let k = max 2 (min k (List.length positives)) in
  let pos_folds = Array.of_list (split_folds rng k positives) in
  let neg_folds = Array.of_list (split_folds rng k negatives) in
  let run_fold ~rng fold =
    let test_pos = pos_folds.(fold) and test_neg = neg_folds.(fold) in
    let train_pos =
      List.concat (List.filteri (fun i _ -> i <> fold) (Array.to_list pos_folds))
    and train_neg =
      List.concat (List.filteri (fun i _ -> i <> fold) (Array.to_list neg_folds))
    in
    let t0 = Budget.now () in
    let definition, status = learner.run ~rng ~train_pos ~train_neg in
    let learn_time = Budget.now () -. t0 in
    let metrics =
      Metrics.evaluate cov definition ~positives:test_pos ~negatives:test_neg
    in
    { fold; metrics; learn_time; status; definition }
  in
  let folds =
    match pool with
    | None ->
        (* explicit ascending recursion: the shared RNG must see the folds
           in the same order as the historical for-loop *)
        let rec go fold =
          if fold >= k then []
          else
            let r = run_fold ~rng fold in
            r :: go (fold + 1)
        in
        go 0
    | Some _ ->
        let base = Random.State.bits rng in
        Parallel.Par.parallel_map ?pool
          (fun fold ->
            run_fold ~rng:(Random.State.make [| base; fold |]) fold)
          (List.init k Fun.id)
  in
  {
    folds;
    mean_metrics = Metrics.mean (List.map (fun f -> f.metrics) folds);
    mean_time =
      List.fold_left (fun acc f -> acc +. f.learn_time) 0. folds
      /. float_of_int (List.length folds);
    any_timed_out = List.exists (fun f -> f.status <> Budget.Completed) folds;
  }

(** [format_time s] renders seconds the way the paper's tables do
    (e.g. "6.6s", "3.21m", "2.7h"). *)
let format_time s =
  if s >= 3600. then Printf.sprintf "%.1fh" (s /. 3600.)
  else if s >= 60. then Printf.sprintf "%.2fm" (s /. 60.)
  else Printf.sprintf "%.1fs" s

let pp_result ppf r =
  Fmt.pf ppf "%a time=%s%s" Metrics.pp_row r.mean_metrics
    (format_time r.mean_time)
    (if r.any_timed_out then " (timed out)" else "")
