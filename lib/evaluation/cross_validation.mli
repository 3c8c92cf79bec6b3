(** k-fold cross-validation (Section 6.1: 10-fold everywhere, 5-fold on UW):
    positives and negatives are folded separately (stratified); background
    knowledge is shared and only examples split — the standard ILP
    protocol. *)

type learner = {
  name : string;
  run :
    rng:Random.State.t ->
    train_pos:Relational.Relation.tuple list ->
    train_neg:Relational.Relation.tuple list ->
    Logic.Clause.definition * Budget.status;
      (** returns the definition and why the run ended *)
}

type fold_result = {
  fold : int;
  metrics : Metrics.t;
  learn_time : float;  (** seconds, on the {!Budget.now} clock *)
  status : Budget.status;
  definition : Logic.Clause.definition;
}

type result = {
  folds : fold_result list;
  mean_metrics : Metrics.t;
  mean_time : float;
  any_timed_out : bool;  (** some fold's status is not [Completed] *)
}

(** [run ?pool ?k learner cov ~rng ~positives ~negatives] cross-validates
    [learner]; [cov] only scores held-out folds. [k] defaults to 10,
    clamped so every fold holds a positive. With [pool], folds run
    concurrently, each on a private RNG split deterministically from [rng]
    — the result is identical for every pool size (the sequential path
    keeps the historical one-RNG-through-all-folds behaviour). *)
val run :
  ?pool:Parallel.Pool.t ->
  ?k:int ->
  learner ->
  Learning.Coverage.t ->
  rng:Random.State.t ->
  positives:Relational.Relation.tuple list ->
  negatives:Relational.Relation.tuple list ->
  result

(** [format_time s] renders seconds the way the paper's tables do ("6.6s",
    "3.21m", "2.7h"). *)
val format_time : float -> string

val pp_result : Format.formatter -> result -> unit
