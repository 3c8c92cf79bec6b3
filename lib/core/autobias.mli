(** AutoBias — the paper's system, end to end: pick a bias-setting method
    and a sampling strategy, and learn a Horn definition of a dataset's
    target relation. The five methods are the columns of Table 5. *)

(** How the language bias is obtained. *)
type method_ =
  | Castor  (** no real bias: one universal type, constants everywhere *)
  | No_const  (** universal type, constants forbidden *)
  | Manual  (** the expert-written bias shipped with the dataset *)
  | Foil  (** top-down FOIL (the Aleph emulation), on the manual bias *)
  | Auto_bias  (** the paper's contribution: bias induced from the data *)

val equal_method_ : method_ -> method_ -> bool
val pp_method_ : Format.formatter -> method_ -> unit
val method_to_string : method_ -> string

(** @raise Invalid_argument on unknown names. Accepts "castor", "noconst",
    "manual", "aleph"/"foil", "autobias". *)
val method_of_string : string -> method_

val all_methods : method_ list

type config = {
  strategy : Sampling.Strategy.t;
  bc_depth : int;  (** bottom-clause iterations d *)
  sample_size : int;  (** tuples per mode (paper: 20) *)
  max_body_literals : int;
  beam_width : int;
  generalization_sample : int;
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;  (** per learning run / per fold *)
  constant_threshold : Discovery.Generate.threshold;  (** paper: Relative 0.18 *)
  ind_max_error : float;  (** α for approximate INDs (paper: 0.5) *)
  use_approximate_inds : bool;  (** ablation knob; the paper always uses them *)
  coverage_cache : bool;
      (** memoize coverage verdicts (default [true]); verdicts are pure, so
          learned definitions are identical either way — [false] gives an
          uncached context for A/B measurement *)
  pruning : bool;
      (** learn failure constraints from rejected candidates and probe them
          before evaluating (default [true]); verdict-preserving, so learned
          definitions are bit-identical either way — [false] is the A/B
          baseline *)
  budget : Budget.t option;
      (** run governance (deadline + cancellation + degradation counters)
          for every method, {!Foil} included: cancelling it stops any
          learning entry point cooperatively; each run still scopes its own
          [timeout]-bounded child. [None] (the default) = private budgets. *)
  pool : Parallel.Pool.t option;
      (** domain pool threaded into the learner's hot paths (ARMG
          candidate generation, candidate evaluation, acceptance counting,
          CV folds); [None] = sequential.
          Learned definitions are identical for every pool size. *)
  checkpoint : (Resilience.Checkpoint.t -> [ `Written | `Skipped ]) option;
      (** clause-boundary checkpoint sink threaded to the learner, called
          at every boundary ([--checkpoint FILE] stamps the snapshot with
          {!fingerprint} and saves it with {!Resilience.Checkpoint.save});
          [None] (the default) disables checkpointing *)
  resume : Resilience.Checkpoint.t option;
      (** resume the learner from a validated prior snapshot; the resumed
          run is bit-identical to the uninterrupted one at the same seed *)
}

(** Defaults follow Section 6.1. *)
val default_config : config

(** [fingerprint ~dataset ~scale ~method_ config ~seed] digests the run
    setup (dataset name and scale, method, strategy, learner knobs, seed)
    into a short hex string for {!Resilience.Checkpoint.validate}. *)
val fingerprint :
  dataset:string -> scale:float -> method_:method_ -> config -> seed:int ->
  string

type bias_info = {
  bias : Bias.Language.t;
  induction : Discovery.Generate.result option;  (** only for {!Auto_bias} *)
  bias_time : float;  (** seconds spent producing the bias *)
}

(** [bias_for method_ config dataset ~train_pos] produces a method's
    language bias; for {!Auto_bias} this runs the full Section 3 pipeline
    over the database plus [train_pos]. *)
val bias_for :
  method_ ->
  config ->
  Datasets.Dataset.t ->
  train_pos:Relational.Relation.tuple list ->
  bias_info

(** Plumbing between {!config} and the per-library config records. *)
val bc_config : config -> Learning.Bottom_clause.config

val learn_config : config -> Learning.Learn.config
val foil_config : config -> Baselines.Foil.config

(** [coverage_context config dataset bias ~rng] builds the coverage-testing
    context (ground bottom clauses cached inside). *)
val coverage_context :
  config -> Datasets.Dataset.t -> Bias.Language.t -> rng:Random.State.t ->
  Learning.Coverage.t

type run_result = {
  definition : Logic.Clause.definition;
  bias_info : bias_info;
  learn_time : float;
  degradation : Budget.degradation;
      (** why the run ended ([Completed] or not: the paper's ">10h" cells)
          and the budget accounting for it *)
}

(** [learn_once ?config method_ dataset ~rng ~train_pos ~train_neg] learns a
    definition on one training split, under [config.budget] (attached to
    the learner's coverage context only) scoped to [config.timeout]. *)
val learn_once :
  ?config:config ->
  method_ ->
  Datasets.Dataset.t ->
  rng:Random.State.t ->
  train_pos:Relational.Relation.tuple list ->
  train_neg:Relational.Relation.tuple list ->
  run_result

(** [cross_validate ?config ?k method_ dataset ~seed] runs the dataset's
    k-fold protocol for one method (one cell group of Table 5); the bias is
    induced per fold from that fold's training positives. *)
val cross_validate :
  ?config:config ->
  ?k:int ->
  method_ ->
  Datasets.Dataset.t ->
  seed:int ->
  Evaluation.Cross_validation.result
