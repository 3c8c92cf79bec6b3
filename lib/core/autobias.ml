(** AutoBias — the paper's system, end to end.

    This facade ties the substrates together: given a {!Datasets.Dataset.t}
    (or your own database + examples), pick a {e bias-setting method} and a
    {e sampling strategy}, and learn a Horn definition of the target
    relation. The five methods are the columns of Table 5:

    - {!Castor}: no real bias — one universal type, every attribute may be a
      variable or a constant;
    - {!No_const}: universal type, constants forbidden;
    - {!Manual}: the expert-written bias shipped with the dataset;
    - {!Foil}: top-down FOIL (the Aleph emulation), using the manual bias;
    - {!Auto_bias}: the paper's contribution — bias induced from exact and
      approximate INDs (type graph) and attribute cardinalities
      (constant-threshold). *)

type method_ =
  | Castor
  | No_const
  | Manual
  | Foil
  | Auto_bias
[@@deriving eq, show { with_path = false }]

let method_to_string = function
  | Castor -> "castor"
  | No_const -> "noconst"
  | Manual -> "manual"
  | Foil -> "aleph"
  | Auto_bias -> "autobias"

let method_of_string = function
  | "castor" -> Castor
  | "noconst" -> No_const
  | "manual" -> Manual
  | "aleph" | "foil" -> Foil
  | "autobias" -> Auto_bias
  | s -> invalid_arg ("Autobias.method_of_string: " ^ s)

let all_methods = [ Castor; No_const; Manual; Foil; Auto_bias ]

type config = {
  strategy : Sampling.Strategy.t;
  bc_depth : int;
  sample_size : int;
  max_body_literals : int;
  beam_width : int;
  generalization_sample : int;
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;  (** per learning run (per fold) *)
  constant_threshold : Discovery.Generate.threshold;
  ind_max_error : float;  (** α for approximate INDs *)
  use_approximate_inds : bool;  (** ablation knob; the paper always uses them *)
  coverage_cache : bool;
      (** memoize coverage verdicts in the scoring context (default [true]);
          verdicts are pure, so results are identical either way —
          [false] exists for A/B measurement *)
  pruning : bool;
      (** learn failure constraints from rejected candidates and probe them
          before evaluating (default [true]); verdict-preserving, so the
          learned definition is bit-identical either way — [false] is the
          A/B baseline *)
  budget : Budget.t option;
      (** run governance for every method ({!learn_once} attaches it to the
          learner's coverage context): cancelling it stops any learning
          entry point cooperatively; its counters aggregate across folds.
          Each run still scopes its own [timeout]-bounded child. *)
  pool : Parallel.Pool.t option;
      (** domain pool threaded into the learner's hot paths (ARMG
          candidate generation, candidate evaluation, acceptance counting,
          CV folds); [None] = sequential *)
  checkpoint : (Resilience.Checkpoint.t -> [ `Written | `Skipped ]) option;
      (** checkpoint sink threaded to {!Learning.Learn} (clause-boundary
          snapshots); [None] disables checkpointing *)
  resume : Resilience.Checkpoint.t option;
      (** resume the learner from a prior snapshot (validate it first) *)
}

(** Defaults follow Section 6.1: ≤20 tuples per mode, constant-threshold
    18% (relative), approximate-IND error 50%, naive sampling. *)
let default_config =
  {
    strategy = Sampling.Strategy.Naive;
    bc_depth = 2;
    sample_size = 20;
    max_body_literals = 400;
    beam_width = 3;
    generalization_sample = 10;
    min_positives = 2;
    min_precision = 0.7;
    max_clauses = 20;
    timeout = Some 120.;
    constant_threshold = Discovery.Generate.Relative 0.18;
    ind_max_error = 0.5;
    use_approximate_inds = true;
    coverage_cache = true;
    pruning = true;
    budget = None;
    pool = None;
    checkpoint = None;
    resume = None;
  }

(** [fingerprint ~dataset ~scale ~method_ config ~seed] digests everything
    that determines a learning run's trajectory — dataset identity and
    scale, method, sampling strategy, the learner knobs and the seed — into
    a short hex string. Stamped into checkpoints so
    {!Resilience.Checkpoint.validate} can reject a resume against a
    different run setup. *)
let fingerprint ~dataset ~scale ~method_ config ~seed =
  Resilience.Checkpoint.fingerprint_of_strings
    [
      dataset;
      Printf.sprintf "%h" scale;
      method_to_string method_;
      Sampling.Strategy.to_string config.strategy;
      string_of_int config.bc_depth;
      string_of_int config.sample_size;
      string_of_int config.max_body_literals;
      string_of_int config.beam_width;
      string_of_int config.generalization_sample;
      string_of_int config.min_positives;
      Printf.sprintf "%.6f" config.min_precision;
      string_of_int config.max_clauses;
      string_of_int seed;
    ]

type bias_info = {
  bias : Bias.Language.t;
  induction : Discovery.Generate.result option;
      (** present only for {!Auto_bias} *)
  bias_time : float;  (** seconds spent producing the bias *)
}

(** [bias_for method_ config dataset ~train_pos] produces the language bias a
    method uses. For {!Auto_bias} this runs the full Section 3 pipeline (IND
    discovery over the database plus the training positives, type graph,
    predicate/mode generation); the others are instantaneous. *)
let bias_for method_ config (dataset : Datasets.Dataset.t) ~train_pos =
  Obs.Trace.span ~cat:"discovery" "bias_for" @@ fun () ->
  let t0 = Budget.now () in
  let schema = Relational.Database.schema dataset.Datasets.Dataset.db in
  let target = dataset.Datasets.Dataset.target in
  let finish bias induction =
    { bias; induction; bias_time = Budget.now () -. t0 }
  in
  match method_ with
  | Castor -> finish (Bias.Language.castor ~schema ~target) None
  | No_const -> finish (Bias.Language.no_const ~schema ~target) None
  | Manual | Foil -> finish dataset.Datasets.Dataset.manual_bias None
  | Auto_bias ->
      let ind_config =
        { Discovery.Ind.default_config with
          max_error = (if config.use_approximate_inds then config.ind_max_error else 0.);
        }
      in
      let result =
        Discovery.Generate.induce ~ind_config
          ~threshold:config.constant_threshold dataset.Datasets.Dataset.db
          ~target ~positive_examples:train_pos
      in
      finish result.Discovery.Generate.bias (Some result)

let bc_config config =
  {
    Learning.Bottom_clause.depth = config.bc_depth;
    sample_size = config.sample_size;
    strategy = config.strategy;
    max_body_literals = config.max_body_literals;
  }

let learn_config config =
  {
    Learning.Learn.default_config with
    bc = bc_config config;
    beam_width = config.beam_width;
    generalization_sample = config.generalization_sample;
    min_positives = config.min_positives;
    min_precision = config.min_precision;
    max_clauses = config.max_clauses;
    timeout = config.timeout;
    pool = config.pool;
    checkpoint = config.checkpoint;
    resume = config.resume;
  }

let foil_config config =
  {
    Baselines.Foil.default_config with
    min_positives = config.min_positives;
    min_precision = config.min_precision;
    max_clauses = config.max_clauses;
    timeout = config.timeout;
  }

(** [coverage_context config dataset bias] builds the coverage-testing
    context (ground bottom clauses are cached inside it). *)
let coverage_context config (dataset : Datasets.Dataset.t) bias ~rng =
  Learning.Coverage.create ~bc_config:(bc_config config)
    ~use_cache:config.coverage_cache ~use_pruning:config.pruning
    dataset.Datasets.Dataset.db bias ~rng

type run_result = {
  definition : Logic.Clause.definition;
  bias_info : bias_info;
  learn_time : float;
  degradation : Budget.degradation;
      (** why the run ended, and the budget accounting for it *)
  prune : Learning.Coverage.prune_stats option;
      (** failure-constraint store traffic for the run's coverage context;
          [None] when pruning is off *)
}

(** [learn_once ?config method_ dataset ~rng ~train_pos ~train_neg] learns a
    definition on one training split. *)
let learn_once ?(config = default_config) method_ dataset ~rng ~train_pos
    ~train_neg =
  Obs.Trace.span ~cat:"learn"
    ~args:[ ("method", method_to_string method_) ]
    "learn_once"
  @@ fun () ->
  let bias_info = bias_for method_ config dataset ~train_pos in
  let cov = coverage_context config dataset bias_info.bias ~rng in
  (* the learner runs under [config.budget]; [cov] itself stays
     budget-free, like every scoring context *)
  let learner_cov =
    Option.fold ~none:cov ~some:(Learning.Coverage.with_budget cov) config.budget
  in
  let t0 = Budget.now () in
  let definition, degradation =
    match method_ with
    | Foil ->
        let r =
          Baselines.Foil.learn ~config:(foil_config config) learner_cov
            ~positives:train_pos ~negatives:train_neg
        in
        (r.Baselines.Foil.definition, r.Baselines.Foil.degradation)
    | Castor | No_const | Manual | Auto_bias ->
        let r =
          Learning.Learn.learn ~config:(learn_config config) learner_cov ~rng
            ~positives:train_pos ~negatives:train_neg
        in
        (r.Learning.Learn.definition, r.Learning.Learn.degradation)
  in
  {
    definition;
    bias_info;
    learn_time = Budget.now () -. t0;
    degradation;
    prune =
      (if Learning.Coverage.pruning_enabled cov then
         Some (Learning.Coverage.prune_stats cov)
       else None);
  }

(** [cross_validate ?config ?k method_ dataset ~seed] runs the dataset's
    k-fold protocol for one method and returns the averaged result (one cell
    group of Table 5). The bias is induced once per fold from that fold's
    training positives, like the paper's per-run preprocessing. *)
let cross_validate ?(config = default_config) ?k method_
    (dataset : Datasets.Dataset.t) ~seed =
  let k = Option.value k ~default:dataset.Datasets.Dataset.folds in
  let rng = Random.State.make [| seed; Hashtbl.hash (method_to_string method_) |] in
  (* Scoring context: same bias family as the learner, built on the full
     training bias of the first fold; ground BCs depend only on bias +
     database, not on labels, so sharing one scoring context is sound. *)
  let score_bias =
    (bias_for method_ config dataset ~train_pos:dataset.Datasets.Dataset.positives).bias
  in
  let score_cov = coverage_context config dataset score_bias ~rng in
  let learner =
    {
      Evaluation.Cross_validation.name = method_to_string method_;
      run =
        (fun ~rng ~train_pos ~train_neg ->
          let r = learn_once ~config method_ dataset ~rng ~train_pos ~train_neg in
          (r.definition, r.degradation.Budget.status));
    }
  in
  Evaluation.Cross_validation.run ?pool:config.pool ~k learner score_cov ~rng
    ~positives:dataset.Datasets.Dataset.positives
    ~negatives:dataset.Datasets.Dataset.negatives
