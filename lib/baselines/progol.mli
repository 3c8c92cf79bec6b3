(** A Progol/Aleph-style learner (inverse entailment, the paper's reference
    [37]): saturate a seed example into its bottom clause, then best-first
    search top-down through the bottom clause's literal subsets, ordered by
    the admissible bound p − |C| with lazy node evaluation. Unlike greedy
    FOIL it walks through score plateaus (coupled literal pairs); unlike
    ARMG it refines top-down. Included as an extension baseline and for the
    bench's search-strategy ablation. *)

type config = {
  bc : Learning.Bottom_clause.config;
  max_body_literals : int;
  max_expansions : int;  (** open-list pops per clause search *)
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;
}

val default_config : config

type result = {
  definition : Logic.Clause.definition;
  degradation : Budget.degradation;  (** why the run ended; its counters *)
}

(** [learn ?config cov ~rng ~positives ~negatives] — covering loop with
    bottom-clause-guided top-down clause search. Search scores run on
    bounded subsamples; acceptance re-checks on the full training sets.
    [cov]'s budget, scoped to [config.timeout], is checked before every
    node score. *)
val learn :
  ?config:config ->
  Learning.Coverage.t ->
  rng:Random.State.t ->
  positives:Relational.Relation.tuple list ->
  negatives:Relational.Relation.tuple list ->
  result
