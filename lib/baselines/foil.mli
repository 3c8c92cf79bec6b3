(** A FOIL-style top-down learner — the stand-in for Aleph configured to
    emulate FOIL (Section 6.1). Sequential covering where LearnClause grows
    a clause greedily by the body literal with the best FOIL gain; candidate
    literals come from the mode language ([+] = existing typed variable,
    [-] = fresh variable, [#] = frequent constants). Greedy gain is biased
    toward short clauses: fast, but blind to literal pairs that only pay off
    together — the mechanism behind Aleph's 0/0 rows in Table 5. *)

type config = {
  max_body_literals : int;
  constant_candidates : int;  (** [#] candidates per attribute (most frequent) *)
  candidate_cap : int;  (** candidate literals considered per step *)
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;
}

val default_config : config

(** [foil_gain ~p0 ~n0 ~p1 ~n1] = p1 · (log₂ p1/(p1+n1) − log₂ p0/(p0+n0));
    [neg_infinity] when p1 = 0. *)
val foil_gain : p0:int -> n0:int -> p1:int -> n1:int -> float

type result = {
  definition : Logic.Clause.definition;
  degradation : Budget.degradation;  (** why the run ended; its counters *)
}

(** [learn ?config cov ~positives ~negatives] — the covering loop; [cov]
    supplies coverage testing, the mode language and the run's budget,
    scoped to [config.timeout] and checked before every refinement and
    candidate literal. *)
val learn :
  ?config:config ->
  Learning.Coverage.t ->
  positives:Relational.Relation.tuple list ->
  negatives:Relational.Relation.tuple list ->
  result
