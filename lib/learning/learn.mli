(** The sequential-covering learner (Algorithm 1) with beam-search
    generalization over ARMG (Section 2.3.2), candidate ranking on bounded
    example subsamples, and score-based reduction of the winning clause (in
    the spirit of Golem's negative-based reduction).

    The learner is {e anytime}: a {!Budget.t} (deadline + cancellation
    token) governs the whole run at item granularity, and on expiry the
    search winds down cooperatively — the definition accumulated so far is
    returned, tagged with a {!Budget.degradation} record saying why the run
    ended and which corners were cut (candidates abandoned, beam rounds
    truncated, coverage frontiers truncated, …). The run's budget is the
    coverage context's ({!Coverage.scope}), scoped to [timeout]; a status
    other than [Completed] is the paper's ">10h" row. *)

type config = {
  bc : Bottom_clause.config;
  beam_width : int;
  generalization_sample : int;
      (** positives sampled per beam step to drive ARMG (the paper's E+_S) *)
  max_beam_steps : int;
  eval_positives : int;  (** positives subsampled for candidate ranking *)
  eval_negatives : int;  (** negatives subsampled for candidate ranking *)
  min_positives : int;  (** minimum criterion: positives a clause must cover *)
  min_precision : float;  (** minimum criterion: training precision *)
  max_clauses : int;
  clause_timeout : float option;
      (** seconds for one seed's beam search, a {!Budget.scope} of the
          run's budget bounding only the beam loop: a cut beam counts as
          [Budget.Beam_cut], its best clause is still reduced and judged,
          and the run's status is unaffected *)
  max_consecutive_skips : int;
      (** once a clause has been accepted, stop after this many consecutive
          unproductive seeds (pre-acceptance, all seeds are tried) *)
  timeout : float option;  (** seconds for the whole run ({!Coverage.scope}) *)
  pool : Parallel.Pool.t option;
      (** domain pool for ARMG candidate generation, candidate evaluation,
          acceptance counting and ground-BC warming; [None] (the default)
          runs sequentially. The learned definition is identical for every
          pool size on a fixed seed — ARMG and coverage testing are
          deterministic per example, and candidates are deduplicated in
          list order on the caller — so the pool only changes wall-clock
          time. *)
  checkpoint : (Resilience.Checkpoint.t -> [ `Written | `Skipped ]) option;
      (** sink invoked at every clause boundary with a complete snapshot of
          learner progress — typically [Resilience.Checkpoint.save]
          partially applied to a path. The snapshot's [fingerprint] is
          [""]: the learner does not know the run setup, so a writer that
          wants {!Resilience.Checkpoint.validate} to gate resumes stamps
          its own. The snapshot hands the sink copies, so writing cannot
          perturb the run; a raising sink counts as [`Skipped]. Outcomes
          are tallied as [Budget.Checkpoint_written] /
          [Budget.Checkpoint_skipped]. [None] (the default) disables
          checkpointing. *)
  resume : Resilience.Checkpoint.t option;
      (** continue a prior run from its snapshot. [positives] and
          [negatives] must be the same lists in the same order as the
          original run (the snapshot stores uncovered positives as indices
          into [positives]); the restored RNG then replays the exact
          continuation, so kill-at-boundary + resume is bit-identical to
          the uninterrupted run at the same seed. Validate the checkpoint
          with {!Resilience.Checkpoint.validate} first — [learn] trusts
          it. *)
}

val default_config : config

type stats = {
  clauses : int;
  candidates_evaluated : int;
  seeds_skipped : int;  (** positives whose best clause failed the criterion *)
}

type result = {
  definition : Logic.Clause.definition;
  stats : stats;
  degradation : Budget.degradation;
      (** why the run ended ([Completed] / [Deadline_hit] / [Cancelled])
          and the degradation counters accumulated getting there *)
}

(** [learn ?config cov ~rng ~positives ~negatives] runs Algorithm 1.
    Clause acceptance is always checked on the full training sets.

    The run is governed by [cov]'s budget ({!Coverage.scope}; a private
    one when [cov] has none), scoped to [config.timeout]; coverage counters
    report into that scope. Anytime guarantees: with an already-elapsed
    deadline the call returns immediately with the empty definition and
    [degradation.status = Deadline_hit]; cancelling the context's budget
    from another domain stops the run within one coverage-test
    granularity; with a generous deadline the result is identical to an
    unbudgeted run on the same seed. *)
val learn :
  ?config:config ->
  Coverage.t ->
  rng:Random.State.t ->
  positives:Relational.Relation.tuple list ->
  negatives:Relational.Relation.tuple list ->
  result
