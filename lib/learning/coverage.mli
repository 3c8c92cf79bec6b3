(** Coverage testing via θ-subsumption against cached ground bottom clauses
    (Section 5): clause [C] covers example [e] iff, after binding [C]'s head
    to [e]'s constants, body(C) θ-subsumes the ground BC of [e]. Ground BCs
    are built once per example with the same sampling strategy used for
    bottom clauses and cached in the context.

    The context is safe to share across domains: the cache sits behind a
    mutex whose critical sections are just the table operations, and ground
    BCs are built from a per-example [Random.State] derived from the master
    seed — so the cache contents are a pure function of (seed, example),
    independent of pool size, scheduling, and query order. *)

type t

(** Evaluation runs through the int-coded kernel ({!Logic.Compiled}).
    [?budget] receives the context's search counters (subsumption tries,
    frontier truncations, memo hits/misses, constraints learned) — the only
    per-run tally of them — and never changes any verdict. [?use_cache]
    (default [true]) enables the lock-striped verdict memo: verdicts are pure
    functions of (clause, example) given the captured seed, so caching is
    invisible to results — [false] exists for A/B measurement.
    [?use_pruning] (default [true]) arms the failure-constraint store
    ({!Prune}): blocked verdicts become prefix signatures that answer later
    evaluations without running the frontier. A probe hit returns the exact
    verdict evaluation would compute, so pruning is also invisible to
    results — [false] is the A/B baseline. *)
val create :
  ?bc_config:Bottom_clause.config ->
  ?budget:Budget.t ->
  ?use_cache:bool ->
  ?use_pruning:bool ->
  Relational.Database.t ->
  Bias.Language.t ->
  rng:Random.State.t ->
  t

val pruning_enabled : t -> bool

(** [memo_hash ~key_hash example] — the verdict memo's hash of a (clause,
    example) pair, from the clause plan's {!Logic.Compiled.key_hash}: it
    reads the whole clause key and the whole example. [memo_stripe h] — the
    lock stripe of 16 that the pair lands in, taken from bits the in-stripe
    bucket index does not use. *)
val memo_hash : key_hash:int -> Relational.Relation.tuple -> int

val memo_stripe : int -> int

(** [with_budget t budget] is [t] reporting into [budget]: a shallow copy
    sharing the ground-BC cache (and its mutex) — concurrent learns each
    get their own counters without duplicating cached work. *)
val with_budget : t -> Budget.t -> t

(** [scope t ~timeout] is [(b, with_budget t b)], [b] a child of the
    budget [t] reports into (a fresh one when [t] has none) expiring within
    [timeout] seconds: how every learner runs under its caller's budget
    (deadline, cancellation, counters) bounded by its own [timeout]. *)
val scope : t -> timeout:float option -> Budget.t * t

val bias : t -> Bias.Language.t
val database : t -> Relational.Database.t

(** [ground_of t example] — the cached ground bottom clause of [example],
    compiled against {!plans}. *)
val ground_of : t -> Relational.Relation.tuple -> Logic.Compiled.ground

(** [plans t] — the symbol table and plan cache the context compiles
    against: what {!Armg} sweeps with. *)
val plans : t -> Eval_plan.t

(** [warm ?pool t examples] precomputes ground BCs (the paper builds them
    once, up front), fanning construction across [pool] when given — the
    resulting cache is identical either way. *)
val warm : ?pool:Parallel.Pool.t -> t -> Relational.Relation.tuple list -> unit

(** [head_subst clause example] binds the clause head to the example:
    variables map to constants, constant head arguments must match; [None]
    when the head cannot produce the example. *)
val head_subst :
  Logic.Clause.t -> Relational.Relation.tuple -> Logic.Substitution.t option

(** [eval t clause example] — [Covered w] with a witness, or [Blocked i]
    with the 1-based blocking body literal; [Blocked 0] means the head
    itself cannot bind. *)
val eval :
  t -> Logic.Clause.t -> Relational.Relation.tuple -> Logic.Compiled.verdict

(** [probe_pruned t clause example] — the verdict the failure-constraint
    store already knows for the pair, if any (always [Blocked _]).
    Probe-only: never evaluates, never stores; [None] when pruning is off.
    What {!Learn} asks before spending coverage tests on a candidate. *)
val probe_pruned :
  t ->
  Logic.Clause.t ->
  Relational.Relation.tuple ->
  Logic.Compiled.verdict option

(** [blocking_key t clause i] — canonical compiled key segment of the
    literal a [Blocked i] verdict points at (the head for [i = 0]). Shared
    with {!Explain.Not_covered}. *)
val blocking_key : t -> Logic.Clause.t -> int -> int array

val covers : t -> Logic.Clause.t -> Relational.Relation.tuple -> bool

(** [covers_src t clause example] — {!covers} plus whether the verdict was
    served from the verdict memo ([true]) rather than computed (or answered
    by the failure-constraint store). The verdict is identical either way;
    the flag only feeds {!Learn}'s search-funnel accounting, which wants to
    know whether a candidate cost any real subsumption work. *)
val covers_src : t -> Logic.Clause.t -> Relational.Relation.tuple -> bool * bool

(** [count ?pool t clause examples] — how many are covered, with the
    per-example tests fanned out across [pool] when given. The same for
    every pool size. *)
val count :
  ?pool:Parallel.Pool.t ->
  t ->
  Logic.Clause.t ->
  Relational.Relation.tuple list ->
  int

(** [definition_covers t def example] — disjunction over clauses
    (Definition 2.4). *)
val definition_covers :
  t -> Logic.Clause.definition -> Relational.Relation.tuple -> bool
