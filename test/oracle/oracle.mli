(** The symbolic θ-subsumption engines (Section 5 of the paper): the
    reference implementation the compiled kernel ({!Logic.Compiled}) is
    tested against, for its verdicts and for its speed margin. Nothing
    outside the tests uses it.

    Clause [c] θ-subsumes ground clause [g] iff there is a substitution θ
    with body(c)θ ⊆ body(g). Deciding this is NP-hard; two approximate
    engines are provided, both erring toward answering "no" (coverage is
    under-approximated, never over-approximated):

    - a budgeted backtracking search with value-indexed candidate filtering,
      fail-first ordering, unit propagation and randomized restarts (after
      the paper's reference [29], Kuzelka & Zelezny);
    - a left-to-right {e substitution-frontier} sweep whose per-literal
      frontier is capped: {!eval_prefix} stops at the blocking atom,
      {!generalize} drops it (ARMG). {!Logic.Compiled.eval} and
      {!Logic.Compiled.generalize} must agree with these exactly.

    It also keeps the symbolic ground bottom clause
    ({!ground_bottom_clause}) that {!Learning.Bottom_clause.ground} must
    reproduce row for row. *)

open Logic

type ground
(** A ground clause body, pre-grouped by relation symbol and indexed by
    (predicate, position, value). *)

(** [ground_of_literals ls] indexes ground literals [ls].
    @raise Invalid_argument if some literal is not ground. *)
val ground_of_literals : Literal.t list -> ground

val ground_size : ground -> int
val ground_literals : ground -> Literal.t list

(** {1 Backtracking search} *)

type config = {
  node_budget : int;  (** backtracking nodes allowed per try *)
  restarts : int;  (** randomized retries after the first try *)
}

val default_config : config

(** [subsumes_subst ?config ?rng ~subst c g] tests whether the body of [c]
    maps into [g] by some extension of [subst] (coverage testing binds the
    head from the example first). Returns the witnessing substitution, or
    [None] when the search proved there is none or every try ran out of
    nodes. *)
val subsumes_subst :
  ?config:config ->
  ?rng:Random.State.t ->
  subst:Substitution.t ->
  Clause.t ->
  ground ->
  Substitution.t option

(** [subsumes ?config ?rng c g] is {!subsumes_subst} from the empty
    substitution. *)
val subsumes : ?config:config -> ?rng:Random.State.t -> Clause.t -> ground -> bool

(** {1 Substitution frontiers} *)

(** A frontier step as an observer sees it: the frontier in logical order,
    the literal, and each frontier substitution's extensions in generation
    order, before deduplication and the cap. *)
type observer =
  Substitution.t list -> Literal.t -> Substitution.t list list -> unit

(** [eval_prefix ?cap ?truncated ?observe ~subst c g] evaluates the body of
    [c] left to right from [subst]. Each literal extends every frontier
    substitution by its matches in [g], deduplicated, stride-capped at [cap]
    (default {!Logic.Compiled.default_frontier_cap}, preserving binding
    diversity; each cap overflow increments [truncated]) and rotated.
    [Covered w] with the final frontier's first substitution, or [Blocked i]
    at the first literal whose frontier dies. [observe] sees every step. *)
val eval_prefix :
  ?cap:int ->
  ?truncated:int ref ->
  ?observe:observer ->
  subst:Substitution.t ->
  Clause.t ->
  ground ->
  Compiled.verdict

(** [covers_ground ?cap ~subst c g] is the boolean form of {!eval_prefix}. *)
val covers_ground :
  ?cap:int -> subst:Substitution.t -> Clause.t -> ground -> bool

(** [generalize ?cap ?observe ~subst c g] — ARMG's sweep from [subst]: each
    body literal whose frontier dies is dropped and the previous frontier
    carries on. The kept-literal mask over [c]'s body. [observe] sees every
    step. *)
val generalize :
  ?cap:int ->
  ?observe:observer ->
  subst:Substitution.t ->
  Clause.t ->
  ground ->
  bool array

(** {1 Ground bottom clauses} *)

(** [ground_bottom_clause ?config db bias ~rng ~example] — the ground
    bottom clause of [example] (Algorithm 2 with every position kept a
    constant) as literals: constants keyed by value, type sets as string
    sets, each sampled tuple noted and deduplicated structurally. The same
    sampler calls as {!Learning.Bottom_clause.ground}. *)
val ground_bottom_clause :
  ?config:Learning.Bottom_clause.config ->
  Relational.Database.t ->
  Bias.Language.t ->
  rng:Random.State.t ->
  example:Relational.Relation.tuple ->
  Literal.t list
