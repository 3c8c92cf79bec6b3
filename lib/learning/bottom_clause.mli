(** Bottom-clause construction (Algorithm 2, guided by the language bias of
    Section 2.3.1): one traversal, two outputs.

    Each of the [depth] iterations walks every mode definition: known
    constants whose types match a mode's [+] attribute feed the semi-join
    σ_(A ∈ M)(R); the sampling strategy picks at most [sample_size] matching
    tuples; the constants at a picked tuple's [+]/[-] positions become known
    under those attributes' types. New constants found during a round only
    feed the {e next} round, and within a round modes with more [#] symbols
    are processed first (selective literals early keep prefix evaluation
    anchored). {!build} turns each picked tuple into a literal with
    variables; {!ground} into a row of the compiled kernel, giving the
    ground bottom clause of Section 5 in the kernel's int form. *)

type config = {
  depth : int;  (** iterations d of Algorithm 2 *)
  sample_size : int;  (** tuples kept per mode per iteration (paper: 20) *)
  strategy : Sampling.Strategy.t;
  max_body_literals : int;
      (** hard cap on the body size — an under-restricted bias (plain
          Castor) can otherwise produce clauses beyond what subsumption can
          process within budget *)
}

val default_config : config

(** [build ?config db bias ~rng ~example] constructs the bottom clause of
    [example]: head = target literal with example constants replaced by
    variables; each picked tuple one body literal whose [+]/[-] positions
    are variables (fresh for new constants) and whose [#] positions stay
    constants. Times [bottom_clause.build_s].
    @raise Invalid_argument on an example/target arity mismatch. *)
val build :
  ?config:config ->
  Relational.Database.t ->
  Bias.Language.t ->
  rng:Random.State.t ->
  example:Relational.Relation.tuple ->
  Logic.Clause.t

(** What every build over one database and bias reads: the modes in
    processing order with their relations, and the bias's attribute types.
    Immutable, so one plan serves concurrent builds. *)
type plan

val plan : Relational.Database.t -> Bias.Language.t -> plan

(** [ground ?config plan tab ~rng ~example] constructs the ground bottom
    clause of [example] compiled over [tab]: the tuples {!build} would pick
    from the same [rng] state, every position a constant, each distinct
    tuple one literal in first-picked order, at most [max_body_literals].
    Each tuple's values are interned once per [tab]. Safe to run
    concurrently on one [tab].
    @raise Invalid_argument on an example/target arity mismatch. *)
val ground :
  ?config:config ->
  plan ->
  Logic.Compiled.Symtab.t ->
  rng:Random.State.t ->
  example:Relational.Relation.tuple ->
  Logic.Compiled.ground
