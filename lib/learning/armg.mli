(** The asymmetric relative minimal generalization operator (Section 2.3.2):
    repeatedly remove the {e blocking atom} — the least-indexed body literal
    whose prefix fails to cover the example — until the example is covered,
    then drop literals that lost head-connectedness. Implemented as a single
    incremental frontier sweep on the compiled kernel
    ({!Logic.Compiled.generalize}), with the clause's plan and the example's
    ground BC taken from [cov]'s caches, and behind [cov]'s memo
    ({!Coverage.generalize}). *)

(** [generalize cov clause ~example] applies ARMG. [None] when the clause
    head cannot be bound to [example]. The result covers [example]
    (approximately — frontier caps under-approximate) and is never larger
    than [clause]. *)
val generalize :
  Coverage.t ->
  Logic.Clause.t ->
  example:Relational.Relation.tuple ->
  Logic.Clause.t option
