(** Compiled-evaluation state for a coverage context: symbol table and plan
    cache (keyed by physical clause identity), plus per-domain scratch
    arenas. Safe to share across pool workers. *)

type t

val create : unit -> t
val symtab : t -> Logic.Compiled.Symtab.t

(** [plan_for t clause] — the cached (or freshly compiled) plan for this
    physical clause. Compilation time lands in the [coverage.compile_s]
    histogram. *)
val plan_for : t -> Logic.Clause.t -> Logic.Compiled.plan

(** [key t clause] — the canonical int-id memo key of [clause]: injective
    exactly where [Clause.to_string] is, with no printing. *)
val key : t -> Logic.Clause.t -> int array

(** [eval ?budget t plan g] — {!Logic.Compiled.eval} of a plan from
    {!plan_for} on this domain's scratch arena. *)
val eval :
  ?budget:Budget.t ->
  t ->
  Logic.Compiled.plan ->
  Logic.Compiled.ground ->
  Logic.Compiled.verdict

(** [generalize t clause g] — {!Logic.Compiled.generalize} (ARMG's
    kept-literal mask) on this domain's scratch arena. *)
val generalize :
  t -> Logic.Clause.t -> Logic.Compiled.ground -> bool array option
