(** Explaining coverage decisions: the witness substitution and supporting
    ground atoms for covered examples, the blocking literal (Section 2.3.2's
    blocking atom) for uncovered ones. *)

type support = {
  literal : Logic.Literal.t;  (** the clause's body literal *)
  grounded : Logic.Literal.t;  (** that literal under the witness *)
}

type t =
  | Covered of {
      witness : Logic.Substitution.t;
      supports : support list;  (** one per body literal, in clause order *)
    }
  | Not_covered of {
      blocking : Logic.Literal.t option;
          (** [None] when the head itself cannot bind to the example *)
      blocking_index : int;  (** 1-based; 0 when the head fails *)
      blocking_key : int array;
          (** the failing literal's canonical compiled key segment
              ({!Logic.Compiled.key_segment}; the head segment when the head
              fails) — the same int-coding the failure-constraint store's
              signatures use, so explanations and pruning share one code
              path. [pp] output is unchanged by this field. *)
    }

(** [explain cov clause example] — the decision, via the learner's own
    evaluation. *)
val explain : Coverage.t -> Logic.Clause.t -> Relational.Relation.tuple -> t

val pp : Format.formatter -> t -> unit

(** [explain_definition cov def example] — the first covering clause's
    explanation, or every clause's failure. *)
val explain_definition :
  Coverage.t ->
  Logic.Clause.definition ->
  Relational.Relation.tuple ->
  ((Logic.Clause.t * t), (Logic.Clause.t * t) list) result

val pp_definition_result :
  Format.formatter -> ((Logic.Clause.t * t), (Logic.Clause.t * t) list) result -> unit
