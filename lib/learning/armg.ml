(** The asymmetric relative minimal generalization operator (Section 2.3.2).

    Given a clause [C] (initially a bottom clause) and a positive example
    [e'] that [C] does not cover, ARMG repeatedly removes the {e blocking
    atom} — the body literal [L_i] with the least [i] such that the prefix
    [head ← L_1, …, L_i] does not cover [e'] — until [e'] is covered, then
    drops body literals that lost head-connectedness.

    The implementation is incremental: a single left-to-right sweep of the
    substitution-set frontier ({!Logic.Compiled.generalize}, the sweep
    coverage testing runs). When the frontier dies at literal [L_i], the
    prefix before it is untouched by the removal, so the sweep resumes at
    position [i] with the saved frontier — the whole operator costs one
    frontier step per surviving literal plus one per removal, instead of a
    full subsumption test per removal. *)

(** [generalize cov clause ~example] applies ARMG. Returns [None] when the
    clause head cannot be bound to [example] (arity/constant mismatch) —
    such an example cannot be covered by any generalization of [clause]. *)
let generalize cov clause ~example =
  (* The head check comes first so a head-blocked example never builds a
     ground BC. *)
  match Coverage.head_subst clause example with
  | None -> None
  | Some _ ->
      Coverage.ground_of cov example
      |> Eval_plan.generalize (Coverage.plans cov) clause
      |> Option.map (fun kept ->
             let surviving =
               List.filteri (fun j _ -> kept.(j)) (Logic.Clause.body clause)
             in
             Logic.Clause.prune_head_connected
               (Logic.Clause.make (Logic.Clause.head clause) surviving))
