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
    full subsumption test per removal.

    ARMG is a pure function of (clause, ground BC), so the sweep sits behind
    the coverage context's memo: a pair asked before returns the remembered
    clause, and a pair the verdict memo holds as covered returns the clause
    with every literal kept (a covered example blocks no literal). Neither
    runs a sweep. *)

(** [generalize cov clause ~example] applies ARMG. Returns [None] when the
    clause head cannot be bound to [example] (arity/constant mismatch) —
    such an example cannot be covered by any generalization of [clause].
    The sweep runs behind [cov]'s memo ({!Coverage.generalize}), which
    answers a repeated pair, or a pair it knows is covered, without one. *)
let generalize cov clause ~example =
  (* The head check comes first so a head-blocked example never builds a
     ground BC. *)
  match Coverage.head_subst clause example with
  | None -> None
  | Some _ ->
      Coverage.generalize cov clause ~example ~build:(fun kept ->
          let surviving =
            List.filteri (fun j _ -> kept.(j)) (Logic.Clause.body clause)
          in
          Logic.Clause.prune_head_connected
            (Logic.Clause.make (Logic.Clause.head clause) surviving))
