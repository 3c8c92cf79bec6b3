(* Regression tests for specific defects found while building the system —
   each encodes a behaviour that silently degraded learning when broken. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Literal = Logic.Literal
module Term = Logic.Term
module Clause = Logic.Clause

let v = Value.str

(* Regression 1 (FLT): Algorithm 2's known-constant set M must be
   snapshotted per round. When later modes in the same round saw constants
   added by earlier modes, the per-mode sample diluted away from the
   example's own tuples and the gold join pattern vanished from the bottom
   clause. *)
let round_snapshot_test =
  Alcotest.test_case
    "BC round 1 samples only from the example's own constants" `Quick
    (fun () ->
      let d = Datasets.Flt.generate ~scale:0.5 () in
      let rng = Random.State.make [| 11 |] in
      let e =
        match d.Datasets.Dataset.positives with
        | e :: _ -> e
        | [] -> Alcotest.fail "no positives"
      in
      let bc =
        Learning.Bottom_clause.build d.Datasets.Dataset.db
          d.Datasets.Dataset.manual_bias ~rng ~example:e
      in
      (* Head vars X (id 0) and Y (id 1) are the two flights; the body must
         contain a generic flight literal for each of them — round 1's only
         known fids are the example's own. *)
      let flight_literal_on var =
        List.exists
          (fun l ->
            Literal.pred l = "flight"
            && Term.equal (Literal.args l).(0) (Term.Var var)
            && Term.is_var (Literal.args l).(1)
            && Term.is_var (Literal.args l).(2))
          (Clause.body bc)
      in
      Alcotest.(check bool) "flight(X,_,_) present" true (flight_literal_on 0);
      Alcotest.(check bool) "flight(Y,_,_) present" true (flight_literal_on 1);
      (* And because the two flights share src and dst, the shared variables
         couple the two literals — the learnable gold pattern. *)
      let coupled =
        List.exists
          (fun a ->
            Literal.pred a = "flight"
            && Term.equal (Literal.args a).(0) (Term.Var 0)
            && List.exists
                 (fun b ->
                   Literal.pred b = "flight"
                   && Term.equal (Literal.args b).(0) (Term.Var 1)
                   && Term.equal (Literal.args a).(1) (Literal.args b).(1)
                   && Term.equal (Literal.args a).(2) (Literal.args b).(2))
                 (Clause.body bc))
          (Clause.body bc)
      in
      Alcotest.(check bool) "coupled flight pair in BC" true coupled)

(* Regression 2 (HIV): frontier truncation must preserve binding diversity.
   Taking the lexicographic head of the sorted frontier made every surviving
   chain share its early-variable bindings, falsely blocking any later
   literal that needed a different one. The stride-truncation keeps a spread.
   Construct: 60 p-chains for A; only the chains with high-sorting A values
   satisfy q(A, hit). *)
let stride_diversity_test =
  Alcotest.test_case "frontier truncation keeps diverse bindings" `Quick
    (fun () ->
      let ground =
        List.concat
          (List.init 60 (fun i ->
               let a = Printf.sprintf "z%02d" i in
               (* q only for the last few values, which lexicographic-head
                  truncation at cap 16 would never keep *)
               Logic.Parser.literal (Printf.sprintf "p(x,%s)" a)
               :: (if i >= 55 then
                     [ Logic.Parser.literal (Printf.sprintf "q(%s,hit)" a) ]
                   else [])))
      in
      let tab = Logic.Compiled.Symtab.create () in
      let g = Logic.Compiled.compile_ground tab ~example:[| v "x" |] ground in
      let c = Logic.Parser.clause "h(X) :- p(X,A), q(A,hit)" in
      let plan = Logic.Compiled.compile tab c in
      let budget = Budget.create () in
      Alcotest.(check bool) "covered despite cap" true
        (match
           Logic.Compiled.eval ~cap:16 ~budget (Logic.Compiled.make_scratch ())
             tab plan g
         with
        | Logic.Compiled.Covered _ -> true
        | Logic.Compiled.Blocked _ -> false);
      Alcotest.(check bool) "the cap truncated the frontier" true
        ((Budget.counters budget).Budget.coverage_truncated > 0))

(* Regression 3 (SYS): mode ordering. Selective #-modes must contribute
   their literals before generic modes, or the frontier diffuses before the
   constants can anchor it. *)
let mode_ordering_test =
  Alcotest.test_case "constant-mode literals precede generic ones in the BC"
    `Quick (fun () ->
      let d = Datasets.Sys_data.generate ~scale:0.3 () in
      let rng = Random.State.make [| 11 |] in
      let bc =
        Learning.Bottom_clause.build d.Datasets.Dataset.db
          d.Datasets.Dataset.manual_bias ~rng
          ~example:(List.hd d.Datasets.Dataset.positives)
      in
      let body = Clause.body bc in
      let first_generic =
        List.to_seq body
        |> Seq.mapi (fun i l -> (i, l))
        |> Seq.filter (fun (_, l) -> Literal.constants l = [])
        |> Seq.map fst
        |> Seq.fold_left min max_int
      in
      (* Ordering is per round: within round 1 the two-constant mode's
         literals precede the generic mode's. *)
      let first_two_const =
        List.to_seq body
        |> Seq.mapi (fun i l -> (i, l))
        |> Seq.filter (fun (_, l) -> List.length (Literal.constants l) >= 2)
        |> Seq.map fst
        |> Seq.fold_left min max_int
      in
      Alcotest.(check bool) "has both kinds" true
        (first_generic < max_int && first_two_const < max_int);
      Alcotest.(check bool) "two-constant literals start before generics" true
        (first_two_const < first_generic))

(* Regression 4: the bottom clause itself can be the best clause on tiny
   example sets; it must be truly evaluated before the acceptance gate, not
   trusted to cover only its seed. *)
let bottom_acceptance_test =
  Alcotest.test_case "bottom clause accepted when it genuinely generalizes"
    `Quick (fun () ->
      let db = Datasets.Uw.table4_fragment () in
      let bias =
        Bias.Language.parse ~schema:Datasets.Uw.schemas
          ~target:Datasets.Uw.target_schema
          "advisedBy(T1,T3)\npublication(T5,T1)\npublication(T5,T3)\npublication(-,+)"
      in
      let rng = Random.State.make [| 3 |] in
      let cov = Learning.Coverage.create db bias ~rng in
      let positives =
        [ [| v "juan"; v "sarita" |]; [| v "john"; v "mary" |] ]
      in
      let negatives =
        [ [| v "juan"; v "mary" |]; [| v "john"; v "sarita" |] ]
      in
      let r = Learning.Learn.learn cov ~rng ~positives ~negatives in
      Alcotest.(check bool) "learned" true (r.Learning.Learn.definition <> []))

(* Regression 5: per-clause time budget must not abort the whole run — a
   slow seed is skipped, later seeds still run. *)
let clause_timeout_test =
  Alcotest.test_case "clause_timeout bounds one seed, not the run" `Quick
    (fun () ->
      let d = Datasets.Uw.generate ~scale:0.4 () in
      let rng = Random.State.make [| 3 |] in
      let cov =
        Learning.Coverage.create d.Datasets.Dataset.db
          d.Datasets.Dataset.manual_bias ~rng
      in
      let config =
        { Learning.Learn.default_config with
          clause_timeout = Some 0.5;
          timeout = Some 60. }
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Learning.Learn.learn ~config cov ~rng
          ~positives:d.Datasets.Dataset.positives
          ~negatives:d.Datasets.Dataset.negatives
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "no global timeout" false
        (r.Learning.Learn.degradation.Budget.status <> Budget.Completed);
      Alcotest.(check bool) "finished well under the global budget" true
        (elapsed < 55.))

let suite =
  [
    round_snapshot_test;
    stride_diversity_test;
    mode_ordering_test;
    bottom_acceptance_test;
    clause_timeout_test;
  ]
