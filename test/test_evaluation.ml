(* Tests for metrics, cross-validation, and the FOIL baseline. *)

module Value = Relational.Value
module Metrics = Evaluation.Metrics
module Cross_validation = Evaluation.Cross_validation

let v = Value.str

let metrics_tests =
  [
    Alcotest.test_case "precision/recall/F from counts" `Quick (fun () ->
        let m = Metrics.of_counts ~true_positives:8 ~covered:10 ~positives:16 in
        Alcotest.(check (float 1e-9)) "P" 0.8 m.Metrics.precision;
        Alcotest.(check (float 1e-9)) "R" 0.5 m.Metrics.recall;
        Alcotest.(check (float 1e-6)) "F" (2. *. 0.8 *. 0.5 /. 1.3)
          m.Metrics.f_measure);
    Alcotest.test_case "degenerate cases give zero, not NaN" `Quick (fun () ->
        let m = Metrics.of_counts ~true_positives:0 ~covered:0 ~positives:0 in
        Alcotest.(check (float 0.)) "P" 0. m.Metrics.precision;
        Alcotest.(check (float 0.)) "R" 0. m.Metrics.recall;
        Alcotest.(check (float 0.)) "F" 0. m.Metrics.f_measure);
    Alcotest.test_case "mean averages componentwise" `Quick (fun () ->
        let a = Metrics.of_counts ~true_positives:1 ~covered:1 ~positives:1 in
        let b = Metrics.of_counts ~true_positives:0 ~covered:1 ~positives:1 in
        let m = Metrics.mean [ a; b ] in
        Alcotest.(check (float 1e-9)) "P" 0.5 m.Metrics.precision);
    Alcotest.test_case "mean of nothing is zero" `Quick (fun () ->
        Alcotest.(check bool) "zero" true (Metrics.equal (Metrics.mean []) Metrics.zero));
  ]

let format_tests =
  [
    Alcotest.test_case "format_time uses the paper's units" `Quick (fun () ->
        Alcotest.(check string) "s" "6.6s" (Cross_validation.format_time 6.6);
        Alcotest.(check string) "m" "2.70m" (Cross_validation.format_time 162.);
        Alcotest.(check string) "h" "10.0h" (Cross_validation.format_time 36000.));
  ]

(* Cross-validation mechanics checked with a mock learner that memorizes its
   training positives: each fold's test examples must never be covered, and
   every example must appear in exactly one test fold. *)
let cv_tests =
  [
    Alcotest.test_case "folds partition the examples" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.4 () in
        let positives = d.Datasets.Dataset.positives in
        let negatives = d.Datasets.Dataset.negatives in
        let seen_train : (Relational.Relation.tuple, int) Hashtbl.t =
          Hashtbl.create 64
        in
        let learner =
          {
            Cross_validation.name = "memorizer";
            run =
              (fun ~rng:_ ~train_pos ~train_neg ->
                ignore train_neg;
                List.iter
                  (fun e ->
                    let c = try Hashtbl.find seen_train e with Not_found -> 0 in
                    Hashtbl.replace seen_train e (c + 1))
                  train_pos;
                ([], Budget.Completed));
          }
        in
        let rng = Random.State.make [| 4 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let result =
          Cross_validation.run ~k:5 learner cov ~rng ~positives ~negatives
        in
        Alcotest.(check int) "five folds" 5
          (List.length result.Cross_validation.folds);
        (* Every positive appears in training exactly k-1 = 4 times. *)
        List.iter
          (fun e ->
            Alcotest.(check int) "4 of 5 folds" 4 (Hashtbl.find seen_train e))
          positives;
        (* The empty definition scores zero. *)
        Alcotest.(check (float 0.)) "zero F" 0.
          result.Cross_validation.mean_metrics.Metrics.f_measure);
    Alcotest.test_case "k is clamped to the number of positives" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.4 () in
        let learner =
          { Cross_validation.name = "noop"; run = (fun ~rng:_ ~train_pos:_ ~train_neg:_ -> ([], Budget.Completed)) }
        in
        let rng = Random.State.make [| 4 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let result =
          Cross_validation.run ~k:50 learner cov ~rng
            ~positives:[ [| v "a"; v "b" |]; [| v "c"; v "d" |]; [| v "e"; v "f" |] ]
            ~negatives:[]
        in
        Alcotest.(check int) "clamped to 3" 3
          (List.length result.Cross_validation.folds));
    Alcotest.test_case "timeouts are surfaced" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.4 () in
        let learner =
          { Cross_validation.name = "slow"; run = (fun ~rng:_ ~train_pos:_ ~train_neg:_ -> ([], Budget.Deadline_hit)) }
        in
        let rng = Random.State.make [| 4 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let result =
          Cross_validation.run ~k:3 learner cov ~rng
            ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check bool) "flag" true result.Cross_validation.any_timed_out);
  ]

let foil_tests =
  [
    Alcotest.test_case "FOIL learns the drama rule (needs a constant)" `Slow
      (fun () ->
        let d = Datasets.Imdb.generate ~scale:0.3 () in
        let rng = Random.State.make [| 6 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Baselines.Foil.learn
            ~config:{ Baselines.Foil.default_config with timeout = Some 60. }
            cov ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        let rendered = Logic.Clause.definition_to_string r.Baselines.Foil.definition in
        let contains needle =
          let nl = String.length needle and hl = String.length rendered in
          let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "mentions drama" true (contains "drama"));
    Alcotest.test_case "FOIL cannot couple variables on FLT" `Slow (fun () ->
        (* The same-source-same-via rule needs two flight literals that only
           pay off together; greedy gain never takes the first step, so FOIL
           may fit noise (carrier constants) but never finds the coupled
           join — the mechanism behind Aleph's 0/0 row in Table 5. *)
        let d = Datasets.Flt.generate ~scale:0.2 () in
        let rng = Random.State.make [| 6 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Baselines.Foil.learn
            ~config:{ Baselines.Foil.default_config with timeout = Some 60. }
            cov ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        let coupled clause =
          let flights =
            List.filter
              (fun l -> Logic.Literal.pred l = "flight")
              (Logic.Clause.body clause)
          in
          List.exists
            (fun a ->
              List.exists
                (fun b ->
                  (not (a == b))
                  && Logic.Term.equal (Logic.Literal.args a).(1) (Logic.Literal.args b).(1)
                  && Logic.Term.equal (Logic.Literal.args a).(2) (Logic.Literal.args b).(2))
                flights)
            flights
        in
        Alcotest.(check bool) "no coupled flight pair" false
          (List.exists coupled r.Baselines.Foil.definition));
    Alcotest.test_case "FOIL gain is positive only for informative literals"
      `Quick (fun () ->
        let g = Baselines.Foil.foil_gain ~p0:10 ~n0:10 ~p1:10 ~n1:0 in
        Alcotest.(check bool) "informative" true (g > 0.);
        let g2 = Baselines.Foil.foil_gain ~p0:10 ~n0:10 ~p1:5 ~n1:5 in
        Alcotest.(check bool) "uninformative" true (g2 <= 0.);
        let g3 = Baselines.Foil.foil_gain ~p0:10 ~n0:10 ~p1:0 ~n1:0 in
        Alcotest.(check bool) "dead" true (g3 = neg_infinity));
  ]

let autobias_tests =
  [
    Alcotest.test_case "method name round-trip" `Quick (fun () ->
        List.iter
          (fun m ->
            Alcotest.(check bool) "eq" true
              (Autobias.equal_method_ m
                 (Autobias.method_of_string (Autobias.method_to_string m))))
          Autobias.all_methods);
    Alcotest.test_case "end-to-end AutoBias learn_once on UW" `Slow (fun () ->
        let d = Datasets.Uw.generate ~scale:0.5 () in
        let rng = Random.State.make [| 42 |] in
        let config = { Autobias.default_config with timeout = Some 90. } in
        let r =
          Autobias.learn_once ~config Autobias.Auto_bias d ~rng
            ~train_pos:d.Datasets.Dataset.positives
            ~train_neg:d.Datasets.Dataset.negatives
        in
        Alcotest.(check bool) "bias induced" true
          (Option.is_some r.Autobias.bias_info.Autobias.induction);
        Alcotest.(check bool) "learned" true (r.Autobias.definition <> []);
        let cov =
          Autobias.coverage_context config d r.Autobias.bias_info.Autobias.bias ~rng
        in
        let m =
          Metrics.evaluate cov r.Autobias.definition
            ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check bool) "training F > 0.4" true (m.Metrics.f_measure > 0.4));
    Alcotest.test_case "learn_once is identical without the memo or pruning"
      `Slow (fun () ->
        (* The verdict memo and the failure-constraint store only remove
           work, so switching either off learns the same definition. *)
        let d = Datasets.Uw.generate ~seed:42 ~scale:0.5 () in
        let learn config =
          let r =
            Autobias.learn_once
              ~config:{ config with Autobias.timeout = Some 120. }
              Autobias.Auto_bias d ~rng:(Random.State.make [| 42 |])
              ~train_pos:d.Datasets.Dataset.positives
              ~train_neg:d.Datasets.Dataset.negatives
          in
          Logic.Clause.definition_to_string r.Autobias.definition
        in
        let default = learn Autobias.default_config in
        Alcotest.(check string) "memo off" default
          (learn { Autobias.default_config with coverage_cache = false });
        Alcotest.(check string) "pruning off" default
          (learn { Autobias.default_config with pruning = false });
        (* "memo" chaos: half the verdict and ARMG memo probes are
           bypassed and recomputed, which must not change a verdict or an
           ARMG result either. *)
        Chaos.configure ~p_fault:0.5 ~seed:42 [ "memo" ];
        let chaotic, fired =
          Fun.protect ~finally:Chaos.clear (fun () ->
              let r = learn Autobias.default_config in
              (r, Option.fold ~none:0 ~some:Chaos.injected (Chaos.get "memo")))
        in
        Alcotest.(check string)
          (Printf.sprintf "memo chaos at p = 0.5 (%d probes bypassed)" fired)
          default chaotic;
        Alcotest.(check bool) "memo chaos fired" true (fired > 0));
    Alcotest.test_case "bias_for matches each method's shape" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let config = Autobias.default_config in
        let castor = Autobias.bias_for Autobias.Castor config d ~train_pos:d.Datasets.Dataset.positives in
        let noconst = Autobias.bias_for Autobias.No_const config d ~train_pos:d.Datasets.Dataset.positives in
        let manual = Autobias.bias_for Autobias.Manual config d ~train_pos:d.Datasets.Dataset.positives in
        Alcotest.(check bool) "castor allows constants" true
          (Bias.Language.constant_allowed castor.Autobias.bias "inPhase" 1);
        Alcotest.(check bool) "noconst does not" false
          (Bias.Language.constant_allowed noconst.Autobias.bias "inPhase" 1);
        Alcotest.(check bool) "manual is the dataset's bias" true
          (manual.Autobias.bias == d.Datasets.Dataset.manual_bias));
  ]

let suite = metrics_tests @ format_tests @ cv_tests @ foil_tests @ autobias_tests

let closed_world_tests =
  [
    Alcotest.test_case "closed-world negatives are typed and disjoint" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.4 () in
        let rng = Random.State.make [| 3 |] in
        let negs =
          Evaluation.Closed_world.negatives d.Datasets.Dataset.manual_bias
            d.Datasets.Dataset.db ~rng
            ~positives:d.Datasets.Dataset.positives ~count:30
        in
        Alcotest.(check int) "count" 30 (List.length negs);
        (* The stud argument draws from T1-typed columns: student[stud],
           inPhase/ta/yearsInProgram[stud] and publication[person] (which
           the bias types with both T1 and T3). *)
        let stud_domain =
          List.fold_left
            (fun acc (rel, col) ->
              Relational.Value.Set.union acc
                (Relational.Relation.project
                   (Relational.Database.find d.Datasets.Dataset.db rel)
                   col))
            Relational.Value.Set.empty
            [ ("student", 0); ("publication", 1) ]
        in
        List.iter
          (fun t ->
            Alcotest.(check bool) "not a positive" false
              (List.mem t d.Datasets.Dataset.positives);
            Alcotest.(check bool) "stud argument is T1-typed" true
              (Relational.Value.Set.mem t.(0) stud_domain))
          negs);
    Alcotest.test_case "closed-world generation is deterministic" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.4 () in
        let gen () =
          Evaluation.Closed_world.negatives d.Datasets.Dataset.manual_bias
            d.Datasets.Dataset.db
            ~rng:(Random.State.make [| 3 |])
            ~positives:d.Datasets.Dataset.positives ~count:15
        in
        Alcotest.(check bool) "same" true (gen () = gen ()));
    Alcotest.test_case "exhausted domains return fewer negatives" `Quick
      (fun () ->
        (* a tiny world where positives nearly cover the typed product *)
        let db = Datasets.Uw.table4_fragment () in
        let bias =
          Bias.Language.parse ~schema:Datasets.Uw.schemas
            ~target:Datasets.Uw.target_schema
            "advisedBy(T1,T3)\nstudent(T1)\nprofessor(T3)\nstudent(+)\nprofessor(+)"
        in
        let positives =
          [
            [| Relational.Value.str "juan"; Relational.Value.str "sarita" |];
            [| Relational.Value.str "john"; Relational.Value.str "mary" |];
            [| Relational.Value.str "juan"; Relational.Value.str "mary" |];
          ]
        in
        let negs =
          Evaluation.Closed_world.negatives bias db
            ~rng:(Random.State.make [| 1 |])
            ~positives ~count:10
        in
        (* only (john, sarita) remains in the 2×2 typed product *)
        Alcotest.(check int) "one left" 1 (List.length negs));
  ]

let bias_io_tests =
  [
    Alcotest.test_case "bias save/load round-trips" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let path = Filename.temp_file "bias" ".txt" in
        Bias.Language.save d.Datasets.Dataset.manual_bias path;
        let loaded =
          Bias.Language.load ~schema:Datasets.Uw.schemas
            ~target:Datasets.Uw.target_schema path
        in
        Sys.remove path;
        Alcotest.(check int) "same size"
          (Bias.Language.size d.Datasets.Dataset.manual_bias)
          (Bias.Language.size loaded);
        Alcotest.(check (list string)) "valid" [] (Bias.Language.validate loaded));
  ]

let suite = suite @ closed_world_tests @ bias_io_tests

let determinism_tests =
  [
    Alcotest.test_case "end-to-end learning is deterministic per seed" `Slow
      (fun () ->
        let run () =
          let d = Datasets.Imdb.generate ~seed:5 ~scale:0.3 () in
          let rng = Random.State.make [| 21 |] in
          let r =
            Autobias.learn_once
              ~config:{ Autobias.default_config with timeout = Some 30. }
              Autobias.Auto_bias d ~rng
              ~train_pos:d.Datasets.Dataset.positives
              ~train_neg:d.Datasets.Dataset.negatives
          in
          Logic.Clause.definition_to_string r.Autobias.definition
        in
        Alcotest.(check string) "same definition" (run ()) (run ()));
    Alcotest.test_case "cross_validate is deterministic per seed" `Slow
      (fun () ->
        let d = Datasets.Imdb.generate ~seed:5 ~scale:0.3 () in
        let run () =
          let r =
            Autobias.cross_validate
              ~config:{ Autobias.default_config with timeout = Some 30. }
              ~k:2 Autobias.Manual d ~seed:9
          in
          r.Cross_validation.mean_metrics
        in
        Alcotest.(check bool) "same metrics" true (Metrics.equal (run ()) (run ())));
  ]

let suite = suite @ determinism_tests
