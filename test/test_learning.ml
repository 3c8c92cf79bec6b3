(* Tests for bottom-clause construction (Algorithm 2, including the paper's
   Example 2.5), coverage testing, ARMG, and the sequential-covering
   learner. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Literal = Logic.Literal
module Term = Logic.Term
module Clause = Logic.Clause
module Bottom_clause = Learning.Bottom_clause
module Coverage = Learning.Coverage

let v = Value.str
let rng () = Random.State.make [| 99 |]

(* The exact bias of Table 3 (plus the advisedBy head definition the paper
   leaves implicit). *)
let table3_bias () =
  let schema = Datasets.Uw.schemas in
  Bias.Language.parse ~schema ~target:Datasets.Uw.target_schema
    {|advisedBy(T1,T3)
student(T1)
inPhase(T1,T2)
professor(T3)
hasPosition(T3,T4)
publication(T5,T1)
publication(T5,T3)
student(+)
inPhase(+,-)
inPhase(+,#)
professor(+)
hasPosition(+,-)
publication(-,+)
|}

let example_25_config =
  { Bottom_clause.default_config with depth = 1; sample_size = 50 }

(* Build Example 2.5's bottom clause. *)
let example_25_bc () =
  let db = Datasets.Uw.table4_fragment () in
  let bias = table3_bias () in
  Bottom_clause.build ~config:example_25_config db bias ~rng:(rng ())
    ~example:[| v "juan"; v "sarita" |]

let literal_strings c =
  List.map Literal.to_string (Clause.body c) |> List.sort compare

let example_25_tests =
  [
    Alcotest.test_case "Example 2.5: exactly the paper's seven literals" `Quick
      (fun () ->
        let bc = example_25_bc () in
        Alcotest.(check int) "seven" 7 (Clause.size bc);
        let preds =
          List.map Literal.pred (Clause.body bc) |> List.sort compare
        in
        Alcotest.(check (list string)) "predicates"
          [ "hasPosition"; "inPhase"; "inPhase"; "professor"; "publication";
            "publication"; "student" ]
          preds);
    Alcotest.test_case "Example 2.5: the # mode produced the constant literal"
      `Quick (fun () ->
        let bc = example_25_bc () in
        let has_const_phase =
          List.exists
            (fun l ->
              Literal.pred l = "inPhase"
              && List.exists (Value.equal (v "post_quals")) (Literal.constants l))
            (Clause.body bc)
        in
        let has_var_phase =
          List.exists
            (fun l -> Literal.pred l = "inPhase" && Literal.constants l = [])
            (Clause.body bc)
        in
        Alcotest.(check bool) "inPhase(X,post_quals)" true has_const_phase;
        Alcotest.(check bool) "inPhase(X,U)" true has_var_phase);
    Alcotest.test_case
      "Example 2.5: publications share the title variable with head vars"
      `Quick (fun () ->
        let bc = example_25_bc () in
        let pubs =
          List.filter (fun l -> Literal.pred l = "publication") (Clause.body bc)
        in
        match pubs with
        | [ a; b ] ->
            (* Same first argument (the p1 variable), different second (the
               head variables X and Y). *)
            Alcotest.(check bool) "shared title var" true
              (Term.equal (Literal.args a).(0) (Literal.args b).(0));
            Alcotest.(check bool) "different persons" false
              (Term.equal (Literal.args a).(1) (Literal.args b).(1))
        | _ -> Alcotest.fail "expected two publication literals");
    Alcotest.test_case "ground variant carries constants instead" `Quick
      (fun () ->
        let db = Datasets.Uw.table4_fragment () in
        let tab = Logic.Compiled.Symtab.create () in
        let g =
          Bottom_clause.ground ~config:example_25_config
            (Bottom_clause.plan db (table3_bias ()))
            tab ~rng:(rng ()) ~example:[| v "juan"; v "sarita" |]
        in
        let body = (Logic.Compiled.view tab g).Logic.Compiled.literals in
        Alcotest.(check bool) "non-empty" true (Array.length body > 0);
        Alcotest.(check bool) "contains publication(p1,juan)" true
          (Array.exists
             (fun (p, args) -> p = "publication" && args = [| v "p1"; v "juan" |])
             body));
    Alcotest.test_case "depth 0 yields an empty body" `Quick (fun () ->
        let db = Datasets.Uw.table4_fragment () in
        let bc =
          Bottom_clause.build
            ~config:{ example_25_config with depth = 0 }
            db (table3_bias ()) ~rng:(rng ())
            ~example:[| v "juan"; v "sarita" |]
        in
        Alcotest.(check int) "empty" 0 (Clause.size bc));
    Alcotest.test_case "max_body_literals caps the clause" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.5 () in
        let bc =
          Bottom_clause.build
            ~config:{ Bottom_clause.default_config with max_body_literals = 10 }
            d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng:(rng ())
            ~example:(List.hd d.Datasets.Dataset.positives)
        in
        Alcotest.(check bool) "≤ 10" true (Clause.size bc <= 10));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        let db = Datasets.Uw.table4_fragment () in
        Alcotest.check_raises "bad example"
          (Invalid_argument "Bottom_clause.build: example arity mismatch")
          (fun () ->
            ignore
              (Bottom_clause.build db (table3_bias ()) ~rng:(rng ())
                 ~example:[| v "juan" |])));
  ]

let coverage_ctx () =
  let db = Datasets.Uw.table4_fragment () in
  Coverage.create ~bc_config:example_25_config db (table3_bias ()) ~rng:(rng ())

let coverage_tests =
  [
    Alcotest.test_case "clause covers its own generating example" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause
            "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
        in
        Alcotest.(check bool) "juan/sarita" true
          (Coverage.covers cov c [| v "juan"; v "sarita" |]);
        Alcotest.(check bool) "john/mary" true
          (Coverage.covers cov c [| v "john"; v "mary" |]);
        Alcotest.(check bool) "cross pair not covered" false
          (Coverage.covers cov c [| v "juan"; v "mary" |]));
    Alcotest.test_case "head constants must match the example" `Quick (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause "advisedBy(juan,Y) :- professor(Y)" in
        Alcotest.(check bool) "juan ok" true
          (Coverage.covers cov c [| v "juan"; v "sarita" |]);
        Alcotest.(check bool) "john blocked" false
          (Coverage.covers cov c [| v "john"; v "mary" |]));
    Alcotest.test_case "repeated head variables require equal constants" `Quick
      (fun () ->
        let c = Clause.make
            (Literal.make "advisedBy" [| Term.Var 0; Term.Var 0 |]) []
        in
        Alcotest.(check bool) "diagonal" true
          (Option.is_some (Coverage.head_subst c [| v "a"; v "a" |]));
        Alcotest.(check bool) "off-diagonal" false
          (Option.is_some (Coverage.head_subst c [| v "a"; v "b" |])));
    Alcotest.test_case "definition_covers is a disjunction" `Quick (fun () ->
        let cov = coverage_ctx () in
        let def =
          [
            Logic.Parser.clause "advisedBy(X,Y) :- hasPosition(Y,full_prof)";
            Logic.Parser.clause "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)";
          ]
        in
        Alcotest.(check bool) "covered by second clause" true
          (Coverage.definition_covers cov def [| v "juan"; v "sarita" |]));
    Alcotest.test_case "ground BCs are cached" `Quick (fun () ->
        let cov = coverage_ctx () in
        let e = [| v "juan"; v "sarita" |] in
        let g1 = Coverage.ground_of cov e in
        let g2 = Coverage.ground_of cov e in
        Alcotest.(check bool) "same object" true (g1 == g2));
    Alcotest.test_case "warm precomputes without error" `Quick (fun () ->
        let cov = coverage_ctx () in
        Coverage.warm cov [ [| v "juan"; v "sarita" |]; [| v "john"; v "mary" |] ]);
  ]

let armg_tests =
  [
    Alcotest.test_case "ARMG output covers the generalizing example" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let bc = example_25_bc () in
        let e' = [| v "john"; v "mary" |] in
        match Learning.Armg.generalize cov bc ~example:e' with
        | None -> Alcotest.fail "generalization failed"
        | Some c ->
            Alcotest.(check bool) "covers e'" true (Coverage.covers cov c e');
            Alcotest.(check bool) "no larger" true
              (Clause.size c <= Clause.size bc));
    Alcotest.test_case "ARMG drops the blocking constant literal" `Quick
      (fun () ->
        (* john is post_quals, so inPhase(X,post_quals) survives, but
           hasPosition(sarita)=assistant vs hasPosition(mary)=associate makes
           any constant-position literal blocking. Here we force one. *)
        let cov = coverage_ctx () in
        let c =
          Logic.Parser.clause
            "advisedBy(X,Y) :- hasPosition(Y,assistant_prof), publication(Z,X), publication(Z,Y)"
        in
        match Learning.Armg.generalize cov c ~example:[| v "john"; v "mary" |] with
        | None -> Alcotest.fail "failed"
        | Some g ->
            Alcotest.(check int) "two pubs left" 2 (Clause.size g);
            Alcotest.(check bool) "no hasPosition" true
              (List.for_all
                 (fun l -> Literal.pred l <> "hasPosition")
                 (Clause.body g)));
    Alcotest.test_case "ARMG on an unbindable head returns None" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause "advisedBy(juan,Y) :- professor(Y)" in
        Alcotest.(check bool) "none" true
          (Learning.Armg.generalize cov c ~example:[| v "john"; v "mary" |] = None));
    Alcotest.test_case "ARMG is idempotent on a covering clause" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause
            "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
        in
        match Learning.Armg.generalize cov c ~example:[| v "john"; v "mary" |] with
        | Some g -> Alcotest.(check int) "unchanged" 2 (Clause.size g)
        | None -> Alcotest.fail "failed");
  ]

let learn_tests =
  [
    Alcotest.test_case "learns the co-authorship rule on synthetic UW" `Slow
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.5 () in
        let rng = Random.State.make [| 5 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with timeout = Some 60. }
            cov ~rng ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check bool) "learned something" true
          (r.Learning.Learn.definition <> []);
        let rendered = Clause.definition_to_string r.Learning.Learn.definition in
        let contains needle =
          let nl = String.length needle and hl = String.length rendered in
          let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "uses publication or ta join" true
          (contains "publication" || contains "ta"));
    Alcotest.test_case "timeout returns partial results and flags it" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.5 () in
        let rng = Random.State.make [| 5 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with timeout = Some 0.001 }
            cov ~rng ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check bool) "timed out" true
          (r.Learning.Learn.degradation.Budget.status <> Budget.Completed));
    Alcotest.test_case "no positives yields the empty definition" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let rng = Random.State.make [| 5 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Learning.Learn.learn cov ~rng ~positives:[]
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check int) "empty" 0 (List.length r.Learning.Learn.definition));
  ]

let suite = example_25_tests @ coverage_tests @ armg_tests @ learn_tests

let explain_tests =
  [
    Alcotest.test_case "covered examples come with a grounded witness" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause
            "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
        in
        match Learning.Explain.explain cov c [| v "juan"; v "sarita" |] with
        | Learning.Explain.Covered { supports; _ } ->
            Alcotest.(check int) "two supports" 2 (List.length supports);
            List.iter
              (fun s ->
                Alcotest.(check bool) "grounded" true
                  (Literal.is_ground s.Learning.Explain.grounded))
              supports;
            Alcotest.(check bool) "publication(p1,juan) supports" true
              (List.exists
                 (fun s ->
                   Literal.to_string s.Learning.Explain.grounded
                   = "publication(p1,juan)")
                 supports)
        | Learning.Explain.Not_covered _ -> Alcotest.fail "should be covered");
    Alcotest.test_case "uncovered examples name the blocking literal" `Quick
      (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause
            "advisedBy(X,Y) :- professor(Y), hasPosition(Y,full_prof)"
        in
        match Learning.Explain.explain cov c [| v "juan"; v "sarita" |] with
        | Learning.Explain.Not_covered { blocking = Some l; blocking_index; _ } ->
            Alcotest.(check int) "index 2" 2 blocking_index;
            Alcotest.(check string) "hasPosition blocks" "hasPosition"
              (Literal.pred l)
        | _ -> Alcotest.fail "should be blocked at literal 2");
    Alcotest.test_case "head-binding failure is index 0" `Quick (fun () ->
        let cov = coverage_ctx () in
        let c = Logic.Parser.clause "advisedBy(juan,Y) :- professor(Y)" in
        match Learning.Explain.explain cov c [| v "john"; v "mary" |] with
        | Learning.Explain.Not_covered { blocking = None; blocking_index = 0; _ } -> ()
        | _ -> Alcotest.fail "head should fail");
    Alcotest.test_case "definition explanation picks the covering clause"
      `Quick (fun () ->
        let cov = coverage_ctx () in
        let def =
          [
            Logic.Parser.clause "advisedBy(X,Y) :- hasPosition(Y,full_prof)";
            Logic.Parser.clause
              "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)";
          ]
        in
        match
          Learning.Explain.explain_definition cov def [| v "juan"; v "sarita" |]
        with
        | Ok (clause, Learning.Explain.Covered _) ->
            Alcotest.(check int) "second clause" 2 (Logic.Clause.size clause)
        | _ -> Alcotest.fail "expected a covering clause");
  ]

let suite = suite @ explain_tests

let edge_config_tests =
  [
    Alcotest.test_case "max_clauses 0 returns immediately" `Quick (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let rng = Random.State.make [| 1 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with max_clauses = 0 }
            cov ~rng ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        Alcotest.(check int) "empty" 0 (List.length r.Learning.Learn.definition));
    Alcotest.test_case "learning without negatives still terminates" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let rng = Random.State.make [| 1 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let r =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with timeout = Some 30. }
            cov ~rng ~positives:d.Datasets.Dataset.positives ~negatives:[]
        in
        (* with no negatives every generalization is precision-1; something
           gets learned and the run ends *)
        Alcotest.(check bool) "learned" true (r.Learning.Learn.definition <> []));
    Alcotest.test_case "duplicate positives do not break covering" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~scale:0.3 () in
        let rng = Random.State.make [| 1 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
        in
        let pos = d.Datasets.Dataset.positives in
        let r =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with timeout = Some 30. }
            cov ~rng ~positives:(pos @ pos) ~negatives:d.Datasets.Dataset.negatives
        in
        ignore r.Learning.Learn.definition);
  ]

let suite = suite @ edge_config_tests

let memo_tests =
  [
    Alcotest.test_case "memo hash spreads one clause's examples over stripes"
      `Quick (fun () ->
        (* One clause key of 40 ints against 50 examples: every pair gets
           its own hash, and the pairs reach all 16 lock stripes. A hash
           that read only the key's first ints gave them all one hash. *)
        let key = Array.init 40 (fun i -> i) in
        let key_hash = Logic.Compiled.hash_key key in
        let last_changed = Array.mapi (fun i k -> if i = 39 then -7 else k) key in
        Alcotest.(check bool) "the key's last int changes its hash" true
          (Logic.Compiled.hash_key last_changed <> key_hash);
        let hashes =
          List.init 50 (fun i ->
              Coverage.memo_hash ~key_hash [| v "person"; Value.int i |])
        in
        let distinct l = List.length (List.sort_uniq compare l) in
        Alcotest.(check int) "distinct memo hashes" 50 (distinct hashes);
        Alcotest.(check int) "stripes touched" 16
          (distinct (List.map Coverage.memo_stripe hashes)));
  ]

let suite = suite @ memo_tests

(* Appended last so the tests above keep their indices in the suite. *)
let armg_memo_tests =
  [
    Alcotest.test_case "ARMG through the memo equals the uncached sweep" `Slow
      (fun () ->
        (* A chain of ARMG steps on UW and SYS, asked of a cached context
           and of an uncached one built alike. Each step is asked twice
           (a sweep, then the remembered clause, physically), and its
           result is evaluated against the same example, then generalized
           against it twice more: a [Covered] verdict answers without a
           sweep. Every answer must print as the uncached one. *)
        List.iter
          (fun (name, (d : Datasets.Dataset.t)) ->
            let context use_cache =
              Coverage.create ~use_cache d.db d.manual_bias
                ~rng:(Random.State.make [| 7 |])
            in
            let cached = context true and uncached = context false in
            let show = Option.fold ~none:"None" ~some:Clause.to_string in
            let shortcuts = ref 0 in
            let ask c e =
              let first = Learning.Armg.generalize cached c ~example:e in
              let again = Learning.Armg.generalize cached c ~example:e in
              let want = show (Learning.Armg.generalize uncached c ~example:e) in
              Alcotest.(check string) (name ^ ": cached ARMG") want (show first);
              Alcotest.(check bool) (name ^ ": asked again, the same clause")
                true
                (match (first, again) with
                | Some a, Some b -> a == b
                | None, None -> true
                | _ -> false);
              first
            in
            let positives = d.positives in
            let bc =
              Bottom_clause.build d.db d.manual_bias
                ~rng:(Random.State.make [| 7; 1 |])
                ~example:(List.hd positives)
            in
            ignore
              (List.fold_left
                 (fun c e ->
                   match ask c e with
                   | None -> c
                   | Some g ->
                       (match Coverage.eval cached g e with
                       | Logic.Compiled.Covered _ -> incr shortcuts
                       | Logic.Compiled.Blocked _ -> ());
                       ignore (ask g e);
                       g)
                 bc
                 (Logic.Util.take 10 (List.tl positives)));
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d covered pairs generalized" name !shortcuts)
              true (!shortcuts > 0))
          [
            ("uw", Datasets.Uw.generate ~seed:5 ~scale:0.3 ());
            ("sys", Datasets.Sys_data.generate ~seed:5 ~scale:0.05 ());
          ]);
  ]

let suite = suite @ armg_memo_tests
