(* Cross-cutting property-based tests: invariants of ARMG, clause reduction,
   the two coverage engines, CSV round-trips, and the samplers — the
   properties DESIGN.md leans on. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Coverage = Learning.Coverage

let v = Value.str

(* A randomized small UW-style world: returns (dataset-free) database, bias,
   coverage context, and the example pool. Deterministic per seed. *)
let world seed =
  let d = Datasets.Uw.generate ~seed ~scale:0.3 () in
  let rng = Random.State.make [| seed; 77 |] in
  let cov =
    Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
  in
  (d, cov, rng)

let armg_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ARMG covers its example and never grows"
         ~count:25
         QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
         (fun (seed, (i, j)) ->
           let d, cov, rng = world (1 + (seed mod 17)) in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e1 = pos.(i mod Array.length pos) in
           let e2 = pos.(j mod Array.length pos) in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias ~rng ~example:e1
           in
           match Learning.Armg.generalize cov bc ~example:e2 with
           | None -> false (* positives always bind the target head *)
           | Some c ->
               Logic.Clause.size c <= Logic.Clause.size bc
               && Coverage.covers cov c e2));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"ARMG output stays head-connected" ~count:15
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           let d, cov, rng = world (1 + (seed mod 17)) in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e1 = pos.(0) and e2 = pos.(j mod Array.length pos) in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias ~rng ~example:e1
           in
           match Learning.Armg.generalize cov bc ~example:e2 with
           | None -> false
           | Some c ->
               (* pruning is idempotent on ARMG output *)
               Logic.Clause.size (Logic.Clause.prune_head_connected c)
               = Logic.Clause.size c));
  ]

let coverage_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"memoized coverage equals a fresh uncached oracle" ~count:10
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* Two contexts over the same world and master seed: one memoized,
              one the uncached oracle. Every verdict must agree, and asking
              the memoized context twice (second answer is a cache hit) must
              not change it. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let mk use_cache =
             let budget = Budget.create () in
             ( budget,
               Coverage.create ~budget ~use_cache d.Datasets.Dataset.db
                 d.Datasets.Dataset.manual_bias
                 ~rng:(Random.State.make [| s; 77 |]) )
           in
           let cached_budget, cached = mk true
           and oracle_budget, oracle = mk false in
           let memo_hits b = (Budget.counters b).Budget.coverage_memo_hits in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:pos.(j mod Array.length pos)
           in
           let body = Logic.Clause.body bc in
           let half = List.filteri (fun i _ -> 2 * i < List.length body) body in
           let clauses =
             [ bc; Logic.Clause.make (Logic.Clause.head bc) half ]
           in
           let examples =
             d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
           in
           List.for_all
             (fun c ->
               List.for_all
                 (fun e ->
                   let first = Coverage.covers cached c e in
                   let again = Coverage.covers cached c e in
                   let truth = Coverage.covers oracle c e in
                   first = truth && again = truth)
                 examples)
             clauses
           && memo_hits cached_budget > 0
           && memo_hits oracle_budget = 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"ARMG monotonicity: child covers everything its parent covers"
         ~count:20
         QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
         (fun (seed, (i, j)) ->
           (* The invariant monotone propagation in Learn relies on: ARMG
              only drops/generalizes body literals, so the child's covered
              set contains the parent's. The containment is exact whenever
              the evaluator is exact; a truncated (cap-subsampled) frontier
              is the documented approximation that can lose a witness, so
              instances where any truncation fired pass vacuously. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let b = Budget.create () in
           let rng = Random.State.make [| s; 77 |] in
           let cov =
             Coverage.create ~budget:b d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias ~rng
           in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e1 = pos.(i mod Array.length pos) in
           let e2 = pos.(j mod Array.length pos) in
           let parent =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias ~rng ~example:e1
           in
           match Learning.Armg.generalize cov parent ~example:e2 with
           | None -> false
           | Some child ->
               let monotone =
                 List.for_all
                   (fun e ->
                     (not (Coverage.covers cov parent e))
                     || Coverage.covers cov child e)
                   (d.Datasets.Dataset.positives
                   @ d.Datasets.Dataset.negatives)
               in
               monotone
               || (Budget.counters b).Budget.coverage_truncated > 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"dropping body literals only generalizes (frontier engine)"
         ~count:25
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* If clause C covers e, so does C minus any suffix of its body
              (prefix evaluation is antitone in the body). *)
           let d, cov, rng = world (1 + (seed mod 17)) in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e = pos.(j mod Array.length pos) in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias ~rng ~example:e
           in
           let body = Logic.Clause.body bc in
           let k = List.length body / 2 in
           let prefix = List.filteri (fun i _ -> i < k) body in
           let full_covers = Coverage.covers cov bc e in
           let prefix_covers =
             Coverage.covers cov (Logic.Clause.make (Logic.Clause.head bc) prefix) e
           in
           (not full_covers) || prefix_covers));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"query engine agrees with subsumption on crisp clauses"
         ~count:10
         QCheck.(int_bound 1000)
         (fun seed ->
           let d, cov, _rng = world (1 + (seed mod 7)) in
           let clause =
             Logic.Parser.clause
               "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
           in
           (* The gold clause touches only fully-sampled neighbourhoods at
              this scale, so both engines must agree on every example. *)
           List.for_all
             (fun e ->
               Learning.Query.covers d.Datasets.Dataset.db clause e
               = Coverage.covers cov clause e)
             (d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives)));
  ]

let inference_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"derive agrees with per-tuple query coverage" ~count:8
         QCheck.(int_bound 1000)
         (fun seed ->
           let d, _cov, _rng = world (1 + (seed mod 7)) in
           let db = d.Datasets.Dataset.db in
           let clause =
             Logic.Parser.clause
               "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y), student(X), professor(Y)"
           in
           let derived = Learning.Inference.derive db clause in
           (* Everything derived is covered... *)
           List.for_all (fun t -> Learning.Query.covers db clause t) derived
           (* ...and every covered example is derived. *)
           && List.for_all
                (fun e ->
                  (not (Learning.Query.covers db clause e))
                  || List.mem e derived)
                (d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives)));
  ]

let csv_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"CSV round-trips arbitrary printable relations"
         ~count:100
         QCheck.(
           list_of_size
             Gen.(int_range 0 30)
             (pair (string_small_of Gen.(char_range 'a' 'z')) small_int))
         (fun rows ->
           let schema = Schema.relation "r" [| "a"; "b" |] in
           let r =
             Relation.of_tuples schema
               (List.map (fun (a, b) -> [| v a; Value.int b |]) rows)
           in
           let r2 =
             Relational.Csv.parse_string ~schema (Relational.Csv.to_string r)
           in
           List.rev (Relation.tuples r) = List.rev (Relation.tuples r2)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"CSV round-trips fields needing quoting"
         ~count:100
         QCheck.(
           list_of_size Gen.(int_range 1 10)
             (string_small_of
                Gen.(oneof [ char_range 'a' 'z'; return ','; return '"' ])))
         (fun fields ->
           QCheck.assume (List.for_all (fun s -> s <> "") fields);
           let schema = Schema.relation "r" [| "x" |] in
           let r =
             Relation.of_tuples schema (List.map (fun s -> [| v s |]) fields)
           in
           let r2 =
             Relational.Csv.parse_string ~schema (Relational.Csv.to_string r)
           in
           List.rev (Relation.tuples r) = List.rev (Relation.tuples r2)));
  ]

let sampler_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"all samplers return subsets of the selection" ~count:60
         QCheck.(
           pair (int_bound 1000)
             (list_of_size Gen.(int_range 1 40) (pair (int_bound 6) (int_bound 6))))
         (fun (seed, rows) ->
           let schema = Schema.relation "r" [| "k"; "p" |] in
           let rel =
             Relation.of_tuples schema
               (List.map (fun (k, p) -> [| Value.int k; Value.int p |]) rows)
           in
           let known =
             Value.Set.of_list (List.init 4 (fun i -> Value.int i))
           in
           let rng = Random.State.make [| seed |] in
           List.for_all
             (fun strategy ->
               let sample =
                 Sampling.Strategy.sample strategy ~rng ~rel ~pos:0 ~known
                   ~size:5 ~constant_positions:[ 1 ]
               in
               List.for_all
                 (fun t ->
                   Value.Set.mem t.(0) known
                   && List.mem (t.(0), t.(1))
                        (List.map (fun (k, p) -> (Value.int k, Value.int p)) rows))
                 sample)
             Sampling.Strategy.all));
  ]

let subsumption_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"subsumption is monotone under ground-clause growth" ~count:150
         QCheck.(
           pair
             (list_of_size Gen.(int_range 1 4)
                (pair (int_bound 1) (pair (int_bound 3) (int_bound 3))))
             (pair
                (list_of_size Gen.(int_range 1 6)
                   (pair (int_bound 1) (pair (int_bound 2) (int_bound 2))))
                (list_of_size Gen.(int_range 0 4)
                   (pair (int_bound 1) (pair (int_bound 2) (int_bound 2))))))
         (fun (body_spec, (g1_spec, extra_spec)) ->
           let lit (p, (a, b)) ~ground =
             let t x =
               if ground then Logic.Term.Const (Value.int x)
               else if x < 2 then Logic.Term.Var x
               else Logic.Term.Const (Value.int x)
             in
             Logic.Literal.make (Printf.sprintf "p%d" p) [| t a; t b |]
           in
           let body = List.map (lit ~ground:false) body_spec in
           let g1 = List.map (lit ~ground:true) g1_spec in
           let extra = List.map (lit ~ground:true) extra_spec in
           let c = Logic.Clause.make (Logic.Parser.literal "h(X)") body in
           let covers g =
             Oracle.subsumes c (Oracle.ground_of_literals g)
           in
           (* adding literals to the ground clause can only help *)
           (not (covers g1)) || covers (g1 @ extra)));
  ]

let suite =
  armg_properties @ coverage_properties @ inference_properties
  @ csv_properties @ sampler_properties @ subsumption_properties
