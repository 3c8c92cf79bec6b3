(* The failure-constraint pruning store's contract: soundness (a prune hit
   replays the exact verdict the evaluator would produce — in particular,
   every pruned candidate really has zero positive coverage on that
   example) and learner-level bit-identity: runs without the store learn
   the identical definition at a fixed seed, sequentially and under a
   2-domain pool. Pruning may only ever remove subsumption work, never
   change it, and it must remove at least a fifth of it. *)

module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Pool = Parallel.Pool

let render def = Logic.Clause.definition_to_string def

(* ---------------- soundness properties ---------------- *)

let properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a prune hit replays the evaluator's exact verdict" ~count:8
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* Populate the store by evaluating a bottom clause and its
              prefixes against every example, then check each probe hit
              against a pruning-off oracle context over the same world:
              the stored verdict must be Blocked at the same index the
              oracle blocks at — i.e. the pruned (clause, example) pair
              really has zero coverage. *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let mk use_pruning =
             Coverage.create ~use_cache:false ~use_pruning
               d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 77 |])
           in
           let pruned = mk true and oracle = mk false in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:pos.(j mod Array.length pos)
           in
           let body = Logic.Clause.body bc in
           let prefix k =
             Logic.Clause.make (Logic.Clause.head bc)
               (List.filteri (fun i _ -> k * i < List.length body) body)
           in
           let clauses = [ bc; prefix 2; prefix 4 ] in
           let examples =
             d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
           in
           List.iter
             (fun c ->
               List.iter (fun e -> ignore (Coverage.eval pruned c e)) examples)
             clauses;
           List.for_all
             (fun c ->
               List.for_all
                 (fun e ->
                   match Coverage.probe_pruned pruned c e with
                   | None -> true
                   | Some (Logic.Compiled.Covered _) ->
                       false (* the store must never predict coverage *)
                   | Some (Logic.Compiled.Blocked i) -> (
                       match Coverage.eval oracle c e with
                       | Logic.Compiled.Blocked i' -> i = i'
                       | Logic.Compiled.Covered _ -> false))
                 examples)
             clauses));
  ]

(* ---------------- learner A/B: pruning on/off ---------------- *)

let learn_uw ?pool ?(use_pruning = true) ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.4 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create ~use_pruning d.Datasets.Dataset.db
      d.Datasets.Dataset.manual_bias ~rng
  in
  let config = { Learn.default_config with timeout = Some 600.; pool } in
  let r =
    Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
      ~negatives:d.Datasets.Dataset.negatives
  in
  (r, Coverage.prune_stats cov)

let ab_tests =
  [
    Alcotest.test_case
      "prune on/off: bit-identical definitions, tries only shrink" `Slow
      (fun () ->
        (* The correctness bar: pruning is a verdict-preserving cache, so
           the accepted definition must be bit-identical with the store on
           and off at a fixed seed. The store must also earn its keep: it
           cuts subsumption tries to at most 0.8x (about 0.5x today). *)
        let on, stats = learn_uw ~use_pruning:true ~seed:5 () in
        let off, _ = learn_uw ~use_pruning:false ~seed:5 () in
        Alcotest.(check string) "identical definition"
          (render off.Learn.definition)
          (render on.Learn.definition);
        Alcotest.(check bool) "nonempty" true (on.Learn.definition <> []);
        let counters r = r.Learn.degradation.Budget.counters in
        let tries_on = (counters on).Budget.subsumption_tries in
        let tries_off = (counters off).Budget.subsumption_tries in
        Alcotest.(check bool)
          (Printf.sprintf "at most 0.8x the tries (%d on vs %d off)" tries_on
             tries_off)
          true
          (float_of_int tries_on <= 0.8 *. float_of_int tries_off);
        Alcotest.(check bool) "constraints were learned" true
          ((counters on).Budget.constraints_learned > 0);
        Alcotest.(check bool) "the store was probed" true (stats.probes > 0);
        Alcotest.(check bool) "store stats agree with the counter" true
          (stats.constraints <= (counters on).Budget.constraints_learned));
    Alcotest.test_case "prune on under a 2-domain pool: bit-identical" `Slow
      (fun () ->
        let off, _ = learn_uw ~use_pruning:false ~seed:5 () in
        let pooled, _ =
          Pool.with_pool ~size:2 (fun p ->
              learn_uw ~pool:p ~use_pruning:true ~seed:5 ())
        in
        Alcotest.(check string) "identical definition"
          (render off.Learn.definition)
          (render pooled.Learn.definition));
  ]

let suite = properties @ ab_tests
