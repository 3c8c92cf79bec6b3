(* The parallel runtime: determinism of the Par combinators against their
   sequential counterparts, exception propagation, pool reuse, nested jobs,
   thread-safe batch coverage, and the headline guarantee — Learn.learn
   produces the identical definition with pool = None and a 1-domain pool. *)

module Pool = Parallel.Pool
module Par = Parallel.Par
module Coverage = Learning.Coverage

(* AUTOBIAS_CHAOS=P arms the shared pool with seeded fault injection at
   probability P (seed from AUTOBIAS_CHAOS_SEED, worker-kill probability
   from AUTOBIAS_CHAOS_KILL, both defaulting to 0) — how the CI chaos job
   runs the whole suite under injection. Unset, empty, unparsable or
   non-positive leaves the pool clean. *)
let chaos_from_env () =
  let env var parse = Option.bind (Sys.getenv_opt var) parse in
  match env "AUTOBIAS_CHAOS" float_of_string_opt with
  | Some p when p > 0. ->
      let seed =
        Option.value (env "AUTOBIAS_CHAOS_SEED" int_of_string_opt) ~default:0
      in
      let p_kill =
        Option.value (env "AUTOBIAS_CHAOS_KILL" float_of_string_opt) ~default:0.
      in
      Some (Chaos.create ~p_fault:p ~p_kill ~seed ())
  | _ -> None

(* One pool shared by the whole suite: spawning domains per test would
   dominate runtime. Sized 2 to exercise real concurrency where cores
   allow. Under AUTOBIAS_CHAOS every result assertion must still hold,
   since killed pool jobs only lose parallelism, never results. *)
let shared_pool = lazy (Pool.create ~size:2 ?chaos:(chaos_from_env ()) ())

let pool () = Lazy.force shared_pool

let pool_tests =
  [
    Alcotest.test_case "create clamps size and reports it" `Quick (fun () ->
        Pool.with_pool ~size:0 (fun p ->
            Alcotest.(check int) "clamped up" 1 (Pool.size p));
        Alcotest.(check bool) "default positive" true (Pool.default_size () >= 1));
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        let xs = List.init 100 Fun.id in
        let got = Par.parallel_map ~pool:(pool ()) (fun x -> x * x) xs in
        Alcotest.(check (list int)) "ordered" (List.map (fun x -> x * x) xs) got);
    Alcotest.test_case "map on the empty list" `Quick (fun () ->
        Alcotest.(check (list int)) "empty" []
          (Par.parallel_map ~pool:(pool ()) (fun x -> x) []));
    Alcotest.test_case "pool is reusable across jobs" `Quick (fun () ->
        let p = pool () in
        for i = 1 to 5 do
          let xs = List.init (10 * i) Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "round %d" i)
            (List.map succ xs)
            (Par.parallel_map ~pool:p succ xs)
        done);
    Alcotest.test_case "exception of the lowest index propagates" `Quick
      (fun () ->
        let p = pool () in
        let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
        (match Par.parallel_map ~pool:p f (List.init 20 (fun i -> i + 1)) with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg ->
            (* 3 is the first failing input *)
            Alcotest.(check string) "lowest index" "3" msg);
        (* the pool survives a failed job *)
        Alcotest.(check (list int)) "alive" [ 2; 4 ]
          (Par.parallel_map ~pool:p (fun x -> 2 * x) [ 1; 2 ]));
    Alcotest.test_case "nested parallel_map on one pool cannot deadlock"
      `Quick (fun () ->
        let p = pool () in
        let got =
          Par.parallel_map ~pool:p
            (fun x ->
              Par.parallel_map ~pool:p (fun y -> (10 * x) + y) [ 1; 2; 3 ])
            [ 1; 2 ]
        in
        Alcotest.(check (list (list int)))
          "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got);
    Alcotest.test_case "iter visits every element exactly once" `Quick
      (fun () ->
        let n = 200 in
        let hits = Array.make n (Atomic.make 0) in
        Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
        Par.parallel_iter ~pool:(pool ())
          (fun i -> Atomic.incr hits.(i))
          (List.init n Fun.id);
        Array.iter (fun a -> Alcotest.(check int) "once" 1 (Atomic.get a)) hits);
    Alcotest.test_case "submit after shutdown raises" `Quick (fun () ->
        let p = Pool.create ~size:1 () in
        Pool.shutdown p;
        Pool.shutdown p;
        (* idempotent *)
        Alcotest.check_raises "raises"
          (Invalid_argument "Parallel.Pool.submit: pool is shut down")
          (fun () -> Pool.submit p (fun () -> ())));
    Alcotest.test_case "stats: queue drains and per-worker tallies add up"
      `Quick (fun () ->
        (* A private pool (the shared one keeps serving later tests, so its
           counters would be a moving target), shut down before reading:
           the caller's domain helps Par combinators with items, so queued
           tasks can outlive the map as no-ops — only after [shutdown]
           joins the workers are the queue and every tally final. *)
        let p = Pool.create ~size:2 () in
        ignore (Par.parallel_map ~pool:p (fun x -> x + 1) (List.init 64 Fun.id));
        Pool.shutdown p;
        let s = Pool.stats p in
        Alcotest.(check int) "queue drained" 0 s.Pool.queue_depth;
        Alcotest.(check int) "one tally per worker" 2
          (Array.length s.Pool.per_worker);
        (* utilization is conserved: per-worker dequeue tallies must sum to
           the pool-wide dequeue counter *)
        Alcotest.(check int) "per-worker sums to tasks_run" s.Pool.tasks_run
          (Array.fold_left ( + ) 0 s.Pool.per_worker));
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_map equals List.map" ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_map ~pool:(pool ()) (fun x -> (x * 7) - 1) xs
           = List.map (fun x -> (x * 7) - 1) xs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_filter_count equals List.filter length"
         ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_filter_count ~pool:(pool ()) (fun x -> x mod 2 = 0) xs
           = List.length (List.filter (fun x -> x mod 2 = 0) xs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parallel_filter equals List.filter" ~count:50
         QCheck.(list small_int)
         (fun xs ->
           Par.parallel_filter ~pool:(pool ()) (fun x -> x mod 3 <> 0) xs
           = List.filter (fun x -> x mod 3 <> 0) xs));
  ]

(* Batch coverage: the *_many entry points must agree with their sequential
   counterparts — coverage is deterministic per example, so pool size and
   scheduling cannot change any verdict. *)
let coverage_tests =
  [
    Alcotest.test_case "count_many/covered_many equal count/covered" `Quick
      (fun () ->
        let d = Datasets.Uw.generate ~seed:11 ~scale:0.3 () in
        let rng = Random.State.make [| 11; 77 |] in
        let cov =
          Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias
            ~rng
        in
        let examples =
          d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives
        in
        Coverage.warm ~pool:(pool ()) cov examples;
        let clause =
          Logic.Parser.clause
            "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)"
        in
        Alcotest.(check int) "count"
          (Coverage.count cov clause examples)
          (Coverage.count_many ~pool:(pool ()) cov clause examples);
        Alcotest.(check int) "covered (same sublist)"
          (List.length (Coverage.covered cov clause examples))
          (List.length (Coverage.covered_many ~pool:(pool ()) cov clause examples)));
    Alcotest.test_case "parallel warm builds the identical cache" `Quick
      (fun () ->
        let build pool =
          let d = Datasets.Uw.generate ~seed:3 ~scale:0.3 () in
          let rng = Random.State.make [| 3; 99 |] in
          let cov =
            Coverage.create d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng
          in
          Coverage.warm ?pool cov d.Datasets.Dataset.positives;
          List.map
            (fun e -> Logic.Compiled.ground_size (Coverage.ground_of cov e))
            d.Datasets.Dataset.positives
        in
        Alcotest.(check (list int)) "same ground BCs" (build None)
          (build (Some (pool ()))));
  ]

(* The headline determinism guarantee (acceptance criterion): a full
   Learn.learn run yields the identical definition sequentially and on a
   1-domain pool. *)
let learn_tests =
  [
    Alcotest.test_case "Learn.learn: pool=None == 1-domain pool" `Slow
      (fun () ->
        let learn pool =
          let d = Datasets.Uw.generate ~seed:5 ~scale:0.4 () in
          let rng = Random.State.make [| 5 |] in
          let cov =
            Coverage.create d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng
          in
          let config =
            { Learning.Learn.default_config with timeout = Some 60.; pool }
          in
          let r =
            Learning.Learn.learn ~config cov ~rng
              ~positives:d.Datasets.Dataset.positives
              ~negatives:d.Datasets.Dataset.negatives
          in
          Logic.Clause.definition_to_string r.Learning.Learn.definition
        in
        let seq = learn None in
        let par = Pool.with_pool ~size:1 (fun p -> learn (Some p)) in
        Alcotest.(check string) "identical definition" seq par;
        Alcotest.(check bool) "nonempty" true (seq <> ""));
  ]

let suite = pool_tests @ qcheck_tests @ coverage_tests @ learn_tests
