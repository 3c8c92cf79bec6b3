(* The serving layer: protocol totality, catalog sharing, daemon admission
   control (the qcheck property: in-flight never exceeds the cap, every
   rejection is typed, nothing is silently dropped), retry/quarantine,
   deadline degradation, graceful drain, the chaos soak, and the
   bit-identity of served results with direct library calls. *)

module Protocol = Server.Protocol
module Catalog = Server.Catalog
module Daemon = Server.Daemon
module Loadgen = Server.Loadgen

let null_payload : Protocol.payload = []

(* a handler that ignores the request: the daemon tests care about job
   mechanics, not learning *)
let handler_const ?(work = fun () -> ()) () ~budget:_ _req =
  work ();
  (null_payload, None)

let learn_uw ?(seed = 7) ?(deadline = None) () =
  Protocol.Learn
    { (Protocol.default_common "uw") with scale = 0.15; seed; deadline }

(* ---------------- protocol ---------------- *)

let protocol_tests =
  [
    Alcotest.test_case "parse fills defaults and typed options" `Quick
      (fun () ->
        match
          Protocol.parse_request
            "learn uw method=autobias scale=0.5 seed=7 timeout=10 deadline=30"
        with
        | Ok (Protocol.Learn c) ->
            Alcotest.(check string) "dataset" "uw" c.Protocol.dataset;
            Alcotest.(check (float 0.)) "scale" 0.5 c.Protocol.scale;
            Alcotest.(check int) "seed" 7 c.Protocol.seed;
            Alcotest.(check (float 0.)) "timeout" 10. c.Protocol.timeout;
            Alcotest.(check (option (float 0.)))
              "deadline" (Some 30.) c.Protocol.deadline
        | Ok _ -> Alcotest.fail "parsed to the wrong verb"
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "render/parse round-trips every verb" `Quick (fun () ->
        List.iter
          (fun r ->
            match Protocol.parse_request (Protocol.request_to_string r) with
            | Ok r' ->
                Alcotest.(check string)
                  "round trip"
                  (Protocol.request_to_string r)
                  (Protocol.request_to_string r')
            | Error e -> Alcotest.fail e)
          [
            Protocol.Induce_bias (Protocol.default_common "imdb");
            learn_uw ~deadline:(Some 3.) ();
            Protocol.Infer (Protocol.default_common "uw", 5);
            Protocol.Explain (Protocol.default_common "hiv", 2);
          ]);
    Alcotest.test_case "parsing is total on malformed lines" `Quick (fun () ->
        List.iter
          (fun line ->
            match Protocol.parse_request line with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("accepted malformed line: " ^ line))
          [
            "";
            "learn";
            "frobnicate uw";
            "learn scale=2";
            "learn uw scale=abc";
            "learn uw seed=1.5";
            "learn uw bogus";
            "learn uw unknown=1";
            "learn uw scale=nan";
            "learn uw scale=inf";
            "learn uw timeout=nan";
            "learn uw deadline=nan";
            "learn uw deadline=-inf";
            "learn uw scale=0.2 timeout=-5";
            "learn uw deadline=-1";
            "infer uw limit=-3";
            "explain uw limit=-1";
          ]);
    Alcotest.test_case "responses and rejections render to valid JSON" `Quick
      (fun () ->
        let check_json j =
          match Obs.Json.parse (Obs.Json.to_string j) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e
        in
        check_json
          (Protocol.response_to_json
             {
               Protocol.id = 1;
               outcome = Protocol.Completed [ ("x", Obs.Json.Int 1) ];
               latency_s = 0.1;
               attempts = 1;
             });
        check_json
          (Protocol.response_to_json
             {
               Protocol.id = 2;
               outcome =
                 Protocol.Quarantined
                   { attempts = 3; exn = "Chaos.Killed(4)"; backtrace = "bt" };
               latency_s = 0.1;
               attempts = 3;
             });
        check_json
          (Protocol.rejection_to_json
             (Protocol.Overloaded { retry_after = 0.25 }));
        check_json (Protocol.rejection_to_json Protocol.Draining));
    Alcotest.test_case "default timeout is the library's and the CLI's"
      `Quick (fun () ->
        match Protocol.parse_request "learn uw" with
        | Ok (Protocol.Learn c) ->
            Alcotest.(check (option (float 0.)))
              "timeout" Autobias.default_config.Autobias.timeout
              (Some c.Protocol.timeout)
        | Ok _ -> Alcotest.fail "parsed to the wrong verb"
        | Error e -> Alcotest.fail e);
  ]

(* Any line at all, and lines assembled from the grammar's own words, so
   that the key=value paths are reached too. *)
let parse_total_property =
  let word =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ "learn"; "bias"; "infer"; "explain"; "uw"; "scale"; "seed";
              "timeout"; "deadline"; "limit"; "nan"; "inf"; "-3"; "0.5"; "" ];
          string_printable;
        ])
  in
  let kv = QCheck.Gen.(map (String.concat "=") (list_size (1 -- 3) word)) in
  let line =
    QCheck.Gen.(
      oneof [ string; map (String.concat " ") (list_size (0 -- 6) kv) ])
  in
  QCheck.Test.make ~name:"parse_request answers Ok or Error on any string"
    ~count:2000
    (QCheck.make ~print:String.escaped line)
    (fun l ->
      match Protocol.parse_request l with Ok _ | Error _ -> true)

(* ---------------- catalog ---------------- *)

let catalog_tests =
  [
    Alcotest.test_case "unknown dataset is a typed error, not an exception"
      `Quick (fun () ->
        let c = Catalog.create () in
        match Catalog.load c ~name:"nope" ~scale:1. ~seed:1 with
        | Error (Catalog.Unknown_dataset "nope") -> ()
        | Error e -> Alcotest.fail (Catalog.error_to_string e)
        | Ok _ -> Alcotest.fail "loaded a dataset that does not exist");
    Alcotest.test_case "a non-positive or non-finite scale is a typed error"
      `Quick (fun () ->
        let c = Catalog.create () in
        List.iter
          (fun scale ->
            match Catalog.load c ~name:"uw" ~scale ~seed:1 with
            | Error (Catalog.Invalid_scale _) -> ()
            | Error e -> Alcotest.fail (Catalog.error_to_string e)
            | Ok _ -> Alcotest.failf "loaded uw at scale %g" scale)
          [ 0.; -1.; Float.nan; Float.infinity ];
        Alcotest.(check int) "nothing published" 0
          (List.length (Catalog.loaded c)));
    Alcotest.test_case "repeat load returns the same physical entry" `Quick
      (fun () ->
        let c = Catalog.create () in
        let d1 =
          Result.get_ok (Catalog.load c ~name:"uw" ~scale:0.15 ~seed:3)
        in
        let d2 =
          Result.get_ok (Catalog.load c ~name:"uw" ~scale:0.15 ~seed:3)
        in
        Alcotest.(check bool) "physically shared" true (d1 == d2);
        let d3 =
          Result.get_ok (Catalog.load c ~name:"uw" ~scale:0.15 ~seed:4)
        in
        Alcotest.(check bool) "different seed, different entry" false (d1 == d3);
        Alcotest.(check int) "two keys published" 2
          (List.length (Catalog.loaded c)));
  ]

(* ---------------- admission control (qcheck) ---------------- *)

(* 4 workers gives genuine concurrency above any cap the generator picks;
   with_pool joins them every iteration so no domain outlives its case. *)
let admission_property =
  QCheck.Test.make ~name:"in-flight never exceeds the cap; no silent drops"
    ~count:25
    QCheck.(
      triple (int_range 1 3) (int_range 0 3) (int_range 1 25))
    (fun (max_in_flight, max_queue, jobs) ->
      Parallel.Pool.with_pool ~size:4 @@ fun pool ->
      let running = Atomic.make 0 in
      let high_water = Atomic.make 0 in
      let handler ~budget:_ _req =
        let c = Atomic.fetch_and_add running 1 + 1 in
        let rec bump () =
          let m = Atomic.get high_water in
          if c > m && not (Atomic.compare_and_set high_water m c) then bump ()
        in
        bump ();
        Unix.sleepf 0.002;
        Atomic.decr running;
        (null_payload, None)
      in
      let daemon =
        Daemon.create ~pool
          ~config:
            {
              Daemon.default_config with
              max_in_flight;
              max_queue;
              max_attempts = 1;
            }
          handler
      in
      let accepted = ref [] and rejected = ref 0 in
      for i = 0 to jobs - 1 do
        match Daemon.submit daemon (learn_uw ~seed:i ()) with
        | Ok job -> accepted := job :: !accepted
        | Error (Protocol.Overloaded { retry_after }) ->
            if retry_after < 0. then
              QCheck.Test.fail_report "negative retry_after";
            incr rejected
        | Error Protocol.Draining ->
            QCheck.Test.fail_report "Draining without a drain"
      done;
      let responses = List.map (Daemon.await daemon) !accepted in
      let stats = Daemon.stats daemon in
      List.length !accepted + !rejected = jobs
      && stats.Daemon.submitted = List.length !accepted
      && stats.Daemon.rejected = !rejected
      && List.length responses = List.length !accepted
      && Atomic.get high_water <= max_in_flight
      && stats.Daemon.in_flight = 0
      && stats.Daemon.waiting = 0)

(* ---------------- retry / quarantine ---------------- *)

let fast_retry =
  {
    Resilience.Policy.default with
    backoff_base_s = 0.001;
    backoff_max_s = 0.002;
  }

let retry_tests =
  [
    Alcotest.test_case "poisoned job is quarantined with its backtrace"
      `Quick (fun () ->
        let handler ~budget:_ _req = failwith "poison" in
        let daemon =
          Daemon.create
            ~config:
              {
                Daemon.default_config with
                max_attempts = 3;
                policy = fast_retry;
              }
            handler
        in
        match Daemon.submit_and_wait daemon (learn_uw ()) with
        | Ok
            {
              Protocol.outcome =
                Protocol.Quarantined { attempts = consumed; exn; _ };
              attempts;
              _;
            } ->
            Alcotest.(check int) "attempts consumed" 3 consumed;
            Alcotest.(check int) "response attempts" 3 attempts;
            Alcotest.(check bool)
              "exception recorded" true
              (String.length exn > 0);
            let stats = Daemon.stats daemon in
            Alcotest.(check int) "quarantined tally" 1 stats.Daemon.quarantined;
            Alcotest.(check int) "retries tally" 2 stats.Daemon.retries
        | Ok r ->
            Alcotest.fail
              ("expected quarantine, got " ^ Protocol.status_of_outcome
                                               r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case "transient fault is retried to completion" `Quick
      (fun () ->
        let first = Atomic.make true in
        let handler ~budget:_ _req =
          if Atomic.compare_and_set first true false then failwith "transient"
          else (null_payload, None)
        in
        let daemon =
          Daemon.create
            ~config:
              {
                Daemon.default_config with
                max_attempts = 3;
                policy = fast_retry;
              }
            handler
        in
        match Daemon.submit_and_wait daemon (learn_uw ()) with
        | Ok { Protocol.outcome = Protocol.Completed _; attempts; _ } ->
            Alcotest.(check int) "second attempt succeeded" 2 attempts;
            Alcotest.(check int) "one retry" 1 (Daemon.stats daemon).Daemon.retries
        | Ok r ->
            Alcotest.fail
              ("expected completion, got " ^ Protocol.status_of_outcome
                                               r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case "a bad request fails without burning retries" `Quick
      (fun () ->
        let handler ~budget:_ _req =
          raise (Server.Handler.Bad_request "no such thing")
        in
        let daemon = Daemon.create handler in
        match Daemon.submit_and_wait daemon (learn_uw ()) with
        | Ok { Protocol.outcome = Protocol.Failed msg; attempts; _ } ->
            Alcotest.(check string) "message" "no such thing" msg;
            Alcotest.(check int) "first attempt" 1 attempts;
            Alcotest.(check int) "no retries" 0
              (Daemon.stats daemon).Daemon.retries
        | Ok r ->
            Alcotest.fail
              ("expected failure, got " ^ Protocol.status_of_outcome
                                            r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
  ]

(* ---------------- deadlines and drain ---------------- *)

let spin_until_expired ~budget _req =
  while not (Budget.expired budget) do
    Unix.sleepf 0.001
  done;
  (null_payload, Some (Budget.degradation budget))

let deadline_tests =
  [
    Alcotest.test_case "an expired job answers degraded, not dead" `Quick
      (fun () ->
        let daemon = Daemon.create spin_until_expired in
        match
          Daemon.submit_and_wait daemon (learn_uw ~deadline:(Some 0.05) ())
        with
        | Ok { Protocol.outcome = Protocol.Degraded (_, d); _ } ->
            Alcotest.(check string)
              "deadline hit" "deadline_hit"
              (Budget.status_to_string d.Budget.status)
        | Ok r ->
            Alcotest.fail
              ("expected degraded, got " ^ Protocol.status_of_outcome
                                             r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case "config default_deadline applies when unset" `Quick
      (fun () ->
        let daemon =
          Daemon.create
            ~config:
              { Daemon.default_config with default_deadline = Some 0.05 }
            spin_until_expired
        in
        match Daemon.submit_and_wait daemon (learn_uw ()) with
        | Ok { Protocol.outcome = Protocol.Degraded _; _ } -> ()
        | Ok r ->
            Alcotest.fail
              ("expected degraded, got " ^ Protocol.status_of_outcome
                                             r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
    Alcotest.test_case
      "drain cancels stragglers into best-so-far and closes admission"
      `Quick (fun () ->
        Parallel.Pool.with_pool ~size:2 (fun pool ->
            let daemon = Daemon.create ~pool spin_until_expired in
            let jobs =
              List.init 2 (fun i ->
                  Result.get_ok (Daemon.submit daemon (learn_uw ~seed:i ())))
            in
            Daemon.drain ~deadline:0.05 daemon;
            List.iter
              (fun job ->
                match Daemon.await daemon job with
                | { Protocol.outcome = Protocol.Degraded (_, d); _ } ->
                    Alcotest.(check string)
                      "cancelled" "cancelled"
                      (Budget.status_to_string d.Budget.status)
                | r ->
                    Alcotest.fail
                      ("expected cancelled, got "
                      ^ Protocol.status_of_outcome r.Protocol.outcome))
              jobs;
            match Daemon.submit daemon (learn_uw ()) with
            | Error Protocol.Draining -> ()
            | Error _ -> Alcotest.fail "wrong rejection while draining"
            | Ok _ -> Alcotest.fail "admitted a job while draining"));
    Alcotest.test_case
      "a complete answer after the deadline reads completed" `Quick
      (fun () ->
        (* like a bias request: the handler never reads the budget, so it
           reports no degradation however late it answers *)
        let late ~budget req =
          ignore (spin_until_expired ~budget req);
          (null_payload, None)
        in
        let daemon = Daemon.create late in
        match
          Daemon.submit_and_wait daemon (learn_uw ~deadline:(Some 0.02) ())
        with
        | Ok { Protocol.outcome = Protocol.Completed _; _ } -> ()
        | Ok r ->
            Alcotest.fail
              ("expected completed, got " ^ Protocol.status_of_outcome
                                              r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
  ]

(* ---------------- chaos soak ---------------- *)

let soak_tests =
  [
    Alcotest.test_case
      "chaos soak: every job ends in exactly one typed outcome" `Quick
      (fun () ->
        let chaos =
          Chaos.create ~p_fault:0.3 ~p_kill:0.15 ~seed:11 ()
        in
        Parallel.Pool.with_pool ~size:3 ~chaos ~policy:fast_retry
          (fun pool ->
            let daemon =
              Daemon.create ~pool
                ~config:
                  {
                    Daemon.default_config with
                    max_in_flight = 3;
                    max_queue = 2;
                    max_attempts = 3;
                    policy = fast_retry;
                  }
                (handler_const ~work:(fun () -> Unix.sleepf 0.002) ())
            in
            let summary =
              Loadgen.run ~clients:5 ~jobs:60 ~reject_retries:50 daemon
                (fun i -> learn_uw ~seed:i ())
            in
            Daemon.drain ~deadline:5. daemon;
            Alcotest.(check bool)
              "every job accounted" true summary.Loadgen.accounted;
            Alcotest.(check int) "all indices consumed" 60 summary.Loadgen.jobs;
            Alcotest.(check bool)
              "fault injection actually exercised the retry path" true
              (summary.Loadgen.retries > 0
              || summary.Loadgen.quarantined > 0)));
    Alcotest.test_case "supervision backoff respects a cancelled budget"
      `Quick (fun () ->
        (* every task kills its worker and the restart backoff is 2s: only
           the budget-interruptible sleep lets this finish fast *)
        let chaos = Chaos.create ~p_kill:1.0 ~seed:5 () in
        let budget = Budget.create () in
        Budget.cancel budget;
        let slow_restarts =
          {
            Resilience.Policy.default with
            backoff_base_s = 2.0;
            backoff_max_s = 4.0;
          }
        in
        let t0 = Budget.now () in
        let quarantined = ref false in
        Parallel.Pool.with_pool ~size:1 ~chaos ~budget ~policy:slow_restarts
          (fun pool ->
            let done_ = Atomic.make false in
            Parallel.Pool.submit pool
              ~on_quarantine:(fun _ ->
                quarantined := true;
                Atomic.set done_ true)
              (fun () -> ());
            let rec wait n =
              if (not (Atomic.get done_)) && n < 2000 then begin
                Unix.sleepf 0.005;
                wait (n + 1)
              end
            in
            wait 0);
        Alcotest.(check bool) "job quarantined" true !quarantined;
        Alcotest.(check bool)
          "backoff was interrupted (< 1.5s, not 2s+ per restart)" true
          (Budget.now () -. t0 < 1.5));
  ]

(* ---------------- determinism ---------------- *)

let determinism_tests =
  [
    Alcotest.test_case
      "served learn is bit-identical to the direct library call" `Slow
      (fun () ->
        let catalog = Catalog.create () in
        let daemon = Daemon.create (Server.Handler.default catalog) in
        let request = learn_uw ~seed:7 () in
        let served () =
          match Daemon.submit_and_wait daemon request with
          | Ok { Protocol.outcome = Protocol.Completed payload; _ } -> (
              match List.assoc_opt "definition" payload with
              | Some (Obs.Json.Str s) -> s
              | _ -> Alcotest.fail "no definition in payload")
          | Ok r ->
              Alcotest.fail
                ("serve did not complete: "
                ^ Protocol.status_of_outcome r.Protocol.outcome)
          | Error _ -> Alcotest.fail "rejected"
        in
        let s1 = served () in
        let s2 = served () in
        Alcotest.(check string) "replay is deterministic" s1 s2;
        let c = Protocol.common_of_request request in
        let d =
          Result.get_ok
            (Catalog.load catalog ~name:"uw" ~scale:c.Protocol.scale
               ~seed:c.Protocol.seed)
        in
        let config =
          {
            Autobias.default_config with
            strategy = Sampling.Strategy.of_string c.Protocol.strategy;
            timeout = Some c.Protocol.timeout;
            pool = None;
          }
        in
        let rng = Random.State.make [| c.Protocol.seed |] in
        let r =
          Autobias.learn_once ~config
            (Autobias.method_of_string c.Protocol.method_)
            d ~rng
            ~train_pos:d.Datasets.Dataset.positives
            ~train_neg:d.Datasets.Dataset.negatives
        in
        Alcotest.(check string)
          "identical to direct call" s1
          (Logic.Clause.definition_to_string r.Autobias.definition));
  ]

(* ---------------- job tracing and introspection ---------------- *)

let observability_tests =
  [
    Alcotest.test_case
      "fixed-seed soak: every learner span is tagged with its job id" `Slow
      (fun () ->
        Obs.Trace.enable ();
        Fun.protect ~finally:Obs.Trace.disable (fun () ->
            let catalog = Catalog.create () in
            Parallel.Pool.with_pool ~size:2 (fun pool ->
                let daemon =
                  Daemon.create ~pool (Server.Handler.default catalog)
                in
                let jobs =
                  List.init 3 (fun i ->
                      Result.get_ok
                        (Daemon.submit daemon (learn_uw ~seed:(7 + i) ())))
                in
                let _ = List.map (Daemon.await daemon) jobs in
                Daemon.drain daemon;
                let evs = Obs.Trace.events () in
                (* learner-side categories only ever run inside a job's
                   handler, so every such span must carry the job tag *)
                let learner_cats =
                  [ "learn"; "coverage"; "subsumption"; "sampling"; "discovery" ]
                in
                let learner_spans =
                  List.filter
                    (fun e -> List.mem e.Obs.Trace.cat learner_cats)
                    evs
                in
                Alcotest.(check bool) "learner spans recorded" true
                  (learner_spans <> []);
                List.iter
                  (fun e ->
                    match e.Obs.Trace.job with
                    | Some _ -> ()
                    | None ->
                        Alcotest.failf "untagged learner span %s (cat %s)"
                          e.Obs.Trace.name e.Obs.Trace.cat)
                  learner_spans;
                let tags =
                  List.filter_map (fun e -> e.Obs.Trace.job) evs
                  |> List.sort_uniq compare
                in
                if Obs.Trace.dropped () = 0 then
                  Alcotest.(check (list string))
                    "one tag per admitted job"
                    [ "job-0"; "job-1"; "job-2" ]
                    tags
                else
                  (* ring wrapped: early spans were evicted, but whatever
                     remains must still only use the minted ids *)
                  List.iter
                    (fun t ->
                      if not (List.mem t [ "job-0"; "job-1"; "job-2" ]) then
                        Alcotest.failf "unexpected job tag %s" t)
                    tags)));
    Alcotest.test_case
      "deep stats: running and queued jobs expose id, phase, elapsed" `Quick
      (fun () ->
        Parallel.Pool.with_pool ~size:2 (fun pool ->
            let release = Atomic.make false in
            let started = Atomic.make 0 in
            let handler ~budget _req =
              Budget.set_phase budget "spinning";
              Atomic.incr started;
              while not (Atomic.get release) do
                Unix.sleepf 0.002
              done;
              (null_payload, None)
            in
            let daemon =
              Daemon.create ~pool
                ~config:
                  { Daemon.default_config with max_in_flight = 1; max_queue = 4 }
                handler
            in
            let j1 = Result.get_ok (Daemon.submit daemon (learn_uw ~seed:1 ())) in
            let j2 = Result.get_ok (Daemon.submit daemon (learn_uw ~seed:2 ())) in
            let rec wait n =
              if Atomic.get started < 1 && n < 1000 then begin
                Unix.sleepf 0.002;
                wait (n + 1)
              end
            in
            wait 0;
            Unix.sleepf 0.01;
            let deep = Daemon.deep_stats_json daemon in
            (* the snapshot must render to parseable JSON *)
            (match Obs.Json.parse (Obs.Json.to_string deep) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            (match Obs.Json.member "queue_depth" deep with
            | Some (Obs.Json.Int 1) -> ()
            | j ->
                Alcotest.failf "queue_depth: %s"
                  (match j with
                  | Some j -> Obs.Json.to_string j
                  | None -> "missing"));
            let in_flight =
              match Obs.Json.member "in_flight_jobs" deep with
              | Some (Obs.Json.List l) -> l
              | _ -> Alcotest.fail "no in_flight_jobs list"
            in
            Alcotest.(check int) "both jobs visible" 2 (List.length in_flight);
            let state_of j =
              match Obs.Json.member "state" j with
              | Some (Obs.Json.Str s) -> s
              | _ -> "?"
            in
            let running =
              List.find_opt (fun j -> state_of j = "running") in_flight
            in
            (match running with
            | Some j ->
                Alcotest.(check bool) "live phase exposed" true
                  (Obs.Json.member "phase" j = Some (Obs.Json.Str "spinning"));
                (match Obs.Json.member "job" j with
                | Some (Obs.Json.Str s) ->
                    Alcotest.(check bool) "job label minted" true
                      (String.length s > 4 && String.sub s 0 4 = "job-")
                | _ -> Alcotest.fail "running job has no job label")
            | None -> Alcotest.fail "no running job in snapshot");
            Alcotest.(check bool) "a queued job too" true
              (List.exists (fun j -> state_of j = "queued") in_flight);
            Alcotest.(check bool) "metrics snapshot attached" true
              (Obs.Json.member "metrics" deep <> None);
            Atomic.set release true;
            ignore (Daemon.await daemon j1);
            ignore (Daemon.await daemon j2);
            Daemon.drain daemon));
    Alcotest.test_case "stats deep carries the run report's latency object"
      `Quick (fun () ->
        (* seed 1 completes, seed 2 degrades, seed 3 is a bad request:
           the percentiles cover completed and degraded jobs only *)
        let handler ~budget req =
          match (Protocol.common_of_request req).Protocol.seed with
          | 2 ->
              ( null_payload,
                Some (Budget.degradation ~status:Budget.Deadline_hit budget) )
          | 3 -> raise (Server.Handler.Bad_request "no")
          | _ -> (null_payload, None)
        in
        let daemon = Daemon.create handler in
        List.iter
          (fun seed ->
            match Daemon.submit_and_wait daemon (learn_uw ~seed ()) with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "rejected")
          [ 1; 2; 3; 1 ];
        let s = Daemon.stats daemon in
        Alcotest.(check (list int)) "completed, degraded, failed" [ 2; 1; 1 ]
          [ s.Daemon.completed; s.Daemon.degraded; s.Daemon.failed ];
        let latency j =
          match Obs.Json.member "latency" j with
          | Some l -> l
          | None -> Alcotest.fail "no latency object"
        in
        let deep = latency (Daemon.deep_stats_json daemon) in
        (match Obs.Json.member "jobs" deep with
        | Some (Obs.Json.Int n) ->
            Alcotest.(check int) "jobs = completed + degraded"
              (s.Daemon.completed + s.Daemon.degraded) n
        | _ -> Alcotest.fail "latency has no job count");
        Alcotest.(check string) "same object as the run report"
          (Obs.Json.to_string
             (latency (Obs.Run_report.to_json (Daemon.run_report daemon))))
          (Obs.Json.to_string deep));
    Alcotest.test_case
      "drain-path flush: trace and event log are complete and parseable"
      `Quick (fun () ->
        let trace_path = Filename.temp_file "test_srv_trace" ".json" in
        let events_path = Filename.temp_file "test_srv_events" ".jsonl" in
        Obs.Trace.enable ();
        Obs.Events.configure events_path;
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.disable ();
            Obs.Events.disable ();
            (try Sys.remove trace_path with Sys_error _ -> ());
            try Sys.remove events_path with Sys_error _ -> ())
          (fun () ->
            Parallel.Pool.with_pool ~size:2 (fun pool ->
                let daemon =
                  Daemon.create ~pool
                    (handler_const ~work:(fun () -> Unix.sleepf 0.005) ())
                in
                let jobs =
                  List.init 3 (fun i ->
                      Result.get_ok (Daemon.submit daemon (learn_uw ~seed:i ())))
                in
                let _ = List.map (Daemon.await daemon) jobs in
                Daemon.drain daemon;
                (* flush exactly like the server shutdown path *)
                Obs.Trace.export_json trace_path;
                Obs.Events.flush ();
                (match
                   Obs.Json.parse
                     (In_channel.with_open_bin trace_path In_channel.input_all)
                 with
                | Ok j ->
                    Alcotest.(check bool) "trace has events" true
                      (match Obs.Json.member "traceEvents" j with
                      | Some (Obs.Json.List (_ :: _)) -> true
                      | _ -> false)
                | Error e -> Alcotest.failf "trace not valid JSON: %s" e);
                let lines =
                  In_channel.with_open_bin events_path In_channel.input_all
                  |> String.split_on_char '\n'
                  |> List.filter (fun l -> String.trim l <> "")
                in
                let parsed =
                  List.map
                    (fun l ->
                      match Obs.Json.parse l with
                      | Ok j -> j
                      | Error e -> Alcotest.failf "bad event line: %s" e)
                    lines
                in
                let count name =
                  List.length
                    (List.filter
                       (fun j ->
                         Obs.Json.member "event" j
                         = Some (Obs.Json.Str name))
                       parsed)
                in
                Alcotest.(check int) "every admission logged" 3
                  (count "job.admitted");
                Alcotest.(check int) "every completion logged" 3
                  (count "job.finished");
                (* lifecycle events carry the owning job's tag *)
                List.iter
                  (fun j ->
                    if
                      Obs.Json.member "event" j
                      = Some (Obs.Json.Str "job.finished")
                    then
                      match Obs.Json.member "job" j with
                      | Some (Obs.Json.Str _) -> ()
                      | _ -> Alcotest.fail "job.finished without a job tag")
                  parsed)));
  ]

(* ---------------- every method answers to the job's budget ---------------- *)

let baseline_deadline_tests =
  [
    Alcotest.test_case "a served aleph learn honours its job deadline" `Quick
      (fun () ->
        (* SYS at scale 1: unbudgeted FOIL learns for seconds, several
           times the deadline. Loaded up front, so the deadline lands in
           the learner, not in data generation. *)
        let catalog = Catalog.create () in
        ignore (Result.get_ok (Catalog.load catalog ~name:"sys" ~scale:1.0 ~seed:42));
        let daemon = Daemon.create (Server.Handler.default catalog) in
        let request =
          Protocol.Learn
            { (Protocol.default_common "sys") with
              method_ = "aleph"; deadline = Some 0.3 }
        in
        match Daemon.submit_and_wait daemon request with
        | Ok { Protocol.outcome = Protocol.Degraded (payload, d); _ } ->
            Alcotest.(check string)
              "deadline hit" "deadline_hit"
              (Budget.status_to_string d.Budget.status);
            Alcotest.(check bool) "payload reads timed_out" true
              (List.assoc_opt "timed_out" payload = Some (Obs.Json.Bool true));
            Alcotest.(check bool) "FOIL's coverage counters reported" true
              (List.exists
                 (fun (_, n) -> n > 0)
                 (Budget.counters_to_assoc d.Budget.counters))
        | Ok r ->
            Alcotest.fail
              ("expected degraded, got "
              ^ Protocol.status_of_outcome r.Protocol.outcome)
        | Error _ -> Alcotest.fail "rejected");
  ]

let suite =
  protocol_tests
  @ [ QCheck_alcotest.to_alcotest parse_total_property ]
  @ catalog_tests
  @ [ QCheck_alcotest.to_alcotest admission_property ]
  @ retry_tests @ deadline_tests @ soak_tests @ observability_tests
  @ determinism_tests @ baseline_deadline_tests
