(* The observability layer (lib/obs): JSON round-trips, metrics registry
   semantics — including snapshot monotonicity under concurrent bumps —
   Chrome trace-event export well-formedness (balanced B/E events, monotone
   timestamps per track), the per-phase summary, run reports, and the A/B
   guarantee that enabling the tracer cannot change what the learner
   learns. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace

(* The tracer and the metrics registry are process-wide singletons; every
   test that touches them cleans up so the rest of the suite (and the other
   suites) see the default disabled/zeroed state. *)
let with_tracer ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:Trace.disable f

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    Alcotest.test_case "to_string/parse round-trip" `Quick (fun () ->
        let j =
          Json.Obj
            [
              ("a", Json.Int 42);
              ("b", Json.Str "hi \"there\"\n");
              ("c", Json.List [ Json.Bool true; Json.Null; Json.Int (-7) ]);
              ("d", Json.Obj [ ("nested", Json.Str "") ]);
            ]
        in
        match Json.parse (Json.to_string j) with
        | Ok j' ->
            Alcotest.(check bool) "round-trips" true (j = j')
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "floats survive parsing; non-finite emit null" `Quick
      (fun () ->
        (match Json.parse (Json.to_string (Json.Float 1.5)) with
        | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "1.5" 1.5 f
        | _ -> Alcotest.fail "expected a float");
        Alcotest.(check string) "nan is null" "null"
          (Json.to_string (Json.Float Float.nan)));
    Alcotest.test_case "parse rejects trailing garbage" `Quick (fun () ->
        match Json.parse "{\"a\": 1} x" with
        | Ok _ -> Alcotest.fail "should reject"
        | Error _ -> ());
  ]

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Satellite guarantee: whatever bytes end up in a string (chaos exception
   messages, clause text, raw CSV fragments), the emitted JSON is valid
   UTF-8 and parseable — control characters escaped, ill-formed sequences
   replaced with U+FFFD. *)
let utf8_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any byte string renders as valid UTF-8 JSON"
         ~count:500 QCheck.string (fun s ->
           let rendered = Json.to_string (Json.Str s) in
           Json.utf8_valid rendered
           &&
           match Json.parse rendered with
           | Ok (Json.Str _) -> true
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"printable strings round-trip byte-exactly"
         ~count:300 QCheck.printable_string (fun s ->
           match Json.parse (Json.to_string (Json.Str s)) with
           | Ok (Json.Str s') -> s' = s
           | _ -> false));
    Alcotest.test_case "control chars escape; bad bytes become U+FFFD" `Quick
      (fun () ->
        let rendered = Json.to_string (Json.Str "a\x01b\xffc\xc3\xa9") in
        Alcotest.(check bool) "valid utf8" true (Json.utf8_valid rendered);
        match Json.parse rendered with
        | Ok (Json.Str s) ->
            Alcotest.(check bool) "replacement char for the lone 0xff" true
              (contains_sub s "\xef\xbf\xbd");
            Alcotest.(check bool) "well-formed e-acute preserved" true
              (contains_sub s "\xc3\xa9");
            Alcotest.(check bool) "control char survived the escape" true
              (contains_sub s "\x01")
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    Alcotest.test_case "counters, gauges and histograms snapshot" `Quick
      (fun () ->
        Metrics.reset ();
        let c = Metrics.counter "test.counter" in
        let g = Metrics.gauge "test.gauge" in
        let h = Metrics.histogram "test.histogram" in
        Metrics.bump c;
        Metrics.add c 4;
        Metrics.gauge_set g 7;
        Metrics.gauge_add g (-3);
        List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
        let s = Metrics.snapshot () in
        Alcotest.(check int) "counter" 5 (List.assoc "test.counter" s.Metrics.counters);
        Alcotest.(check int) "gauge" 4 (List.assoc "test.gauge" s.Metrics.gauges);
        let hs = List.assoc "test.histogram" s.Metrics.histograms in
        Alcotest.(check int) "count" 4 hs.Metrics.count;
        Alcotest.(check (float 1e-9)) "sum" 0.107 hs.Metrics.sum;
        Alcotest.(check (float 1e-9)) "max" 0.1 hs.Metrics.max;
        (* percentile estimates are bucket upper bounds: ordered, and the
           p99 bucket must contain the true maximum *)
        Alcotest.(check bool) "p50 <= p95" true (hs.Metrics.p50 <= hs.Metrics.p95);
        Alcotest.(check bool) "p95 <= p99" true (hs.Metrics.p95 <= hs.Metrics.p99);
        Alcotest.(check bool) "p99 covers max" true (hs.Metrics.p99 >= 0.1);
        Alcotest.(check bool) "p50 above its value" true (hs.Metrics.p50 >= 0.002);
        Metrics.reset ();
        let s = Metrics.snapshot () in
        Alcotest.(check int) "reset" 0 (List.assoc "test.counter" s.Metrics.counters));
    Alcotest.test_case "registration is idempotent by name" `Quick (fun () ->
        Metrics.reset ();
        let a = Metrics.counter "test.same" in
        let b = Metrics.counter "test.same" in
        Metrics.bump a;
        Metrics.bump b;
        Alcotest.(check int) "one cell" 2 (Metrics.counter_value a));
    (* The concurrency property behind the whole registry: counters only
       move up, so any snapshot taken while writers are live must be
       pointwise <= any later snapshot — no torn or rolled-back reads. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"snapshots are monotone across concurrent bumps"
         ~count:20
         QCheck.(pair (int_bound 500) (int_bound 3))
         (fun (bumps, extra_domains) ->
           Metrics.reset ();
           let c = Metrics.counter "test.mono" in
           let writers =
             List.init (1 + extra_domains) (fun _ ->
                 Domain.spawn (fun () ->
                     for _ = 1 to bumps do
                       Metrics.bump c
                     done))
           in
           (* interleave snapshot reads with the live writers *)
           let snaps = List.init 5 (fun _ -> Metrics.snapshot ()) in
           List.iter Domain.join writers;
           let final = Metrics.snapshot () in
           let rec chain = function
             | a :: (b :: _ as tl) -> Metrics.counters_leq a b && chain tl
             | [ last ] -> Metrics.counters_leq last final
             | [] -> true
           in
           chain snaps
           && List.assoc "test.mono" final.Metrics.counters
              = (1 + extra_domains) * bumps));
  ]

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

(* Walk exported traceEvents: per tid, B/E must balance like parentheses
   (matching names) and timestamps must never decrease. Returns the number
   of B events checked. *)
let check_trace_json json =
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let str j = match j with Some (Json.Str s) -> s | _ -> "?" in
  let num = function
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail "missing number"
  in
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  let begins = ref 0 in
  List.iter
    (fun ev ->
      match str (Json.member "ph" ev) with
      | "M" -> ()
      | ("B" | "E") as ph ->
          let tid =
            match Json.member "tid" ev with
            | Some (Json.Int i) -> i
            | _ -> Alcotest.fail "missing tid"
          in
          let ts = num (Json.member "ts" ev) in
          (match Hashtbl.find_opt last_ts tid with
          | Some prev when ts < prev ->
              Alcotest.failf "timestamps went backwards on track %d" tid
          | _ -> ());
          Hashtbl.replace last_ts tid ts;
          let name = str (Json.member "name" ev) in
          let s = stack tid in
          if ph = "B" then begin
            incr begins;
            s := name :: !s
          end
          else begin
            match !s with
            | top :: rest when top = name -> s := rest
            | top :: _ ->
                Alcotest.failf "E %s closes open span %s on track %d" name top
                  tid
            | [] -> Alcotest.failf "E %s with empty stack on track %d" name tid
          end
      | ph -> Alcotest.failf "unexpected event phase %s" ph)
    events;
  Hashtbl.iter
    (fun tid s ->
      if !s <> [] then Alcotest.failf "unclosed spans on track %d" tid)
    stacks;
  !begins

let trace_tests =
  [
    Alcotest.test_case "spans record nesting, args and timing" `Quick
      (fun () ->
        with_tracer (fun () ->
            Trace.span ~cat:"t" "outer" (fun () ->
                Trace.span ~args:[ ("k", "v") ] ~cat:"t" "inner" (fun () ->
                    Trace.arg "late" "yes"));
            let evs = Trace.events () in
            Alcotest.(check int) "two spans" 2 (List.length evs);
            let inner = List.hd evs in
            (* inner closes first, so it is recorded first *)
            Alcotest.(check string) "name" "inner" inner.Trace.name;
            Alcotest.(check (list string)) "path" [ "outer"; "inner" ]
              inner.Trace.path;
            Alcotest.(check (list (pair string string))) "args"
              [ ("k", "v"); ("late", "yes") ]
              inner.Trace.args;
            Alcotest.(check bool) "duration >= 0" true
              (inner.Trace.t_end_us >= inner.Trace.t_start_us)));
    Alcotest.test_case "disabled tracer records nothing and passes through"
      `Quick (fun () ->
        Trace.disable ();
        let r = Trace.span ~cat:"t" "ghost" (fun () -> 41 + 1) in
        Alcotest.(check int) "result" 42 r;
        Alcotest.(check int) "no events" 0 (List.length (Trace.events ())));
    Alcotest.test_case "span closes on exceptions" `Quick (fun () ->
        with_tracer (fun () ->
            (try Trace.span ~cat:"t" "boom" (fun () -> failwith "x")
             with Failure _ -> ());
            Alcotest.(check int) "recorded anyway" 1
              (List.length (Trace.events ()))));
    Alcotest.test_case "export: balanced B/E, monotone ts, multi-domain"
      `Quick (fun () ->
        with_tracer (fun () ->
            Trace.span ~cat:"t" "main_outer" (fun () ->
                Trace.span ~cat:"t" "main_inner" (fun () -> ()));
            let workers =
              List.init 3 (fun w ->
                  Domain.spawn (fun () ->
                      for i = 0 to 9 do
                        Trace.span
                          ~args:[ ("w", string_of_int w) ]
                          ~cat:"t"
                          ("job_" ^ string_of_int (i mod 3))
                          (fun () -> ignore (Sys.opaque_identity (i * i)))
                      done))
            in
            List.iter Domain.join workers;
            let begins = check_trace_json (Trace.to_json ()) in
            Alcotest.(check int) "all spans exported" 32 begins));
    Alcotest.test_case "ring wraps, counts drops, stays well-formed" `Quick
      (fun () ->
        with_tracer ~capacity:4 (fun () ->
            for i = 1 to 10 do
              Trace.span ~cat:"t" ("s" ^ string_of_int i) (fun () -> ())
            done;
            Alcotest.(check int) "kept" 4 (List.length (Trace.events ()));
            Alcotest.(check int) "dropped" 6 (Trace.dropped ());
            ignore (check_trace_json (Trace.to_json ()))));
    Alcotest.test_case "summary aggregates calls and self <= total" `Quick
      (fun () ->
        with_tracer (fun () ->
            for _ = 1 to 3 do
              Trace.span ~cat:"t" "parent" (fun () ->
                  Trace.span ~cat:"t" "child" (fun () -> ()))
            done;
            let rows = Trace.summary_rows () in
            let row path = List.find (fun r -> r.Trace.row_path = path) rows in
            let parent = row [ "parent" ] and child = row [ "parent"; "child" ] in
            Alcotest.(check int) "parent calls" 3 parent.Trace.calls;
            Alcotest.(check int) "child calls" 3 child.Trace.calls;
            Alcotest.(check bool) "self <= total" true
              (parent.Trace.self_s <= parent.Trace.total_s);
            Alcotest.(check bool) "parent total covers child" true
              (parent.Trace.total_s >= child.Trace.total_s)));
  ]

(* ------------------------------------------------------------------ *)
(* Search funnel                                                      *)
(* ------------------------------------------------------------------ *)

let funnel_tests =
  [
    Alcotest.test_case "record/snapshot/total and the partition invariant"
      `Quick (fun () ->
        Obs.Funnel.reset ();
        Obs.Funnel.record ~step:1 ~generated:10 ~prune_hit:3 ~memo_hit:2
          ~inherited:1 ~evaluated:4 ~accepted:3;
        Obs.Funnel.record ~step:1 ~generated:5 ~prune_hit:0 ~memo_hit:0
          ~inherited:5 ~evaluated:0 ~accepted:0;
        Obs.Funnel.record ~step:2 ~generated:7 ~prune_hit:7 ~memo_hit:0
          ~inherited:0 ~evaluated:0 ~accepted:0;
        let rows = Obs.Funnel.snapshot () in
        Alcotest.(check int) "two live steps" 2 (List.length rows);
        List.iter
          (fun r ->
            Alcotest.(check bool) "row invariant" true
              (Obs.Funnel.invariant_holds r))
          rows;
        let r1 = List.hd rows in
        Alcotest.(check int) "step 1 aggregates records" 15
          r1.Obs.Funnel.generated;
        let t = Obs.Funnel.total rows in
        Alcotest.(check int) "total generated" 22 t.Obs.Funnel.generated;
        Alcotest.(check bool) "total invariant" true
          (Obs.Funnel.invariant_holds t);
        Alcotest.(check bool) "tree renders nonempty" true
          (String.length (Obs.Funnel.to_string rows) > 0);
        (match Json.parse (Json.to_string (Obs.Funnel.to_json rows)) with
        | Ok (Json.List l) ->
            Alcotest.(check int) "json rows" 2 (List.length l)
        | Ok _ -> Alcotest.fail "funnel json is not a list"
        | Error e -> Alcotest.fail e);
        Obs.Funnel.reset ();
        Alcotest.(check int) "reset clears" 0
          (List.length (Obs.Funnel.snapshot ())));
    Alcotest.test_case "a real learn populates the funnel; invariant holds"
      `Slow (fun () ->
        Obs.Funnel.reset ();
        let d = Datasets.Uw.generate ~seed:7 ~scale:0.15 () in
        let rng = Random.State.make [| 7 |] in
        let cov =
          Learning.Coverage.create d.Datasets.Dataset.db
            d.Datasets.Dataset.manual_bias ~rng
        in
        let _ =
          Learning.Learn.learn
            ~config:{ Learning.Learn.default_config with timeout = Some 60. }
            cov ~rng ~positives:d.Datasets.Dataset.positives
            ~negatives:d.Datasets.Dataset.negatives
        in
        let rows = Obs.Funnel.snapshot () in
        Alcotest.(check bool) "steps recorded" true (rows <> []);
        List.iter
          (fun r ->
            if not (Obs.Funnel.invariant_holds r) then
              Alcotest.failf
                "generated <> prune+memo+inherited+evaluated at step %d"
                r.Obs.Funnel.step)
          rows;
        let t = Obs.Funnel.total rows in
        Alcotest.(check bool) "candidates flowed" true
          (t.Obs.Funnel.generated > 0);
        Alcotest.(check bool) "accepted bounded by generated" true
          (t.Obs.Funnel.accepted <= t.Obs.Funnel.generated);
        Obs.Funnel.reset ());
  ]

(* ------------------------------------------------------------------ *)
(* Wide-event log                                                     *)
(* ------------------------------------------------------------------ *)

let with_events ?capacity f =
  let path = Filename.temp_file "test_events" ".jsonl" in
  Obs.Events.configure ?capacity path;
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.disable ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let events_tests =
  [
    Alcotest.test_case "disabled sink records nothing" `Quick (fun () ->
        Obs.Events.disable ();
        Obs.Events.emit "ghost";
        Alcotest.(check bool) "disabled" false (Obs.Events.enabled ());
        Alcotest.(check int) "empty" 0 (List.length (Obs.Events.snapshot ())));
    Alcotest.test_case "emit records ts, name, fields and the job context"
      `Quick (fun () ->
        with_events (fun _ ->
            Obs.Events.emit "plain";
            Trace.with_context ~job:"job-9" (fun () ->
                Obs.Events.emit "tagged" ~fields:[ ("k", Json.Int 7) ]);
            match Obs.Events.snapshot () with
            | [ plain; tagged ] ->
                Alcotest.(check bool) "name" true
                  (Json.member "event" plain = Some (Json.Str "plain"));
                Alcotest.(check bool) "no job outside context" true
                  (Json.member "job" plain = None);
                Alcotest.(check bool) "job tag inherited from context" true
                  (Json.member "job" tagged = Some (Json.Str "job-9"));
                Alcotest.(check bool) "field kept" true
                  (Json.member "k" tagged = Some (Json.Int 7));
                Alcotest.(check bool) "timestamped" true
                  (match Json.member "ts_s" tagged with
                  | Some (Json.Float _) -> true
                  | _ -> false)
            | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)));
    Alcotest.test_case
      "bounded queue evicts oldest with accounting; flush is atomic JSONL"
      `Quick (fun () ->
        with_events ~capacity:4 (fun path ->
            for i = 1 to 10 do
              Obs.Events.emit (Printf.sprintf "e%d" i)
            done;
            Alcotest.(check int) "kept newest" 4
              (List.length (Obs.Events.snapshot ()));
            Alcotest.(check int) "dropped counted" 6 (Obs.Events.dropped ());
            Obs.Events.flush ();
            Obs.Events.flush ();
            (* idempotent: rewrites, never appends *)
            let lines =
              In_channel.with_open_bin path In_channel.input_all
              |> String.split_on_char '\n'
              |> List.filter (fun l -> String.trim l <> "")
            in
            Alcotest.(check int) "4 events + 1 accounting line" 5
              (List.length lines);
            List.iter
              (fun l ->
                match Json.parse l with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "bad JSONL line %s: %s" l e)
              lines;
            match Json.parse (List.nth lines 4) with
            | Ok j ->
                Alcotest.(check bool) "accounting line last" true
                  (Json.member "event" j = Some (Json.Str "events.dropped"));
                Alcotest.(check bool) "drop count exported" true
                  (Json.member "count" j = Some (Json.Int 6))
            | Error e -> Alcotest.fail e));
  ]

(* ------------------------------------------------------------------ *)
(* Tracing cannot change results (the --trace off/on A/B guarantee)   *)
(* ------------------------------------------------------------------ *)

let determinism_tests =
  [
    Alcotest.test_case
      "learn is bit-identical with tracing and events off and on" `Slow
      (fun () ->
        let learn () =
          let d = Datasets.Uw.generate ~seed:7 ~scale:0.3 () in
          let rng = Random.State.make [| 7 |] in
          let cov =
            Learning.Coverage.create d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng
          in
          let r =
            Learning.Learn.learn
              ~config:{ Learning.Learn.default_config with timeout = Some 60. }
              cov ~rng ~positives:d.Datasets.Dataset.positives
              ~negatives:d.Datasets.Dataset.negatives
          in
          Logic.Clause.definition_to_string r.Learning.Learn.definition
        in
        let off = learn () in
        let on = with_tracer (fun () -> with_events (fun _ -> learn ())) in
        Alcotest.(check string) "identical definition" off on;
        Alcotest.(check bool) "nonempty" true (off <> ""));
  ]

(* ------------------------------------------------------------------ *)
(* Signal path: SIGINT mid-learn still flushes valid artifacts        *)
(* ------------------------------------------------------------------ *)

let signal_tests =
  [
    Alcotest.test_case
      "SIGINT mid-learn winds down and flushes valid trace + events" `Slow
      (fun () ->
        let trace_path = Filename.temp_file "test_sig_trace" ".json" in
        (* same wiring as the CLI: the first SIGINT cancels the budget so
           the anytime learner answers best-so-far, then the observability
           streams are flushed normally *)
        let budget = Budget.create ~job:"job-sig" () in
        let saved =
          Sys.signal Sys.sigint
            (Sys.Signal_handle (fun _ -> Budget.cancel budget))
        in
        Trace.enable ();
        Fun.protect
          ~finally:(fun () ->
            Sys.set_signal Sys.sigint saved;
            Trace.disable ();
            Obs.Events.disable ();
            try Sys.remove trace_path with Sys_error _ -> ())
          (fun () ->
            with_events (fun events_path ->
                Obs.Events.emit "test.start";
                let killer =
                  Domain.spawn (fun () ->
                      Unix.sleepf 0.2;
                      Unix.kill (Unix.getpid ()) Sys.sigint)
                in
                let d = Datasets.Uw.generate ~seed:7 ~scale:0.3 () in
                let rng = Random.State.make [| 7 |] in
                let cov =
                  Learning.Coverage.create ~budget d.Datasets.Dataset.db
                    d.Datasets.Dataset.manual_bias ~rng
                in
                let r =
                  Trace.with_context ~job:"job-sig" (fun () ->
                      Learning.Learn.learn cov ~rng
                        ~positives:d.Datasets.Dataset.positives
                        ~negatives:d.Datasets.Dataset.negatives)
                in
                Domain.join killer;
                ignore r;
                (* flush exactly like the CLI teardown *)
                Trace.export_json trace_path;
                Obs.Events.flush ();
                let trace_raw =
                  In_channel.with_open_bin trace_path In_channel.input_all
                in
                (match Json.parse trace_raw with
                | Ok j -> ignore (check_trace_json j)
                | Error e -> Alcotest.failf "trace not valid JSON: %s" e);
                let lines =
                  In_channel.with_open_bin events_path In_channel.input_all
                  |> String.split_on_char '\n'
                  |> List.filter (fun l -> String.trim l <> "")
                in
                Alcotest.(check bool) "event log nonempty" true (lines <> []);
                List.iter
                  (fun l ->
                    match Json.parse l with
                    | Ok _ -> ()
                    | Error e -> Alcotest.failf "bad event line: %s" e)
                  lines)));
  ]

(* ------------------------------------------------------------------ *)
(* Run reports and the Budget counter export                          *)
(* ------------------------------------------------------------------ *)

let report_tests =
  [
    Alcotest.test_case "Budget.counters_to_assoc names every counter" `Quick
      (fun () ->
        let b = Budget.create () in
        Budget.hit b Budget.Subsumption_try;
        Budget.hit b Budget.Subsumption_try;
        Budget.hit b Budget.Coverage_memo_hit;
        let assoc = Budget.counters_to_assoc (Budget.counters b) in
        Alcotest.(check int) "tries" 2 (List.assoc "subsumption_tries" assoc);
        Alcotest.(check int) "hits" 1
          (List.assoc "coverage_memo_hits" assoc);
        Alcotest.(check int) "untouched present as zero" 0
          (List.assoc "worker_faults" assoc));
    Alcotest.test_case "pp_counters elides zero counters" `Quick (fun () ->
        let b = Budget.create () in
        Alcotest.(check string) "all zero" "no degradation events"
          (Fmt.str "%a" Budget.pp_counters (Budget.counters b));
        Budget.hit b Budget.Beam_cut;
        let s = Fmt.str "%a" Budget.pp_counters (Budget.counters b) in
        let contains needle =
          let nl = String.length needle and hl = String.length s in
          let rec go i =
            i + nl <= hl && (String.sub s i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "names the hit counter" true
          (contains "beam_rounds_cut 1");
        Alcotest.(check bool) "elides the zero ones" false
          (contains "subsumption_tries"));
    Alcotest.test_case "run report serializes to parseable JSON" `Quick
      (fun () ->
        Metrics.reset ();
        Metrics.bump (Metrics.counter "test.report");
        let b = Budget.create () in
        Budget.hit b Budget.Coverage_memo_miss;
        let report =
          Obs.Run_report.make ~name:"unit"
            ~config:[ ("seed", Json.Int 42) ]
            ~degradation:(Budget.degradation b) ()
        in
        let rendered = Json.to_string (Obs.Run_report.to_json report) in
        match Json.parse rendered with
        | Error e -> Alcotest.fail e
        | Ok j ->
            Alcotest.(check bool) "has metrics" true
              (Json.member "metrics" j <> None);
            (match Json.member "degradation" j with
            | Some d ->
                let counters = Json.member "counters" d in
                Alcotest.(check bool) "memo miss exported" true
                  (match Option.bind counters (Json.member "coverage_memo_misses") with
                  | Some (Json.Int 1) -> true
                  | _ -> false)
            | None -> Alcotest.fail "no degradation");
            Metrics.reset ());
  ]

let suite =
  json_tests @ utf8_tests @ metrics_tests @ trace_tests @ funnel_tests
  @ events_tests @ determinism_tests @ signal_tests @ report_tests
