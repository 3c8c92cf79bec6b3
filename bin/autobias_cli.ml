(* Command-line interface to the AutoBias reproduction.

     autobias learn    -- learn a definition (optionally k-fold CV)
     autobias bias     -- induce and print a language bias / type graph
     autobias data     -- generate a dataset, print stats, dump CSVs
     autobias predict  -- learn, then materialize the predicted relation

   Everything is deterministic given --seed. *)

open Cmdliner

(* ---------------- shared arguments ---------------- *)

let dataset_of_name ~scale ~seed name =
  match Server.Catalog.generate ~name ~scale ~seed with
  | Ok d -> d
  | Error e ->
      Fmt.epr "%s@." (Server.Catalog.error_to_string e);
      exit 2

let dataset_arg =
  let doc = "Dataset: uw, imdb, hiv, flt or sys." in
  Arg.(value & opt string "uw" & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let method_arg =
  let doc = "Bias method: castor, noconst, manual, aleph or autobias." in
  (* "foil" is an undocumented alias of aleph *)
  let methods =
    List.map (fun m -> (Autobias.method_to_string m, m)) Autobias.all_methods
    @ [ ("foil", Autobias.Foil) ]
  in
  Arg.(
    value
    & opt (enum methods) Autobias.Auto_bias
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let strategy_arg =
  let doc = "Sampling strategy: naive, random or stratified." in
  let strategies =
    List.map (fun s -> (Sampling.Strategy.to_string s, s)) Sampling.Strategy.all
  in
  Arg.(
    value
    & opt (enum strategies) Sampling.Strategy.Naive
    & info [ "s"; "sampling" ] ~docv:"STRATEGY" ~doc)

let scale_arg =
  let doc = "Dataset scale multiplier (1.0 = default size)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FLOAT" ~doc)

let seed_arg =
  let doc = "Random seed (generation and learning are deterministic given it)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)

(* A time limit is a finite number of seconds >= 0: a NaN limit never
   expires and a negative one has expired before the run starts. Anything
   else is a usage error, like an unknown method. *)
let seconds =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0. -> Ok f
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid value '%s', expected a finite number of seconds >= 0" s))
  in
  Arg.conv ~docv:"SECONDS" (parse, Format.pp_print_float)

let timeout_arg =
  let doc = "Learning timeout in seconds (per run/fold)." in
  Arg.(
    value
    & opt seconds Server.Protocol.default_timeout
    & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let deadline_arg =
  let doc =
    "Global wall-clock deadline for the whole command in seconds, for \
     every method (aleph included). The learner is anytime: when the \
     deadline passes it stops dispatching work, returns the definition \
     accumulated so far, and reports the degradation (beam rounds cut, \
     candidates abandoned, ...)."
  in
  Arg.(value & opt (some seconds) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let domains_arg =
  let doc =
    "Worker domains for parallel coverage testing (0 = sequential; \
     default picks one per spare core when --chaos forces a pool)."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let chaos_arg =
  let doc =
    "Fault-injection probability (testing): each probed operation faults \
     with probability $(docv) under a seeded RNG, in every layer named by \
     --chaos-layers (without it, the pool layer alone: --chaos-layers \
     pool). The run must still terminate with a valid definition; \
     injections show up in the pool stats, the degradation counters and \
     the run report's chaos snapshot."
  in
  Arg.(value & opt (some float) None & info [ "chaos" ] ~docv:"P" ~doc)

let chaos_layers_arg =
  let doc =
    "Comma-separated chaos layers to inject into (pool, csv, sampling, \
     memo, checkpoint — or 'all'; default pool when --chaos is given). \
     Each layer gets its own seeded injector at the --chaos probability; \
     worker kills (--chaos-kill) arm only the pool layer. Equivalent to \
     AUTOBIAS_CHAOS_LAYERS."
  in
  Arg.(value & opt (some string) None & info [ "chaos-layers" ] ~docv:"LAYERS" ~doc)

let chaos_kill_arg =
  let doc =
    "Worker-kill probability (testing): each pool job additionally kills \
     its worker domain with probability $(docv); supervision restarts the \
     domain (bounded, with backoff) and retries or quarantines the job."
  in
  Arg.(value & opt (some float) None & info [ "chaos-kill" ] ~docv:"P" ~doc)

let checkpoint_arg =
  let doc =
    "Write a resumable snapshot of learner progress to $(docv) at clause \
     boundaries (atomic tmp+rename; the previous snapshot survives a torn \
     write). Resume with --resume."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume learning from the snapshot at $(docv) (as written by \
     --checkpoint). The dataset/scale/method/seed configuration must match \
     the run that wrote it; the resumed run is bit-identical to an \
     uninterrupted run at the same seed."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let kill_after_arg =
  let doc =
    "Stop the run (cooperative cancellation) after $(docv) checkpoints \
     have been written (testing: simulates a crash at a clause boundary \
     for resume smoke tests). Requires --checkpoint; $(docv) must be at \
     least 1."
  in
  Arg.(value & opt (some int) None & info [ "kill-after-clause" ] ~docv:"K" ~doc)

let config ~strategy ~timeout () =
  { Autobias.default_config with strategy; timeout = Some timeout }

let trace_arg =
  let doc =
    "Record a span trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (load in chrome://tracing or ui.perfetto.dev). A \
     plain-text per-phase summary is printed after the run. Tracing never \
     touches any RNG, so the learned definition is identical with and \
     without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a machine-readable run report to $(docv) as JSON: run \
     configuration, the run's degradation counters, the process-wide \
     metrics snapshot (counters and latency histograms), the search funnel \
     and per-phase timings."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let events_arg =
  let doc =
    "Record the structured wide-event log (clause accepted, checkpoint \
     written, chaos injections, ...) and write it to $(docv) as JSON \
     lines after the run — also on Ctrl-C, via an atomic tmp+rename. Like \
     --trace, recording never touches any RNG, so the learned definition \
     is identical with and without it."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let funnel_arg =
  let doc =
    "Print the search-funnel tree after the run: per beam step, where \
     every generated candidate went (prune-store hit, memo-served, \
     inherited from its parent, really evaluated) and how many entered \
     the beam. Purely observational — results are bit-identical with and \
     without it."
  in
  Arg.(value & flag & info [ "funnel" ] ~doc)

(* Enable the tracer when asked, run the command, then export the trace and
   the run report — also on exceptions, so a run cut by Ctrl-C still leaves
   its observability artifacts behind. The continuation receives
   [~note_degradation] to attach the run's budget accounting to the report
   and [~note_extra] to append further top-level report entries (chaos
   snapshot, pool quarantine, CSV skips, checkpoint info). *)
let with_observability ~trace ~events ~funnel ~metrics ~name ~config k =
  if trace <> None then Obs.Trace.enable ();
  Option.iter Obs.Events.configure events;
  (* a fresh funnel window per run: the registry is process-global *)
  Obs.Funnel.reset ();
  let degradation = ref None in
  let extra = ref [] in
  let finish () =
    (match trace with
    | Some path ->
        Fmt.pr "%s" (Obs.Trace.summary_string ());
        Obs.Trace.export_json path;
        Fmt.pr "wrote trace to %s@." path
    | None -> ());
    if funnel then Fmt.pr "%s" (Obs.Funnel.to_string (Obs.Funnel.snapshot ()));
    (match events with
    | Some path ->
        Obs.Events.flush ();
        Fmt.pr "wrote event log to %s@." path
    | None -> ());
    match metrics with
    | Some path ->
        let report =
          Obs.Run_report.make ~name ~config ?degradation:!degradation
            ~extra:(List.rev !extra) ()
        in
        Obs.Run_report.write report path;
        Fmt.pr "wrote run report to %s@." path
    | None -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      k
        ~note_degradation:(fun d -> degradation := Some d)
        ~note_extra:(fun kv -> extra := kv :: !extra))

(* Build the budget / pool a command asked for and pass them down; the pool
   is shut down (domains joined) before returning, also on exceptions.
   The chaos flags install per-layer injectors first, so the pool picks up
   the registry's "pool" injector when one is configured.

   A budget always exists (unbounded without --deadline) so that SIGINT /
   SIGTERM have something to cancel: the first signal winds the anytime
   learner down cooperatively — best-so-far definition, trace/metrics/run
   report flushed by [with_observability], the last checkpoint intact
   (checkpoint writes are atomic tmp+rename) — instead of dying mid-write.
   A second signal exits immediately. *)
let with_resources ~seed ~deadline ~domains ~chaos ~chaos_layers ~chaos_kill k =
  Chaos.configure_flags ~p_fault:chaos ~p_kill:chaos_kill ~layers:chaos_layers
    ~seed;
  let budget = Budget.create ?deadline () in
  let interrupted = ref false in
  let on_signal =
    Sys.Signal_handle
      (fun _ ->
        if !interrupted then exit 130
        else begin
          interrupted := true;
          prerr_endline
            "interrupted: winding down (best-so-far results; interrupt \
             again to exit immediately)";
          Budget.cancel budget
        end)
  in
  Sys.set_signal Sys.sigint on_signal;
  (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
  let budget = Some budget in
  let fault = Chaos.get "pool" in
  match (domains, fault) with
  | (None | Some 0), None -> k ~budget None
  | size, _ ->
      let size = match size with Some n when n > 0 -> Some n | _ -> None in
      Parallel.Pool.with_pool ?size ?chaos:fault ?budget (fun p ->
          k ~budget (Some p))

let report_run ~budget pool =
  (match pool with
  | Some p ->
      let s = Parallel.Pool.stats p in
      Fmt.pr
        "pool: %d domains, %d tasks run, %d faults dropped, %d workers \
         restarted, %d jobs quarantined@."
        s.Parallel.Pool.size s.Parallel.Pool.tasks_run s.Parallel.Pool.dropped
        s.Parallel.Pool.restarts s.Parallel.Pool.quarantined
  | None -> ());
  Option.iter
    (fun b -> Fmt.pr "budget: %a@." Budget.pp_degradation (Budget.degradation b))
    budget

(* Run-report extras: one JSON entry per resilience surface, each omitted
   when it has nothing to say. *)
let chaos_extra () =
  match Chaos.snapshot () with
  | [] -> []
  | layers ->
      [
        ( "chaos",
          Obs.Json.Obj
            (List.map
               (fun (name, c) ->
                 ( name,
                   Obs.Json.Obj
                     [
                       ("tickets", Obs.Json.Int c.Chaos.n_tickets);
                       ("injected", Obs.Json.Int c.Chaos.n_injected);
                       ("delayed", Obs.Json.Int c.Chaos.n_delayed);
                       ("killed", Obs.Json.Int c.Chaos.n_killed);
                     ] ))
               layers) );
      ]

let csv_extra () =
  match Relational.Csv.skip_stats () with
  | [] -> []
  | stats ->
      [
        ( "csv_skips",
          Obs.Json.Obj
            (List.map
               (fun (file, s) ->
                 ( file,
                   Obs.Json.Obj
                     (("rows_skipped", Obs.Json.Int s.Relational.Csv.rows_skipped)
                     ::
                     (match s.Relational.Csv.first_bad with
                     | Some (line, msg) ->
                         [
                           ("first_bad_line", Obs.Json.Int line);
                           ("first_bad", Obs.Json.Str msg);
                         ]
                     | None -> [])) ))
               stats) );
      ]

let pool_extra = function
  | None -> []
  | Some p ->
      let s = Parallel.Pool.stats p in
      let quarantine =
        List.map
          (fun (r : Parallel.Pool.quarantine) ->
            Obs.Json.Obj
              [
                ("job_id", Obs.Json.Int r.job_id);
                ("attempts", Obs.Json.Int r.attempts);
                ("exn", Obs.Json.Str r.exn);
                ("backtrace", Obs.Json.Str r.backtrace);
              ])
          (Parallel.Pool.quarantine_records p)
      in
      [
        ( "pool",
          Obs.Json.Obj
            [
              ("size", Obs.Json.Int s.Parallel.Pool.size);
              ("tasks_run", Obs.Json.Int s.Parallel.Pool.tasks_run);
              ("dropped", Obs.Json.Int s.Parallel.Pool.dropped);
              ("restarts", Obs.Json.Int s.Parallel.Pool.restarts);
              ("quarantined", Obs.Json.Int s.Parallel.Pool.quarantined);
              ("quarantine", Obs.Json.List quarantine);
            ] );
      ]

(* ---------------- learn ---------------- *)

let save_definition path definition =
  let oc = open_out path in
  output_string oc "# learned by autobias; one clause per line\n";
  output_string oc (Logic.Clause.definition_to_string definition);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote definition to %s@." path

let load_definition path =
  let fail msg =
    Fmt.epr "cannot load a definition from %s@." msg;
    exit 2
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      try Logic.Parser.definition text
      with Logic.Parser.Parse_error msg -> fail (path ^ ": " ^ msg))
  | exception Sys_error msg ->
      (* a failed open already names the file, a failed read does not *)
      fail
        (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)

let learn_cmd =
  let run dataset_name method_ strategy scale seed timeout deadline domains
      chaos chaos_layers chaos_kill checkpoint resume
      kill_after cv show_bias output trace events funnel metrics =
    (* Flags the chosen mode would ignore are refused, not dropped: the
       cross-validation branch writes no snapshot and no definition. *)
    let refused =
      (if cv then
         List.filter_map
           (fun (flag, given) ->
             if given then Some ("--cv cannot be combined with " ^ flag)
             else None)
           [
             ("--checkpoint", checkpoint <> None);
             ("--resume", resume <> None);
             ("--kill-after-clause", kill_after <> None);
             ("-o/--output", output <> None);
           ]
       else [])
      @ (if kill_after <> None && checkpoint = None then
           [ "--kill-after-clause requires --checkpoint" ]
         else [])
      @
      match kill_after with
      | Some k when k < 1 -> [ "--kill-after-clause must be at least 1" ]
      | _ -> []
    in
    if refused <> [] then begin
      List.iter (Fmt.epr "autobias learn: %s@.") refused;
      exit 2
    end;
    let dataset = dataset_of_name ~scale ~seed dataset_name in
    let report_config =
      Obs.Json.
        [
          ("dataset", Str dataset_name);
          ("method", Str (Autobias.method_to_string method_));
          ("strategy", Str (Sampling.Strategy.to_string strategy));
          ("scale", Float scale);
          ("seed", Int seed);
          ("timeout_s", Float timeout);
          ("cv", Bool cv);
          ( "domains",
            match domains with Some d -> Int d | None -> Null );
        ]
    in
    with_observability ~trace ~events ~funnel ~metrics
      ~name:("learn:" ^ dataset_name) ~config:report_config
    @@ fun ~note_degradation ~note_extra ->
    with_resources ~seed ~deadline ~domains ~chaos ~chaos_layers ~chaos_kill
    @@ fun ~budget pool ->
    (* --kill-after-clause cancels through the budget, which
       [with_resources] now always provides (signal handling needs it). *)
    let config = { (config ~strategy ~timeout ()) with budget; pool } in
    let note_resilience () =
      List.iter note_extra (chaos_extra () @ pool_extra pool @ csv_extra ())
    in
    Fmt.pr "%a" Datasets.Dataset.summary dataset;
    if cv then begin
      let result = Autobias.cross_validate ~config method_ dataset ~seed in
      Fmt.pr "%s on %s (%d-fold CV): %a@."
        (Autobias.method_to_string method_)
        dataset_name
        (List.length result.Evaluation.Cross_validation.folds)
        Evaluation.Cross_validation.pp_result result;
      Option.iter (fun b -> note_degradation (Budget.degradation b)) budget;
      note_resilience ();
      report_run ~budget pool
    end
    else begin
      let fingerprint =
        Autobias.fingerprint ~dataset:dataset_name ~scale ~method_ config
          ~seed
      in
      let resume_ck =
        match resume with
        | None -> None
        | Some path -> (
            match Resilience.Checkpoint.load path with
            | Error msg ->
                Fmt.epr "cannot resume from %s: %s@." path msg;
                exit 2
            | Ok ck -> (
                match Resilience.Checkpoint.validate ~fingerprint ck with
                | Error msg ->
                    Fmt.epr "cannot resume from %s: %s@." path msg;
                    exit 2
                | Ok () ->
                    Fmt.pr
                      "resuming from %s at clause boundary %d (%d clauses \
                       learned)@."
                      path ck.Resilience.Checkpoint.boundary
                      (List.length ck.Resilience.Checkpoint.definition);
                    Some ck))
      in
      let written = ref 0 in
      let sink =
        Option.map
          (fun path ck ->
            match
              Resilience.Checkpoint.save
                { ck with Resilience.Checkpoint.fingerprint }
                path
            with
            | `Written ->
                incr written;
                (match kill_after with
                | Some k when !written >= k ->
                    Fmt.pr
                      "kill-after-clause: cancelling after %d checkpoints@." k;
                    Option.iter Budget.cancel budget
                | _ -> ());
                `Written
            | `Skipped -> `Skipped)
          checkpoint
      in
      let config = { config with checkpoint = sink; resume = resume_ck } in
      let rng = Random.State.make [| seed |] in
      let r =
        Autobias.learn_once ~config method_ dataset ~rng
          ~train_pos:dataset.Datasets.Dataset.positives
          ~train_neg:dataset.Datasets.Dataset.negatives
      in
      Option.iter
        (fun path ->
          note_extra
            ( "checkpoint",
              Obs.Json.Obj
                [
                  ("path", Obs.Json.Str path);
                  ("written", Obs.Json.Int !written);
                ] ))
        checkpoint;
      let d = r.Autobias.degradation in
      if show_bias then
        Fmt.pr "--- language bias (%d definitions) ---@.%a@.---@."
          (Bias.Language.size r.Autobias.bias_info.Autobias.bias)
          Bias.Language.pp r.Autobias.bias_info.Autobias.bias;
      Fmt.pr "learned %d clauses in %.2fs%s:@.%a@."
        (List.length r.Autobias.definition)
        r.Autobias.learn_time
        (if d.Budget.status = Budget.Completed then "" else " (timed out)")
        Logic.Clause.pp_definition r.Autobias.definition;
      note_degradation d;
      Fmt.pr "degradation: %a@." Budget.pp_degradation d;
      note_resilience ();
      report_run ~budget:None pool;
      let cov =
        Autobias.coverage_context config dataset
          r.Autobias.bias_info.Autobias.bias ~rng
      in
      let m =
        Evaluation.Metrics.evaluate cov r.Autobias.definition
          ~positives:dataset.Datasets.Dataset.positives
          ~negatives:dataset.Datasets.Dataset.negatives
      in
      Fmt.pr "training-set fit: %a@." Evaluation.Metrics.pp_row m;
      Option.iter (fun path -> save_definition path r.Autobias.definition) output
    end
  in
  let cv_arg =
    let doc =
      "Run the dataset's cross-validation protocol. Cannot be combined \
       with --checkpoint, --resume, --kill-after-clause or --output."
    in
    Arg.(value & flag & info [ "cv" ] ~doc)
  in
  let show_bias_arg =
    let doc = "Print the language bias before learning." in
    Arg.(value & flag & info [ "show-bias" ] ~doc)
  in
  let output_arg =
    let doc = "Write the learned definition to $(docv) (re-loadable by\n\
               $(b,predict --definition))." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"learn a Horn definition of a dataset's target")
    Term.(
      const run $ dataset_arg $ method_arg $ strategy_arg $ scale_arg $ seed_arg
      $ timeout_arg $ deadline_arg $ domains_arg $ chaos_arg $ chaos_layers_arg
      $ chaos_kill_arg $ checkpoint_arg $ resume_arg $ kill_after_arg $ cv_arg
      $ show_bias_arg $ output_arg $ trace_arg $ events_arg $ funnel_arg
      $ metrics_arg)

(* ---------------- bias ---------------- *)

let bias_cmd =
  let run dataset_name scale seed dot threshold =
    let dataset = dataset_of_name ~scale ~seed dataset_name in
    let result =
      Discovery.Generate.induce
        ~threshold:(Discovery.Generate.Relative threshold)
        dataset.Datasets.Dataset.db ~target:dataset.Datasets.Dataset.target
        ~positive_examples:dataset.Datasets.Dataset.positives
    in
    Fmt.pr "# %d INDs discovered in %.3fs (α ≤ %.2f kept)@."
      (List.length result.Discovery.Generate.inds)
      result.Discovery.Generate.ind_time
      Discovery.Ind.default_config.Discovery.Ind.max_error;
    List.iter
      (fun ind -> Fmt.pr "#   %s@." (Discovery.Ind.to_string ind))
      result.Discovery.Generate.inds;
    if dot then
      Fmt.pr "%s@." (Discovery.Type_graph.to_dot result.Discovery.Generate.graph)
    else begin
      Fmt.pr "%a@." Discovery.Type_graph.pp result.Discovery.Generate.graph;
      Fmt.pr "%a@." Bias.Language.pp result.Discovery.Generate.bias
    end
  in
  let dot_arg =
    let doc = "Emit the type graph as Graphviz DOT instead of text." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let threshold_arg =
    let doc = "Relative constant-threshold (the paper uses 0.18)." in
    Arg.(value & opt float 0.18 & info [ "constant-threshold" ] ~docv:"RATIO" ~doc)
  in
  Cmd.v
    (Cmd.info "bias"
       ~doc:"induce and print the language bias and type graph for a dataset")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ dot_arg $ threshold_arg)

(* ---------------- data ---------------- *)

let data_cmd =
  let run dataset_name scale seed dump stats =
    let dataset = dataset_of_name ~scale ~seed dataset_name in
    Fmt.pr "%a" Datasets.Dataset.summary dataset;
    Relational.Database.stats Format.std_formatter dataset.Datasets.Dataset.db;
    if stats then
      Relational.Stats.pp Format.std_formatter
        (Relational.Stats.database dataset.Datasets.Dataset.db);
    (match dump with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        List.iter
          (fun rel ->
            let path =
              Filename.concat dir (Relational.Relation.name rel ^ ".csv")
            in
            Relational.Csv.save rel path;
            Fmt.pr "wrote %s (%d tuples)@." path
              (Relational.Relation.cardinality rel))
          (Relational.Database.relations dataset.Datasets.Dataset.db);
        let dump_examples name examples =
          let path = Filename.concat dir (name ^ ".csv") in
          let rel =
            Relational.Relation.of_tuples dataset.Datasets.Dataset.target
              (List.rev examples)
          in
          Relational.Csv.save rel path;
          Fmt.pr "wrote %s (%d examples)@." path (List.length examples)
        in
        dump_examples "positive_examples" dataset.Datasets.Dataset.positives;
        dump_examples "negative_examples" dataset.Datasets.Dataset.negatives)
  in
  let dump_arg =
    let doc = "Dump every relation and the examples as CSV into $(docv)." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"DIR" ~doc)
  in
  let stats_arg =
    let doc = "Print per-column statistics (distinct ratios, frequency skew)." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  Cmd.v
    (Cmd.info "data" ~doc:"generate a synthetic dataset; print stats, dump CSVs")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ dump_arg $ stats_arg)

(* ---------------- predict ---------------- *)

let predict_cmd =
  let run dataset_name method_ strategy scale seed timeout limit definition_file =
    let dataset = dataset_of_name ~scale ~seed dataset_name in
    let definition =
      match definition_file with
      | Some path ->
          let d = load_definition path in
          Fmt.pr "loaded %d clauses from %s@." (List.length d) path;
          d
      | None ->
          let config = config ~strategy ~timeout () in
          let rng = Random.State.make [| seed |] in
          let r =
            Autobias.learn_once ~config method_ dataset ~rng
              ~train_pos:dataset.Datasets.Dataset.positives
              ~train_neg:dataset.Datasets.Dataset.negatives
          in
          Fmt.pr "learned:@.%a@." Logic.Clause.pp_definition r.Autobias.definition;
          r.Autobias.definition
    in
    let derived =
      Learning.Inference.derive_definition dataset.Datasets.Dataset.db
        definition
    in
    Fmt.pr "derived %d tuples of %s:@." (List.length derived)
      dataset.Datasets.Dataset.target.Relational.Schema.rel_name;
    List.iteri
      (fun i t ->
        if i < limit then
          Fmt.pr "  %s@." (Relational.Relation.tuple_to_string t))
      derived;
    if List.length derived > limit then
      Fmt.pr "  ... (%d more; raise --limit)@." (List.length derived - limit)
  in
  let limit_arg =
    let doc = "Print at most $(docv) derived tuples." in
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let definition_arg =
    let doc = "Skip learning; load the definition from $(docv)\n\
               (as written by $(b,learn --output))." in
    Arg.(value & opt (some string) None & info [ "definition" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"learn (or load a definition), then materialize the predictions")
    Term.(
      const run $ dataset_arg $ method_arg $ strategy_arg $ scale_arg $ seed_arg
      $ timeout_arg $ limit_arg $ definition_arg)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let run dataset_name method_ scale seed timeout limit =
    let dataset = dataset_of_name ~scale ~seed dataset_name in
    let config = config ~strategy:Sampling.Strategy.Naive ~timeout () in
    let rng = Random.State.make [| seed |] in
    let r =
      Autobias.learn_once ~config method_ dataset ~rng
        ~train_pos:dataset.Datasets.Dataset.positives
        ~train_neg:dataset.Datasets.Dataset.negatives
    in
    Fmt.pr "learned:@.%a@.@." Logic.Clause.pp_definition r.Autobias.definition;
    let cov =
      Autobias.coverage_context config dataset r.Autobias.bias_info.Autobias.bias
        ~rng
    in
    let explain_some label examples =
      Fmt.pr "--- %s ---@." label;
      List.iteri
        (fun i e ->
          if i < limit then
            Fmt.pr "%s: %a@.@."
              (Relational.Relation.tuple_to_string e)
              Learning.Explain.pp_definition_result
              (Learning.Explain.explain_definition cov r.Autobias.definition e))
        examples
    in
    explain_some "positive examples" dataset.Datasets.Dataset.positives;
    explain_some "negative examples" dataset.Datasets.Dataset.negatives
  in
  let limit_arg =
    let doc = "Explain at most $(docv) examples of each class." in
    Arg.(value & opt int 3 & info [ "limit" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"learn, then explain the definition's decision on examples")
    Term.(
      const run $ dataset_arg $ method_arg $ scale_arg $ seed_arg $ timeout_arg
      $ limit_arg)

(* ---------------- group ---------------- *)

let () =
  Chaos.from_env ();
  let doc = "relational learning with automatic language bias (SIGMOD '21)" in
  let info = Cmd.info "autobias" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ learn_cmd; bias_cmd; data_cmd; predict_cmd; explain_cmd ]))
