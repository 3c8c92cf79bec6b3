(* Line-protocol front end for the serving daemon.

     autobias_server [--domains N] [--max-in-flight I] [--max-queue Q] ...

   Reads one request per line from stdin (see Server.Protocol for the
   grammar), answers one JSON object per line on stdout. By default a
   submission is acknowledged immediately ({"status":"accepted",...}) and
   its result line arrives when the job finishes — out of order under
   load; match on "id". With --sync each request is answered in place
   before the next line is read (the deterministic single-client mode).

   Control lines: "stats" prints the daemon tallies, "drain" stops
   admission and waits out in-flight jobs, "quit" (or EOF, SIGINT,
   SIGTERM) drains and exits — in-flight jobs finish (or are cancelled
   into best-so-far answers after --drain-deadline), the Obs run report
   is flushed to --report, and only then does the process exit. *)

open Cmdliner

exception Shutdown

let out_lock = Mutex.create ()

let print_json j =
  Mutex.lock out_lock;
  print_string (Obs.Json.to_string j);
  print_newline ();
  flush stdout;
  Mutex.unlock out_lock

let print_error msg =
  print_json
    (Obs.Json.Obj
       [ ("status", Obs.Json.Str "failed"); ("error", Obs.Json.Str msg) ])

let serve domains max_in_flight max_queue default_deadline max_attempts seed
    chaos chaos_layers chaos_kill drain_deadline report trace events sync =
  Chaos.from_env ();
  Chaos.configure_flags ~p_fault:chaos ~p_kill:chaos_kill ~layers:chaos_layers
    ~seed;
  if trace <> None then Obs.Trace.enable ();
  Option.iter Obs.Events.configure events;
  let catalog = Server.Catalog.create () in
  let handler = Server.Handler.default catalog in
  let config =
    {
      Server.Daemon.max_in_flight;
      max_queue;
      default_deadline;
      max_attempts;
      policy = { Resilience.Policy.default with seed };
    }
  in
  let on_complete r = print_json (Server.Protocol.response_to_json r) in
  let run_with pool =
    let daemon =
      Server.Daemon.create ?pool
        ?on_complete:(if sync then None else Some on_complete)
        ~config handler
    in
    (* first signal: begin the graceful drain; a second one while draining
       still exits promptly because drain bounds itself by the deadline *)
    let on_signal = Sys.Signal_handle (fun _ -> raise Shutdown) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    let finished = ref false in
    let shutdown () =
      if not !finished then begin
        finished := true;
        Server.Daemon.drain ?deadline:drain_deadline daemon;
        (* Flush the observability streams only after the drain: the jobs
           are quiescent, so the exported trace and event log are complete
           and the rename-into-place write cannot race a worker. *)
        (match trace with
        | Some path ->
            Obs.Trace.export_json path;
            Printf.eprintf "wrote trace to %s\n%!" path
        | None -> ());
        if Obs.Events.enabled () then Obs.Events.flush ();
        match report with
        | Some path ->
            Obs.Run_report.write
              (Server.Daemon.run_report daemon)
              path;
            Printf.eprintf "wrote run report to %s\n%!" path
        | None -> ()
      end
    in
    Fun.protect ~finally:shutdown (fun () ->
        let rec loop () =
          match try Some (input_line stdin) with End_of_file -> None with
          | None -> ()
          | Some line -> (
              let line = String.trim line in
              match line with
              | "" -> loop ()
              | "quit" | "exit" -> ()
              | "stats" ->
                  print_json
                    (Server.Daemon.stats_to_json (Server.Daemon.stats daemon));
                  loop ()
              | "stats deep" ->
                  print_json (Server.Daemon.deep_stats_json ~catalog daemon);
                  loop ()
              | "drain" ->
                  Server.Daemon.drain ?deadline:drain_deadline daemon;
                  print_json
                    (Obs.Json.Obj [ ("status", Obs.Json.Str "drained") ]);
                  ()
              | _ -> (
                  match Server.Protocol.parse_request line with
                  | Error msg ->
                      print_error msg;
                      loop ()
                  | Ok request ->
                      (match Server.Daemon.submit daemon request with
                      | Error rej ->
                          print_json (Server.Protocol.rejection_to_json rej)
                      | Ok job ->
                          if sync then
                            print_json
                              (Server.Protocol.response_to_json
                                 (Server.Daemon.await daemon job))
                          else
                            print_json
                              (Obs.Json.Obj
                                 [
                                   ("status", Obs.Json.Str "accepted");
                                   ( "id",
                                     Obs.Json.Int (Server.Daemon.job_id job)
                                   );
                                 ]));
                      loop ()))
        in
        try loop () with Shutdown -> prerr_endline "shutting down")
  in
  if domains <= 0 then run_with None
  else
    Parallel.Pool.with_pool ~size:domains
      ?chaos:(Chaos.get "pool")
      ~policy:{ Resilience.Policy.default with seed }
      (fun p -> run_with (Some p))

let () =
  let domains_arg =
    let doc =
      "Worker domains executing jobs ($(docv) = 0 runs jobs inline during \
       submission — single-client deterministic mode)."
    in
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let max_in_flight_arg =
    let doc = "Jobs allowed to run concurrently." in
    Arg.(value & opt int 2 & info [ "max-in-flight" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Jobs allowed to wait beyond the in-flight budget; further \
       submissions are rejected with a typed overloaded response."
    in
    Arg.(value & opt int 8 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let default_deadline_arg =
    let doc =
      "Per-job deadline in seconds for requests that do not set deadline=; \
       an expired job answers best-so-far with degradation counters."
    in
    Arg.(
      value & opt (some float) None & info [ "default-deadline" ] ~docv:"S" ~doc)
  in
  let max_attempts_arg =
    let doc =
      "Attempts per job before quarantine (retries use seeded backoff)."
    in
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed for retry backoff jitter and chaos injectors." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"INT" ~doc)
  in
  let chaos_arg =
    let doc =
      "Fault-injection probability per configured chaos layer (without \
       --chaos-layers, the pool layer alone)."
    in
    Arg.(value & opt (some float) None & info [ "chaos" ] ~docv:"P" ~doc)
  in
  let chaos_layers_arg =
    let doc =
      "Comma-separated chaos layers (pool, csv, sampling, memo, \
       checkpoint, server — or 'all'; default pool when --chaos is given)."
    in
    Arg.(
      value & opt (some string) None & info [ "chaos-layers" ] ~docv:"LAYERS" ~doc)
  in
  let chaos_kill_arg =
    let doc = "Worker-kill probability (pool layer only)." in
    Arg.(value & opt (some float) None & info [ "chaos-kill" ] ~docv:"P" ~doc)
  in
  let drain_deadline_arg =
    let doc =
      "Seconds to wait for in-flight jobs on shutdown/drain before \
       cancelling their budgets (they then answer best-so-far)."
    in
    Arg.(
      value & opt (some float) None & info [ "drain-deadline" ] ~docv:"S" ~doc)
  in
  let report_arg =
    let doc = "Write the Obs run report (stats, latency percentiles) to \
               $(docv) on shutdown." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Enable span tracing and write the Chrome trace JSON to $(docv) on \
       shutdown (after the drain); each job's learner spans are tagged \
       with its job id."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Enable the structured wide-event log and write it (one JSON object \
       per line) to $(docv) on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let sync_arg =
    let doc =
      "Answer each request in place before reading the next line (single- \
       client deterministic mode) instead of acknowledging and streaming \
       results as they finish."
    in
    Arg.(value & flag & info [ "sync" ] ~doc)
  in
  let doc = "learning-as-a-service daemon (line protocol on stdin/stdout)" in
  let info = Cmd.info "autobias_server" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const serve $ domains_arg $ max_in_flight_arg $ max_queue_arg
      $ default_deadline_arg $ max_attempts_arg $ seed_arg $ chaos_arg
      $ chaos_layers_arg $ chaos_kill_arg $ drain_deadline_arg $ report_arg
      $ trace_arg $ events_arg $ sync_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
