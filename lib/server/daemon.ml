(* The learning-as-a-service daemon. See daemon.mli for the contract.

   Concurrency shape: one daemon mutex guards the waiting queue, the
   in-flight count, the outstanding-job table and the tally counters; a
   condition variable wakes [await]ers when any job finishes. Job bodies
   run on the caller-supplied {!Parallel.Pool} (or inline when there is
   none), and everything a pool worker calls back into — completion,
   retry accounting, relaunch — takes the daemon lock only while the pool
   lock is NOT held (the pool invokes [on_fault]/[on_quarantine] outside
   its own lock for exactly this reason), so the two locks never nest in
   both orders.

   Job lifecycle (every admitted job ends in exactly one [`Done]):

     submit --admitted--> Queued/Running --ok--> Completed | Degraded
        |                     | handler raised (injected fault, kill, ...)
        +--> Rejected         v
             (typed,      attempt_failed --< max_attempts --> backoff+retry
              never            |
              blocks)          +--= max_attempts --> Quarantined (backtrace)

   A dropped pool task (worker absorbed an injected fault before the task
   ran) re-enters through [on_fault]; a pool-level quarantine (the task
   killed [job_retries] workers) re-enters through [on_quarantine]. Both
   land in the same retry path, so no admitted job can hang its waiter. *)

type config = {
  max_in_flight : int;
  max_queue : int;
  default_deadline : float option;
  max_attempts : int;
  policy : Resilience.Policy.t;
}

let default_config =
  {
    max_in_flight = 2;
    max_queue = 8;
    default_deadline = None;
    max_attempts = 3;
    policy = Resilience.Policy.default;
  }

type job = {
  id : int;
  request : Protocol.request;
  submitted_at : float;
  budget : Budget.t;
  mutable attempts : int;  (** failed attempts so far; guarded by [lock] *)
  mutable state : [ `Pending | `Done of Protocol.response ];
}

type handler =
  budget:Budget.t ->
  Protocol.request ->
  Protocol.payload * Budget.degradation option

type stats = {
  submitted : int;
  completed : int;
  degraded : int;
  rejected : int;
  rejected_draining : int;
  quarantined : int;
  failed : int;
  retries : int;
  in_flight : int;
  waiting : int;
}

type t = {
  config : config;
  handler : handler;
  pool : Parallel.Pool.t option;
  on_complete : (Protocol.response -> unit) option;
  lock : Mutex.t;
  job_done : Condition.t;
  waiting_q : job Queue.t;
  outstanding : (int, job) Hashtbl.t;  (** admitted, not yet [`Done] *)
  next_id : int Atomic.t;
  mutable in_flight : int;
  mutable draining : bool;
  mutable ewma_latency : float;  (** backpressure hint for [retry_after] *)
  mutable latencies : float list;  (** completed/degraded, newest first *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_degraded : int;
  mutable n_rejected : int;
  mutable n_rejected_draining : int;
  mutable n_quarantined : int;
  mutable n_failed : int;
  mutable n_retries : int;
}

let create ?pool ?on_complete ?(config = default_config) handler =
  let config =
    {
      config with
      max_in_flight = max 1 config.max_in_flight;
      max_queue = max 0 config.max_queue;
      max_attempts = max 1 config.max_attempts;
    }
  in
  {
    config;
    handler;
    pool;
    on_complete;
    lock = Mutex.create ();
    job_done = Condition.create ();
    waiting_q = Queue.create ();
    outstanding = Hashtbl.create 64;
    next_id = Atomic.make 0;
    in_flight = 0;
    draining = false;
    ewma_latency = 0.;
    latencies = [];
    n_submitted = 0;
    n_completed = 0;
    n_degraded = 0;
    n_rejected = 0;
    n_rejected_draining = 0;
    n_quarantined = 0;
    n_failed = 0;
    n_retries = 0;
  }

(* ---------------- job lifecycle ---------------- *)

(* Wide events about a job are emitted under its trace context, so they
   carry the same ["job"] tag the job's spans do — the offline analyzer
   joins the two streams on it. *)
let job_event job name fields =
  if Obs.Events.enabled () then
    Obs.Trace.with_context ?job:(Budget.job job.budget) (fun () ->
        Obs.Events.emit name ~fields)

(* Complete [job] with [outcome]: record the tally, free the in-flight slot
   and hand it straight to the next waiting job (under one lock hold, so
   the cap can never be transiently exceeded), then launch that job and
   notify outside the lock. *)
let rec finish t job outcome =
  let latency = Budget.now () -. job.submitted_at in
  let attempts =
    match outcome with
    | Protocol.Quarantined q -> q.attempts
    | _ -> job.attempts + 1
  in
  let response =
    { Protocol.id = job.id; outcome; latency_s = latency; attempts }
  in
  Mutex.lock t.lock;
  (match job.state with
  | `Done _ ->
      (* double completion would corrupt the slot accounting; it cannot
         happen (each attempt ends in exactly one transition), but if a
         bug ever introduced one, keeping the first response is the
         conservative failure mode *)
      Mutex.unlock t.lock
  | `Pending ->
      (* emitted before the response is published: a drain that returns
         (and then flushes the event log) is guaranteed to see every
         finished job's lifecycle line. Events.emit is a leaf lock with no
         I/O, so holding t.lock across it is safe and cheap. *)
      job_event job "job.finished"
        [
          ( "outcome",
            Obs.Json.Str
              (match outcome with
              | Protocol.Completed _ -> "completed"
              | Protocol.Degraded _ -> "degraded"
              | Protocol.Quarantined _ -> "quarantined"
              | Protocol.Failed _ -> "failed") );
          ("latency_s", Obs.Json.Float latency);
          ("attempts", Obs.Json.Int attempts);
        ];
      job.state <- `Done response;
      Hashtbl.remove t.outstanding job.id;
      (match outcome with
      | Protocol.Completed _ ->
          t.n_completed <- t.n_completed + 1;
          t.latencies <- latency :: t.latencies
      | Protocol.Degraded _ ->
          t.n_degraded <- t.n_degraded + 1;
          t.latencies <- latency :: t.latencies
      | Protocol.Quarantined _ -> t.n_quarantined <- t.n_quarantined + 1
      | Protocol.Failed _ -> t.n_failed <- t.n_failed + 1);
      t.ewma_latency <-
        (if t.ewma_latency = 0. then latency
         else (0.8 *. t.ewma_latency) +. (0.2 *. latency));
      let next =
        match Queue.take_opt t.waiting_q with
        | Some j -> Some j
        | None ->
            t.in_flight <- t.in_flight - 1;
            None
      in
      Condition.broadcast t.job_done;
      Mutex.unlock t.lock;
      (match t.on_complete with
      | Some f -> ( try f response with _ -> ())
      | None -> ());
      Option.iter (fun j -> launch t j) next)

(* One failed attempt: retry with seeded backoff until the attempt budget
   is spent, then quarantine with the final exception and backtrace. *)
and attempt_failed t job ~exn ~backtrace =
  Mutex.lock t.lock;
  job.attempts <- job.attempts + 1;
  let attempts = job.attempts in
  let quarantine = attempts >= t.config.max_attempts in
  if not quarantine then t.n_retries <- t.n_retries + 1;
  Mutex.unlock t.lock;
  if quarantine then begin
    job_event job "job.quarantined"
      [ ("attempts", Obs.Json.Int attempts); ("exn", Obs.Json.Str exn) ];
    finish t job (Protocol.Quarantined { attempts; exn; backtrace })
  end
  else begin
    job_event job "job.retried"
      [ ("attempt", Obs.Json.Int attempts); ("exn", Obs.Json.Str exn) ];
    let delay =
      Resilience.Policy.backoff t.config.policy ~attempt:attempts
        ~salt:(Hashtbl.hash job.id)
    in
    launch t ~delay job
  end

and run_attempt t ?(delay = 0.) job =
  (* The backoff sleep respects the job's budget: a cancelled or expired
     job is not held hostage, its attempt just runs (and degrades) now. *)
  if delay > 0. then Budget.sleepf ~budget:job.budget delay;
  match
    (* Establish the job's trace context for the whole attempt: every span
       and wide event the handler (and the learner under it) emits on this
       domain — and, via the pool's context capture, on every worker it
       fans out to — is tagged with this job's id. *)
    Obs.Trace.with_context ?job:(Budget.job job.budget) @@ fun () ->
    Obs.Events.emit "job.started"
      ~fields:[ ("attempt", Obs.Json.Int (job.attempts + 1)) ];
    try
      Chaos.tick_layer "server";
      let payload, degradation = t.handler ~budget:job.budget job.request in
      `Done
        (match degradation with
        | Some d when not (Budget.equal_status d.Budget.status Budget.Completed)
          ->
            Protocol.Degraded (payload, d)
        | _ -> Protocol.Completed payload)
    with
    | Handler.Bad_request msg -> `Done (Protocol.Failed msg)
    | e -> `Retry (e, Printexc.get_raw_backtrace ())
  with
  | `Done outcome -> finish t job outcome
  | `Retry (e, bt) ->
      attempt_failed t job ~exn:(Printexc.to_string e)
        ~backtrace:(Printexc.raw_backtrace_to_string bt)

(* Hand the job to a pool worker (or run it inline). The callbacks cover
   the two ways a pool can eat a task: a dropped exception and a
   supervision quarantine — both feed the daemon's own retry accounting so
   the waiter always gets a response. *)
and launch t ?delay job =
  match t.pool with
  | None -> run_attempt t ?delay job
  | Some pool -> (
      try
        Parallel.Pool.submit pool
          ~on_fault:(fun e ->
            attempt_failed t job ~exn:(Printexc.to_string e)
              ~backtrace:(Printexc.get_backtrace ()))
          ~on_quarantine:(fun q ->
            attempt_failed t job ~exn:q.Parallel.Pool.exn
              ~backtrace:q.Parallel.Pool.backtrace)
          (fun () -> run_attempt t ?delay job)
      with Invalid_argument _ ->
        (* pool already shut down under us: answer rather than hang *)
        finish t job (Protocol.Failed "server: worker pool is shut down"))

(* ---------------- admission ---------------- *)

let retry_after_estimate t =
  (* queue position / service rate: how long until a slot should free up
     if the client comes back — a hint, not a promise *)
  let per_job = Float.max 0.05 t.ewma_latency in
  per_job
  *. float_of_int (Queue.length t.waiting_q + 1)
  /. float_of_int t.config.max_in_flight

let submit t request =
  Mutex.lock t.lock;
  if t.draining then begin
    t.n_rejected_draining <- t.n_rejected_draining + 1;
    Mutex.unlock t.lock;
    Obs.Events.emit "job.rejected"
      ~fields:[ ("reason", Obs.Json.Str "draining") ];
    Error Protocol.Draining
  end
  else if
    t.in_flight >= t.config.max_in_flight
    && Queue.length t.waiting_q >= t.config.max_queue
  then begin
    t.n_rejected <- t.n_rejected + 1;
    let retry_after = retry_after_estimate t in
    Mutex.unlock t.lock;
    Obs.Events.emit "job.rejected"
      ~fields:
        [
          ("reason", Obs.Json.Str "overloaded");
          ("retry_after_s", Obs.Json.Float retry_after);
        ];
    Error (Protocol.Overloaded { retry_after })
  end
  else begin
    t.n_submitted <- t.n_submitted + 1;
    let deadline =
      match (Protocol.common_of_request request).Protocol.deadline with
      | Some _ as d -> d
      | None -> t.config.default_deadline
    in
    (* The trace/job id is minted here, at admission, and threaded through
       the budget: every observability stream downstream (spans, wide
       events, live phase) keys on it. *)
    let id = Atomic.fetch_and_add t.next_id 1 in
    let job =
      {
        id;
        request;
        submitted_at = Budget.now ();
        budget =
          Budget.create ~job:(Printf.sprintf "job-%d" id) ?deadline ();
        attempts = 0;
        state = `Pending;
      }
    in
    Hashtbl.replace t.outstanding job.id job;
    let run_now = t.in_flight < t.config.max_in_flight in
    if run_now then t.in_flight <- t.in_flight + 1
    else Queue.push job t.waiting_q;
    Mutex.unlock t.lock;
    job_event job "job.admitted"
      [
        ("verb", Obs.Json.Str (Protocol.verb_of_request request));
        ("queued", Obs.Json.Bool (not run_now));
      ];
    if run_now then launch t job;
    Ok job
  end

let await t job =
  Mutex.lock t.lock;
  let rec wait () =
    match job.state with
    | `Done r -> r
    | `Pending ->
        Condition.wait t.job_done t.lock;
        wait ()
  in
  let r = wait () in
  Mutex.unlock t.lock;
  r

let peek _t job = match job.state with `Done r -> Some r | `Pending -> None

let job_id (job : job) = job.id

let submit_and_wait t request =
  match submit t request with
  | Error _ as e -> e
  | Ok job -> Ok (await t job)

(* ---------------- stats, drain ---------------- *)

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      submitted = t.n_submitted;
      completed = t.n_completed;
      degraded = t.n_degraded;
      rejected = t.n_rejected;
      rejected_draining = t.n_rejected_draining;
      quarantined = t.n_quarantined;
      failed = t.n_failed;
      retries = t.n_retries;
      in_flight = t.in_flight;
      waiting = Queue.length t.waiting_q;
    }
  in
  Mutex.unlock t.lock;
  s

(* Exact nearest-rank percentiles of every completed/degraded job's
   latency: the [latency] object of both [stats deep] and the run report. *)
let latency_json t =
  Mutex.lock t.lock;
  let lat = Array.of_list t.latencies in
  Mutex.unlock t.lock;
  let pct = Obs.Metrics.percentile lat in
  Obs.Json.Obj
    [
      ("jobs", Obs.Json.Int (Array.length lat));
      ("p50_s", Obs.Json.Float (pct 0.50));
      ("p95_s", Obs.Json.Float (pct 0.95));
      ("p99_s", Obs.Json.Float (pct 0.99));
    ]

let stats_to_json (s : stats) =
  Obs.Json.Obj
    [
      ("submitted", Obs.Json.Int s.submitted);
      ("completed", Obs.Json.Int s.completed);
      ("degraded", Obs.Json.Int s.degraded);
      ("rejected", Obs.Json.Int s.rejected);
      ("rejected_draining", Obs.Json.Int s.rejected_draining);
      ("quarantined", Obs.Json.Int s.quarantined);
      ("failed", Obs.Json.Int s.failed);
      ("retries", Obs.Json.Int s.retries);
      ("in_flight", Obs.Json.Int s.in_flight);
      ("waiting", Obs.Json.Int s.waiting);
    ]

(* The deep stats snapshot: everything a "what is the daemon doing right
   now" question needs, in one JSON object. In-flight jobs expose their
   live learner phase through the budget's phase cell (an atomic string the
   worker updates and this coordinator read races benignly with). *)
let deep_stats_json ?catalog t =
  let now = Budget.now () in
  Mutex.lock t.lock;
  let queued = Hashtbl.create 8 in
  Queue.iter (fun j -> Hashtbl.replace queued j.id ()) t.waiting_q;
  let jobs =
    Hashtbl.fold (fun _ j acc -> j :: acc) t.outstanding []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  let queue_depth = Queue.length t.waiting_q in
  let ewma = t.ewma_latency in
  Mutex.unlock t.lock;
  let job_json j =
    Obs.Json.Obj
      [
        ("id", Obs.Json.Int j.id);
        ( "job",
          Obs.Json.Str (Option.value ~default:"" (Budget.job j.budget)) );
        ("request", Obs.Json.Str (Protocol.request_to_string j.request));
        ( "state",
          Obs.Json.Str (if Hashtbl.mem queued j.id then "queued" else "running")
        );
        ("phase", Obs.Json.Str (Budget.phase j.budget));
        ("elapsed_s", Obs.Json.Float (now -. j.submitted_at));
        ("attempts", Obs.Json.Int j.attempts);
      ]
  in
  let catalog_json =
    match catalog with
    | None -> Obs.Json.Null
    | Some c ->
        Obs.Json.List
          (List.map
             (fun (name, scale, seed) ->
               Obs.Json.Obj
                 [
                   ("data", Obs.Json.Str name);
                   ("scale", Obs.Json.Float scale);
                   ("seed", Obs.Json.Int seed);
                 ])
             (Catalog.loaded c))
  in
  Obs.Json.Obj
    [
      ("stats", stats_to_json (stats t));
      ("in_flight_jobs", Obs.Json.List (List.map job_json jobs));
      ("queue_depth", Obs.Json.Int queue_depth);
      ("latency", latency_json t);
      ("ewma_latency_s", Obs.Json.Float ewma);
      ("catalog", catalog_json);
      ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
      ("events_dropped", Obs.Json.Int (Obs.Events.dropped ()));
    ]

let drain ?deadline t =
  Mutex.lock t.lock;
  t.draining <- true;
  Mutex.unlock t.lock;
  let cancel_at = Option.map (fun s -> Budget.now () +. s) deadline in
  let cancelled = ref false in
  let rec wait () =
    Mutex.lock t.lock;
    let pending = Hashtbl.length t.outstanding in
    if pending > 0 then begin
      (match cancel_at with
      | Some at when (not !cancelled) && Budget.now () > at ->
          (* past the drain deadline: cancel every outstanding job's budget
             so the anytime learners wind down and answer best-so-far *)
          cancelled := true;
          Hashtbl.iter (fun _ j -> Budget.cancel j.budget) t.outstanding
      | _ -> ());
      Mutex.unlock t.lock;
      Unix.sleepf 0.005;
      wait ()
    end
    else Mutex.unlock t.lock
  in
  wait ()

let run_report ?(name = "server") t =
  Obs.Run_report.make ~name
    ~config:
      [
        ("max_in_flight", Obs.Json.Int t.config.max_in_flight);
        ("max_queue", Obs.Json.Int t.config.max_queue);
        ("max_attempts", Obs.Json.Int t.config.max_attempts);
        ( "default_deadline_s",
          match t.config.default_deadline with
          | Some d -> Obs.Json.Float d
          | None -> Obs.Json.Null );
      ]
    ~extra:
      [ ("server", stats_to_json (stats t)); ("latency", latency_json t) ]
    ()
