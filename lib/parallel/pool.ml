(** Supervised fixed-size domain pool. See pool.mli for the contract.

    One mutex guards the queue, the quarantine list and the shutdown flag;
    workers sleep on a condition variable when the queue is empty. Tasks
    are [unit -> unit] thunks that should not raise: the {!Par}
    combinators carry per-item exceptions back to the caller themselves,
    so anything escaping a task is a harness bug or an injected fault. The
    worker loop survives ordinary escapees — never silently: drops are
    counted in an atomic, the first offender's backtrace is kept and
    logged, and {!stats} exposes the tally.

    {!Chaos.Killed} is the one exception treated as {e worker death}: the
    dying worker hands its task back (retry on another worker, or
    quarantine with the backtrace once the task has killed
    [policy.job_retries] workers), then — bounded by
    [policy.worker_restarts] and after a seeded exponential backoff —
    spawns its own replacement domain at the same worker index. The pool
    therefore keeps its full width through worker crashes instead of
    silently running narrower until shutdown; when the restart budget is
    exhausted it degrades to fewer workers, and {!Par} callers still drain
    every job themselves, so results are never lost either way.

    Observability: each queued task carries its enqueue timestamp, so the
    worker that dequeues it can attribute queue-wait vs. run time (the
    [pool.queue_wait_s] / [pool.task_run_s] histograms), per-worker
    dequeued-task counts are the pool's task tally (the utilization view in
    {!stats}; [tasks_run] is their sum), and each task runs inside an
    [Obs.Trace] span on its worker's own track — one trace row per domain
    in Perfetto. All of it is atomics; a pool without tracing enabled pays
    one atomic load per task for the span site. *)

type fault = { exn : exn; backtrace : Printexc.raw_backtrace }

type quarantine = {
  job_id : int;
  attempts : int;
  exn : string;
  backtrace : string;
}

type task = {
  run : unit -> unit;
  enqueued_at : float;
  id : int;
  ctx : string option;
      (** trace/job context captured at submit; the worker re-establishes
          it, so spans and wide events a task emits on its worker domain
          stay tagged with the owning job *)
  mutable kills : int;  (** workers this task has taken down so far *)
  on_fault : (exn -> unit) option;
      (** told when the pool drops this task's exception — the hook a
          daemon layer uses so no submitted job can vanish silently *)
  on_quarantine : (quarantine -> unit) option;
      (** told when this task is quarantined (outside the pool lock) *)
}

type t = {
  size : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  chaos : Chaos.t option;
  budget : Budget.t option;
      (** bounds supervision backoff sleeps: a cancelled budget ends them *)
  policy : Resilience.Policy.t;
  dropped : int Atomic.t;
  restarts : int Atomic.t;
  quarantined : int Atomic.t;
  next_id : int Atomic.t;
  per_worker : int Atomic.t array;  (** jobs completed, by worker index *)
  mutable first_fault : fault option;  (** guarded by [lock] *)
  mutable quarantine : quarantine list;  (** guarded by [lock], newest first *)
}

type stats = {
  size : int;
  tasks_run : int;
  dropped : int;
  restarts : int;
  quarantined : int;
  queue_depth : int;
  per_worker : int array;
}

let max_size = 128

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

let clamp size = max 1 (min max_size size)

let m_queue_wait = Obs.Metrics.histogram "pool.queue_wait_s"
let m_task_run = Obs.Metrics.histogram "pool.task_run_s"
let m_tasks = Obs.Metrics.counter "pool.tasks_run"

let note_fault (t : t) e =
  let backtrace = Printexc.get_raw_backtrace () in
  Atomic.incr t.dropped;
  Mutex.lock t.lock;
  let first = t.first_fault = None in
  if first then t.first_fault <- Some { exn = e; backtrace };
  Mutex.unlock t.lock;
  if first then
    Logs.err (fun m ->
        m "Parallel.Pool: worker dropped %s@.%s" (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string backtrace))

(* Worker death: retry-or-quarantine the poisoned task, then (policy and
   shutdown permitting) respawn a replacement domain at the same index.
   Runs on the dying domain itself, which then returns cleanly — so
   [Domain.join] at shutdown never re-raises. *)
let rec die t w task e bt =
  note_fault t e;
  Mutex.lock t.lock;
  task.kills <- task.kills + 1;
  let quarantined =
    if task.kills >= max 1 t.policy.Resilience.Policy.job_retries then begin
      let record =
        {
          job_id = task.id;
          attempts = task.kills;
          exn = Printexc.to_string e;
          backtrace = Printexc.raw_backtrace_to_string bt;
        }
      in
      t.quarantine <- record :: t.quarantine;
      Atomic.incr t.quarantined;
      Logs.warn (fun m ->
          m "Parallel.Pool: job %d quarantined after killing %d workers (%s)"
            task.id task.kills (Printexc.to_string e));
      Some record
    end
    else begin
      Queue.push task t.queue;
      Condition.signal t.nonempty;
      None
    end
  in
  (* Reserve the restart slot under the lock so concurrent deaths cannot
     oversubscribe the budget; the backoff sleep and the spawn run outside
     it (the spawn re-checks [stopping]). *)
  let restart_no =
    if t.stopping || Atomic.get t.restarts >= t.policy.Resilience.Policy.worker_restarts
    then None
    else begin
      Atomic.incr t.restarts;
      Some (Atomic.get t.restarts)
    end
  in
  Mutex.unlock t.lock;
  (* Quarantine callbacks run outside the pool lock so the receiving layer
     (the serving daemon) can take its own locks or resubmit freely. *)
  (match quarantined with
  | Some record -> (
      match task.on_quarantine with
      | Some f -> ( try f record with _ -> ())
      | None -> ())
  | None -> ());
  match restart_no with
  | None ->
      Logs.warn (fun m ->
          m "Parallel.Pool: worker %d died and the restart budget is spent; \
             pool continues with fewer workers" w)
  | Some n ->
      Budget.sleepf ?budget:t.budget
        ~stop:(fun () -> t.stopping)
        (Resilience.Policy.backoff t.policy ~attempt:(min n 16) ~salt:(Hashtbl.hash (w, n)));
      Mutex.lock t.lock;
      if t.stopping then Mutex.unlock t.lock
      else begin
        let d = Domain.spawn (worker_loop t w) in
        t.workers <- d :: t.workers;
        Mutex.unlock t.lock
      end

and worker_loop t w () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.lock
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.lock;
      let dequeued_at = Budget.now () in
      let wait = dequeued_at -. task.enqueued_at in
      Obs.Metrics.observe m_queue_wait wait;
      (* counted at dequeue: once a caller has observed a batch complete
         (every task body returned), the tally is final *)
      Atomic.incr t.per_worker.(w);
      Obs.Metrics.bump m_tasks;
      let outcome =
        Obs.Trace.with_context ?job:task.ctx @@ fun () ->
        Obs.Trace.span ~cat:"pool"
          ~args:
            [
              ("worker", string_of_int w);
              ("queue_wait_us", Printf.sprintf "%.1f" (wait *. 1e6));
            ]
          "pool_task"
          (fun () ->
            try
              (match t.chaos with Some f -> Chaos.tick f | None -> ());
              task.run ();
              `Ok
            with
            | Chaos.Killed _ as e -> `Died (e, Printexc.get_raw_backtrace ())
            | e ->
                note_fault t e;
                (match task.on_fault with
                | Some f -> ( try f e with _ -> ())
                | None -> ());
                `Ok)
      in
      Obs.Metrics.observe m_task_run (Budget.now () -. dequeued_at);
      match outcome with
      | `Ok -> loop ()
      | `Died (e, bt) -> die t w task e bt
    end
  in
  loop ()

let create ?size ?chaos ?budget ?(policy = Resilience.Policy.default) () =
  let size = clamp (Option.value size ~default:(default_size ())) in
  let t =
    {
      size;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      chaos;
      budget;
      policy;
      dropped = Atomic.make 0;
      restarts = Atomic.make 0;
      quarantined = Atomic.make 0;
      next_id = Atomic.make 0;
      per_worker = Array.init size (fun _ -> Atomic.make 0);
      first_fault = None;
      quarantine = [];
    }
  in
  t.workers <- List.init size (fun w -> Domain.spawn (worker_loop t w));
  t

let size (t : t) = t.size

let stats (t : t) =
  Mutex.lock t.lock;
  let queue_depth = Queue.length t.queue in
  Mutex.unlock t.lock;
  let per_worker = Array.map Atomic.get t.per_worker in
  {
    size = t.size;
    tasks_run = Array.fold_left ( + ) 0 per_worker;
    dropped = Atomic.get t.dropped;
    restarts = Atomic.get t.restarts;
    quarantined = Atomic.get t.quarantined;
    queue_depth;
    per_worker;
  }

let first_fault t =
  Mutex.lock t.lock;
  let f = t.first_fault in
  Mutex.unlock t.lock;
  f

let quarantine_records t =
  Mutex.lock t.lock;
  let q = t.quarantine in
  Mutex.unlock t.lock;
  List.rev q

let submit ?on_fault ?on_quarantine t task =
  let task =
    {
      run = task;
      enqueued_at = Budget.now ();
      id = Atomic.fetch_and_add t.next_id 1;
      (* the submitting domain's job context rides along with the task *)
      ctx = Obs.Trace.context ();
      kills = 0;
      on_fault;
      on_quarantine;
    }
  in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Parallel.Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  let workers = t.workers in
  t.stopping <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  (* Respawns append to [t.workers] under the lock before [stopping] is
     set, so this list holds every domain ever spawned for the pool —
     terminated ones join immediately. *)
  List.iter Domain.join workers

let with_pool ?size ?chaos ?budget ?policy f =
  let t = create ?size ?chaos ?budget ?policy () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
