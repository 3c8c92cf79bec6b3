(** A supervised fixed-size pool of worker domains (OCaml 5 shared-memory
    parallelism).

    The pool is created once and reused across the whole run: spawning a
    domain costs hundreds of microseconds, far more than one coverage test,
    so the learner's hot loops must amortize it. Workers block on a
    mutex/condition-guarded task queue; {!submit} never blocks.

    Tasks should not raise — higher-level combinators ({!Par}) wrap user
    functions and carry exceptions back to the caller themselves. An
    ordinary exception that escapes a task anyway (a harness bug, or an
    injected {!Chaos.Injected}) does not kill the worker: it is counted, the
    first one's backtrace is logged and kept for {!first_fault}, and the
    tally is visible in {!stats} — faults are survived loudly, never
    silently.

    {!Chaos.Killed} is different: it takes the worker domain down, and the
    supervision {!Resilience.Policy} takes over — the task is retried on another
    worker, or {e quarantined} with its backtrace once it has killed
    [job_retries] workers; the dead domain is replaced (after seeded
    exponential backoff, up to [worker_restarts] times per pool), so the
    pool keeps its width through crashes instead of quietly narrowing. *)

type t

type fault = { exn : exn; backtrace : Printexc.raw_backtrace }

type quarantine = {
  job_id : int;  (** submission id of the poisoned task *)
  attempts : int;  (** workers it took down before quarantine *)
  exn : string;  (** printed final exception *)
  backtrace : string;  (** backtrace of the final death *)
}

type stats = {
  size : int;  (** worker domains *)
  tasks_run : int;  (** tasks dequeued so far: the sum of [per_worker] *)
  dropped : int;  (** tasks whose exception the pool had to drop *)
  restarts : int;  (** worker domains respawned after a fatal fault *)
  quarantined : int;  (** jobs quarantined after repeated worker kills *)
  queue_depth : int;  (** tasks currently waiting in the queue *)
  per_worker : int array;
      (** tasks dequeued per worker, by spawn index — the utilization view *)
}

(** [create ?size ?chaos ?budget ?policy ()] spawns [size] worker domains.
    [size] defaults to [Domain.recommended_domain_count () - 1] (the
    caller's domain participates in {!Par} jobs, so [n] workers saturate
    [n + 1] cores) and is clamped to [\[1, 128\]]. [chaos] injects seeded
    faults/delays/kills before each task runs (testing only). [budget]
    bounds the supervision machinery's backoff sleeps: cancelling it cuts
    any in-progress restart backoff short instead of holding the worker
    (and whatever job it will retry) hostage. [policy] (default
    {!Resilience.Policy.default}) governs restart/retry/quarantine. *)
val create :
  ?size:int -> ?chaos:Chaos.t -> ?budget:Budget.t ->
  ?policy:Resilience.Policy.t -> unit -> t

(** [size t] is the number of worker domains. *)
val size : t -> int

(** [stats t] is a snapshot of the pool's counters. *)
val stats : t -> stats

(** [first_fault t] is the first exception a worker dropped (with its
    backtrace), if any — kept so a crash is diagnosable after the fact. *)
val first_fault : t -> fault option

(** [quarantine_records t] lists quarantined jobs, oldest first — surfaced
    into the run report so a poisoned input is auditable after the run. *)
val quarantine_records : t -> quarantine list

(** [default_size ()] is the size {!create} picks when none is given. *)
val default_size : unit -> int

(** [submit ?on_fault ?on_quarantine t task] enqueues [task] for some
    worker. Never blocks. Raises [Invalid_argument] if the pool was shut
    down.

    [on_fault] is invoked (never holding the pool lock) when an exception
    escaping [task] is dropped by the worker loop — without it the task
    simply never "completes" from the submitter's point of view, which a
    layer awaiting the task (the serving daemon) cannot afford.
    [on_quarantine] is invoked (outside the pool lock) when the task is
    quarantined after repeatedly killing workers. Exceptions raised by
    either callback are swallowed. *)
val submit :
  ?on_fault:(exn -> unit) ->
  ?on_quarantine:(quarantine -> unit) ->
  t -> (unit -> unit) -> unit

(** [shutdown t] drains the queue, joins every worker (including respawned
    ones) and frees the pool. Idempotent. Submitting after shutdown
    raises. *)
val shutdown : t -> unit

(** [with_pool ?size ?chaos ?budget ?policy f] runs [f pool] and shuts the
    pool down afterwards, also on exceptions. *)
val with_pool :
  ?size:int -> ?chaos:Chaos.t -> ?budget:Budget.t ->
  ?policy:Resilience.Policy.t -> (t -> 'a) -> 'a
