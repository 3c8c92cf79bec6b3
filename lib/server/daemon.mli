(** The learning-as-a-service daemon: a bounded job queue of
    {!Protocol.request}s multiplexed onto one supervised {!Parallel.Pool}.

    Every admitted job terminates in exactly one {!Protocol.outcome}:

    - [Completed] — the handler returned no degradation, or one whose
      status is [Completed], even if the job's deadline passed meanwhile
      (the handler's own degradation is the only judge);
    - [Degraded] — the job's per-request deadline expired (or drain
      cancelled it) and the anytime learner answered best-so-far, with the
      {!Budget.degradation} counters attached;
    - [Quarantined] — the job failed [max_attempts] attempts (injected
      faults, worker kills, handler crashes), each retried after a seeded
      backoff; the final exception and backtrace ship in the response;
    - [Failed] — the request itself was bad ({!Handler.Bad_request});
      never retried.

    Submissions past the admission limits are rejected {e immediately} with
    a typed {!Protocol.rejection} — [Overloaded] carries a [retry_after]
    backpressure hint derived from observed job latency; nothing ever
    blocks or silently drops at admission. *)

type config = {
  max_in_flight : int;  (** jobs running concurrently (≥ 1) *)
  max_queue : int;  (** jobs waiting beyond that before rejection *)
  default_deadline : float option;
      (** per-job deadline (s) for requests that don't set [deadline=] *)
  max_attempts : int;  (** attempts before quarantine (≥ 1) *)
  policy : Resilience.Policy.t;  (** seeds/caps the retry backoff *)
}

(** 2 in flight, queue of 8, no default deadline, 3 attempts,
    {!Resilience.Policy.default}. *)
val default_config : config

type job

(** The submission id, echoed as [Protocol.response.id]. *)
val job_id : job -> int

(** What executes a request; see {!Handler.default}. Runs on a pool worker
    (or inline when the daemon has no pool); must be self-contained. *)
type handler =
  budget:Budget.t ->
  Protocol.request ->
  Protocol.payload * Budget.degradation option

type t

(** [create ?pool ?on_complete ?config handler] builds a daemon. Without a
    [pool], jobs run inline during {!submit} — the deterministic
    single-client mode the bit-identity checks use. [on_complete] fires
    (outside all daemon locks) once per job with its final response. *)
val create :
  ?pool:Parallel.Pool.t ->
  ?on_complete:(Protocol.response -> unit) ->
  ?config:config ->
  handler ->
  t

(** [submit t request] admits or rejects immediately (never blocks on job
    execution — though with no pool the job itself runs inline before
    returning). Rejections are typed: [Overloaded] when both the in-flight
    budget and the queue are full, [Draining] after {!drain} began. *)
val submit : t -> Protocol.request -> (job, Protocol.rejection) result

(** [await t job] blocks until [job]'s response is ready. *)
val await : t -> job -> Protocol.response

(** [peek t job] is the response if the job already finished. *)
val peek : t -> job -> Protocol.response option

(** [submit_and_wait t request] = submit then await. *)
val submit_and_wait :
  t -> Protocol.request -> (Protocol.response, Protocol.rejection) result

type stats = {
  submitted : int;  (** admitted jobs *)
  completed : int;
  degraded : int;
  rejected : int;  (** typed [Overloaded] rejections *)
  rejected_draining : int;
  quarantined : int;
  failed : int;
  retries : int;  (** failed attempts that were re-run *)
  in_flight : int;
  waiting : int;
}

val stats : t -> stats
val stats_to_json : stats -> Obs.Json.t

(** [deep_stats_json ?catalog t] — the introspection snapshot behind the
    protocol's [stats deep]: the flat tallies plus every outstanding job
    (id, request, queued/running, live learner phase from its budget's
    phase cell, elapsed seconds, attempts), current queue depth, the exact
    latency percentiles of finished jobs (the run report's [latency]
    object), the EWMA latency backpressure hint, the loaded catalog keys
    (when [catalog] is given), a full metrics snapshot, and the wide-event
    drop count. *)
val deep_stats_json : ?catalog:Catalog.t -> t -> Obs.Json.t

(** [drain ?deadline t] stops admitting (subsequent submits get
    [Draining]) and blocks until every outstanding job has answered. Past
    [deadline] seconds it cancels each outstanding job's budget once, so
    anytime jobs wind down and answer best-so-far rather than being
    killed mid-write. *)
val drain : ?deadline:float -> t -> unit

(** [run_report ?name t] snapshots stats + exact latency percentiles into
    an {!Obs.Run_report} for the shutdown flush. *)
val run_report : ?name:string -> t -> Obs.Run_report.t
