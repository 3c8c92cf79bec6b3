(** Versioned snapshots of sequential-covering progress, written at clause
    boundaries and restored by [--resume] — the checkpoint half of the
    resilient runtime.

    The snapshot carries everything the covering loop needs to continue
    {e bit-identically} to an uninterrupted run at the same seed: the
    clauses learned so far, the indices of the original positives still
    uncovered, the skip/progress counters, the degradation counters, and —
    crucially — the learner's [Random.State.t] at the boundary. Caches are
    not state: the resumed run rebuilds the coverage memo, plans, ground
    bottom clauses and failure constraints, none of which can change a
    verdict, so a snapshot stays about a kilobyte. The container is
    {!Obs.Json}; the RNG and the clause structures travel as hex-encoded
    [Marshal] blobs inside it (printed clauses only round-trip up to
    alpha-equivalence; bit-identical resumption needs the exact term
    structure), with a printed-clause list alongside for humans and CI
    smoke checks. {!load} refuses files whose [version] differs before
    touching any Marshal payload, and {!validate} refuses checkpoints whose
    config fingerprint does not match the resuming run. *)

type t = {
  version : int;  (** snapshot format version; see {!val-version} *)
  fingerprint : string;
      (** digest of the run configuration (dataset, method, strategy,
          scale, seed, learner knobs) that wrote the snapshot; stamped by
          the writer, [""] when it stamps none *)
  boundary : int;  (** covering-loop iterations completed *)
  definition : Logic.Clause.definition;  (** accepted clauses, oldest first *)
  uncovered : int list;
      (** indices (into the run's original positive-example list, in
          order) of the examples still uncovered *)
  seeds_skipped : int;
  consecutive_skips : int;
  candidates_evaluated : int;
  rng : Random.State.t;
      (** the learner RNG at the boundary; callers should
          [Random.State.copy] before drawing so one loaded checkpoint can
          seed several resumes *)
  counters : (string * int) list;
      (** {!Budget.counters_to_assoc} snapshot at the boundary *)
}

(** The snapshot format version this binary reads and writes. v3 dropped
    v2's failure-constraint store and clock; any other version is refused
    by {!of_json}/{!load} with a version-mismatch error. *)
val version : int

(** [fingerprint_of_strings parts] is a stable hex digest of [parts] — the
    helper run configurations are fingerprinted with. *)
val fingerprint_of_strings : string list -> string

val to_json : t -> Obs.Json.t

(** [of_json j] parses and version-checks a snapshot. *)
val of_json : Obs.Json.t -> (t, string) result

(** [validate ~fingerprint t] checks [t] was written by a run configured
    like the current one. An empty fingerprint on either side matches
    anything (escape hatch for hand-built checkpoints). *)
val validate : fingerprint:string -> t -> (unit, string) result

(** [save t path] writes the snapshot atomically (tmp + rename). Returns
    [`Skipped] without touching [path] when the ["checkpoint"] chaos layer
    fires or the write fails — the previous checkpoint survives; callers
    count the skip and continue. *)
val save : t -> string -> [ `Written | `Skipped ]

(** [load path] reads and parses a snapshot; all failures (unreadable,
    bad JSON, version mismatch, torn payload) come back as [Error]. *)
val load : string -> (t, string) result
