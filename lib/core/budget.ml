(** Resource governance: deadline + cancellation token + degradation
    counters. See budget.mli for the contract.

    The whole structure is built from atomics so that pool workers on other
    domains can check the flag and bump counters without taking a lock. A
    {!scope} child shares the parent's [cancelled] atomic and counter cells
    (same physical arrays), so cancellation and accounting aggregate across
    an entire run while each scope keeps its own, possibly tighter,
    deadline. *)

type status = Completed | Deadline_hit | Cancelled

let equal_status (a : status) b = a = b

let status_to_string = function
  | Completed -> "completed"
  | Deadline_hit -> "deadline_hit"
  | Cancelled -> "cancelled"

let pp_status ppf s = Format.pp_print_string ppf (status_to_string s)

exception Expired of status

(* Monotonized wall clock: gettimeofday can step backwards under NTP; a
   deadline that un-expires would let a "returned by the deadline" guarantee
   silently lapse. A CAS max over the last observed value keeps [now]
   non-decreasing process-wide. *)
let last_now = Atomic.make 0.

let now () =
  let t = Unix.gettimeofday () in
  let rec bump () =
    let prev = Atomic.get last_now in
    if t <= prev then prev
    else if Atomic.compare_and_set last_now prev t then t
    else bump ()
  in
  bump ()

type event =
  | Subsumption_try
  | Coverage_truncated
  | Coverage_memo_hit
  | Coverage_memo_miss
  | Coverage_inherited
  | Beam_cut
  | Candidate_abandoned
  | Job_skipped
  | Worker_fault
  | Worker_restarted
  | Job_quarantined
  | Checkpoint_written
  | Checkpoint_skipped
  | Candidate_pruned
  | Constraint_learned

let event_index = function
  | Subsumption_try -> 0
  | Coverage_truncated -> 1
  | Coverage_memo_hit -> 2
  | Coverage_memo_miss -> 3
  | Coverage_inherited -> 4
  | Beam_cut -> 5
  | Candidate_abandoned -> 6
  | Job_skipped -> 7
  | Worker_fault -> 8
  | Worker_restarted -> 9
  | Job_quarantined -> 10
  | Checkpoint_written -> 11
  | Checkpoint_skipped -> 12
  | Candidate_pruned -> 13
  | Constraint_learned -> 14

let n_events = 15

type t = {
  deadline : float option;  (** absolute, per scope *)
  cancelled : bool Atomic.t;  (** shared across scopes *)
  cells : int Atomic.t array;  (** shared across scopes *)
  job : string option;  (** trace-context label, inherited by scopes *)
  phase : string Atomic.t;  (** last phase note, shared across scopes *)
}

let create ?job ?deadline () =
  {
    deadline = Option.map (fun s -> now () +. s) deadline;
    cancelled = Atomic.make false;
    cells = Array.init n_events (fun _ -> Atomic.make 0);
    job;
    phase = Atomic.make "";
  }

let scope ?deadline parent =
  let own = Option.map (fun s -> now () +. s) deadline in
  let deadline =
    match (parent.deadline, own) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (min a b)
  in
  { deadline; cancelled = parent.cancelled; cells = parent.cells;
    job = parent.job; phase = parent.phase }

let job t = t.job

let set_phase t p = Atomic.set t.phase p

let phase t = Atomic.get t.phase

let deadline_at t = t.deadline

let time_left t = Option.map (fun d -> Float.max 0. (d -. now ())) t.deadline

let cancel t = Atomic.set t.cancelled true

let is_cancelled t = Atomic.get t.cancelled

let past_deadline t =
  match t.deadline with Some d -> now () > d | None -> false

let expired t = is_cancelled t || past_deadline t

(* Chunked so cancellation is honored within ~2ms: a plain [Unix.sleepf]
   holds its caller hostage for the full duration (the pool's retry backoff
   was exactly that), while here an expired budget or a true [stop] ends the
   wait at the next chunk boundary. *)
let sleepf ?budget ?(stop = fun () -> false) duration =
  let until = now () +. duration in
  let chunk = 0.002 in
  let gone () =
    stop () || match budget with Some b -> expired b | None -> false
  in
  let rec loop () =
    let remaining = until -. now () in
    if remaining > 0. && not (gone ()) then begin
      Unix.sleepf (Float.min chunk remaining);
      loop ()
    end
  in
  loop ()

let status t =
  if is_cancelled t then Cancelled
  else if past_deadline t then Deadline_hit
  else Completed

let check t = match status t with Completed -> () | st -> raise (Expired st)

let hit t e = Atomic.incr t.cells.(event_index e)

let add t e n = if n > 0 then ignore (Atomic.fetch_and_add t.cells.(event_index e) n)

let hit_opt b e = Option.iter (fun t -> hit t e) b

type counters = {
  subsumption_tries : int;
  coverage_truncated : int;
  coverage_memo_hits : int;
  coverage_memo_misses : int;
  coverage_inherited : int;
  beam_rounds_cut : int;
  candidates_abandoned : int;
  jobs_skipped : int;
  worker_faults : int;
  workers_restarted : int;
  jobs_quarantined : int;
  checkpoints_written : int;
  checkpoints_skipped : int;
  candidates_pruned : int;
  constraints_learned : int;
}

let counters t =
  let get e = Atomic.get t.cells.(event_index e) in
  {
    subsumption_tries = get Subsumption_try;
    coverage_truncated = get Coverage_truncated;
    coverage_memo_hits = get Coverage_memo_hit;
    coverage_memo_misses = get Coverage_memo_miss;
    coverage_inherited = get Coverage_inherited;
    beam_rounds_cut = get Beam_cut;
    candidates_abandoned = get Candidate_abandoned;
    jobs_skipped = get Job_skipped;
    worker_faults = get Worker_fault;
    workers_restarted = get Worker_restarted;
    jobs_quarantined = get Job_quarantined;
    checkpoints_written = get Checkpoint_written;
    checkpoints_skipped = get Checkpoint_skipped;
    candidates_pruned = get Candidate_pruned;
    constraints_learned = get Constraint_learned;
  }

let zero =
  {
    subsumption_tries = 0;
    coverage_truncated = 0;
    coverage_memo_hits = 0;
    coverage_memo_misses = 0;
    coverage_inherited = 0;
    beam_rounds_cut = 0;
    candidates_abandoned = 0;
    jobs_skipped = 0;
    worker_faults = 0;
    workers_restarted = 0;
    jobs_quarantined = 0;
    checkpoints_written = 0;
    checkpoints_skipped = 0;
    candidates_pruned = 0;
    constraints_learned = 0;
  }

let counters_leq a b =
  a.subsumption_tries <= b.subsumption_tries
  && a.coverage_truncated <= b.coverage_truncated
  && a.coverage_memo_hits <= b.coverage_memo_hits
  && a.coverage_memo_misses <= b.coverage_memo_misses
  && a.coverage_inherited <= b.coverage_inherited
  && a.beam_rounds_cut <= b.beam_rounds_cut
  && a.candidates_abandoned <= b.candidates_abandoned
  && a.jobs_skipped <= b.jobs_skipped
  && a.worker_faults <= b.worker_faults
  && a.workers_restarted <= b.workers_restarted
  && a.jobs_quarantined <= b.jobs_quarantined
  && a.checkpoints_written <= b.checkpoints_written
  && a.checkpoints_skipped <= b.checkpoints_skipped
  && a.candidates_pruned <= b.candidates_pruned
  && a.constraints_learned <= b.constraints_learned

let counters_to_assoc c =
  [
    ("subsumption_tries", c.subsumption_tries);
    ("coverage_truncated", c.coverage_truncated);
    ("coverage_memo_hits", c.coverage_memo_hits);
    ("coverage_memo_misses", c.coverage_memo_misses);
    ("coverage_inherited", c.coverage_inherited);
    ("beam_rounds_cut", c.beam_rounds_cut);
    ("candidates_abandoned", c.candidates_abandoned);
    ("jobs_skipped", c.jobs_skipped);
    ("worker_faults", c.worker_faults);
    ("workers_restarted", c.workers_restarted);
    ("jobs_quarantined", c.jobs_quarantined);
    ("checkpoints_written", c.checkpoints_written);
    ("checkpoints_skipped", c.checkpoints_skipped);
    ("candidates_pruned", c.candidates_pruned);
    ("constraints_learned", c.constraints_learned);
  ]

(* The event behind each [counters_to_assoc] name — what lets a resumed run
   re-credit the counters a checkpoint recorded onto its own budget. *)
let event_of_name = function
  | "subsumption_tries" -> Some Subsumption_try
  | "coverage_truncated" -> Some Coverage_truncated
  | "coverage_memo_hits" -> Some Coverage_memo_hit
  | "coverage_memo_misses" -> Some Coverage_memo_miss
  | "coverage_inherited" -> Some Coverage_inherited
  | "beam_rounds_cut" -> Some Beam_cut
  | "candidates_abandoned" -> Some Candidate_abandoned
  | "jobs_skipped" -> Some Job_skipped
  | "worker_faults" -> Some Worker_fault
  | "workers_restarted" -> Some Worker_restarted
  | "jobs_quarantined" -> Some Job_quarantined
  | "checkpoints_written" -> Some Checkpoint_written
  | "checkpoints_skipped" -> Some Checkpoint_skipped
  | "candidates_pruned" -> Some Candidate_pruned
  | "constraints_learned" -> Some Constraint_learned
  | _ -> None

let add_assoc t kvs =
  List.iter
    (fun (name, n) ->
      match event_of_name name with Some e -> add t e n | None -> ())
    kvs

(* Zero counters are elided: a clean `--deadline` run prints "no degradation
   events" instead of a wall of zeroes. *)
let pp_counters ppf c =
  match List.filter (fun (_, v) -> v <> 0) (counters_to_assoc c) with
  | [] -> Fmt.pf ppf "no degradation events"
  | nonzero ->
      Fmt.pf ppf "%a"
        Fmt.(list ~sep:(any "; ") (fun ppf (k, v) -> Fmt.pf ppf "%s %d" k v))
        nonzero

type degradation = {
  status : status;
  counters : counters;
}

let degradation ?status:st t =
  { status = (match st with Some s -> s | None -> status t);
    counters = counters t }

let pp_degradation ppf d =
  Fmt.pf ppf "%s (%a)" (status_to_string d.status) pp_counters d.counters

let degradation_to_string d = Fmt.str "%a" pp_degradation d
