(** The daemon's line protocol: typed requests, typed rejections, typed
    responses — and a total parser, because a serving process must survive
    any line a client sends.

    Request grammar (one request per line):

    {v
    <verb> <dataset> [key=value ...]
    verb    ::= bias | learn | infer | explain
    keys    ::= method | strategy | scale | seed | timeout | deadline | limit
    v}

    e.g. [learn uw method=autobias scale=0.5 seed=7 timeout=10 deadline=30].
    Responses are single-line JSON ({!response_to_json}); a submission the
    daemon refuses gets a typed {!rejection} instead of a silent drop. *)

(** The knobs shared by every request verb; defaults are the CLI's
    ([method=autobias], [strategy=naive], [scale=1.0], [seed=42],
    [timeout=]{!default_timeout}, no deadline). *)
type common = {
  dataset : string;  (** uw | imdb | hiv | flt | sys *)
  method_ : string;  (** parsed by [Autobias.method_of_string] at execution *)
  strategy : string;  (** parsed by [Sampling.Strategy.of_string] *)
  scale : float;
  seed : int;
  timeout : float;  (** learner timeout, seconds *)
  deadline : float option;  (** whole-job deadline, seconds (admission only) *)
}

type request =
  | Induce_bias of common  (** the Section 3 pipeline, bias only *)
  | Learn of common  (** full learn, definition in the payload *)
  | Infer of common * int  (** learn + materialize predictions (limit) *)
  | Explain of common * int  (** learn + explain examples (limit) *)

(** Why a submission was refused. [Overloaded] carries the backpressure
    hint (an estimate from recent job latency and queue depth). *)
type rejection = Overloaded of { retry_after : float } | Draining

type payload = (string * Obs.Json.t) list

type outcome =
  | Completed of payload
  | Degraded of payload * Budget.degradation
      (** the job's budget expired: best-so-far result + how degraded *)
  | Quarantined of { attempts : int; exn : string; backtrace : string }
      (** the job failed [max_attempts] times (worker kills, injected
          faults); the final exception and backtrace ship in the response *)
  | Failed of string  (** non-retryable: malformed request, unknown data *)

type response = {
  id : int;  (** the daemon's job id *)
  outcome : outcome;
  latency_s : float;  (** submission to completion, seconds *)
  attempts : int;  (** attempts consumed (1 = first try succeeded) *)
}

(** The learner timeout of [Autobias.default_config] (120 s): the default
    of both [timeout=] here and the CLI's [--timeout]. *)
val default_timeout : float

val default_common : string -> common
val common_of_request : request -> common
val verb_of_request : request -> string

(** [parse_request line] — total: every malformed line (unknown verb or
    key, a number that does not parse or is not finite, a negative
    [limit]) is a typed [Error]. *)
val parse_request : string -> (request, string) result

(** [request_to_string r] re-renders [r] in the request grammar
    ([parse_request (request_to_string r) = Ok r] up to defaulted keys). *)
val request_to_string : request -> string

val status_of_outcome : outcome -> string
val degradation_to_json : Budget.degradation -> Obs.Json.t
val response_to_json : response -> Obs.Json.t
val rejection_to_json : rejection -> Obs.Json.t
val rejection_to_string : rejection -> string
