(** Layer-tagged seeded fault injection (chaos testing).

    One injector type serves every layer of the stack. An injector
    probabilistically raises {!Injected} (a survivable fault), raises
    {!Killed} (fatal to the calling worker domain — only the pool layer
    ever arms it), or sleeps before the protected operation runs, driven by
    a counter-hashed seeded decision: deterministic per (seed, ticket),
    independent of domain scheduling, and safe to call from any domain.

    On top sits a process-global {e registry} keyed by layer name
    ({!known_layers}: ["pool"], ["csv"], ["sampling"], ["memo"],
    ["checkpoint"], ["server"]), so each layer can be independently fault-injected —
    from the CLI ([--chaos-layers]) or the environment
    ([AUTOBIAS_CHAOS_LAYERS]). Layers that are not configured pay one
    atomic load per probe. *)

type t

exception Injected of int
(** A survivable injected fault; the payload is the ticket number. Call
    sites absorb it into their degradation accounting. *)

exception Killed of int
(** A fatal injected fault: the pool treats it as worker-domain death and
    the supervision machinery (restart / quarantine) takes over. No other
    layer arms it. *)

(** [create ?label ?p_fault ?p_delay ?delay ?p_kill ?seed ()] — [p_fault]
    (default [0.]) is the probability a tick raises {!Injected}, [p_kill]
    (default [0.]) the probability it raises {!Killed} instead, [p_delay]
    (default [0.]) the probability it first sleeps [delay] seconds (default
    [0.001]); [seed] (default [0]) fixes every decision. Probabilities are
    clamped to [\[0, 1\]]. [label] names the injector's layer in the
    ["chaos.fired"] lines it emits to {!Obs.Events} when a verdict fires
    ({!configure} labels registry injectors automatically). *)
val create :
  ?label:string ->
  ?p_fault:float ->
  ?p_delay:float ->
  ?delay:float ->
  ?p_kill:float ->
  ?seed:int ->
  unit ->
  t

(** [tick t] consumes one ticket: possibly sleeps, then possibly raises
    {!Killed}, then possibly raises {!Injected}. Thread-safe. *)
val tick : t -> unit

(** [tickets t] — ticks consumed so far. *)
val tickets : t -> int

(** [injected t] — ticks that raised {!Injected}. *)
val injected : t -> int

(** [delayed t] — ticks that slept. *)
val delayed : t -> int

(** [killed t] — ticks that raised {!Killed}. *)
val killed : t -> int

type counts = {
  n_tickets : int;
  n_injected : int;
  n_delayed : int;
  n_killed : int;
}

val counts : t -> counts

(** {1 The layer registry} *)

(** The layer names {!configure} accepts (plus the wildcard ["all"]). *)
val known_layers : string list

(** [configure ?p_kill ?p_delay ?delay ~p_fault ~seed layers] installs one
    fresh injector per named layer (["all"] = every known layer); layers
    not named keep their current injector. [p_kill] is armed only on the
    ["pool"] layer. Raises [Invalid_argument] on an unknown layer name. *)
val configure :
  ?p_kill:float ->
  ?p_delay:float ->
  ?delay:float ->
  p_fault:float ->
  seed:int ->
  string list ->
  unit

(** [clear ()] removes every configured layer (test teardown). *)
val clear : unit -> unit

(** [get name] is the injector configured for [name], if any. One atomic
    load — cheap enough for per-coverage-test probes. *)
val get : string -> t option

(** [tick_layer name] ticks [name]'s injector; a no-op when the layer is
    not configured. May raise {!Injected} (or {!Killed} on the pool
    layer). *)
val tick_layer : string -> unit

(** [fires name] ticks [name]'s injector and reports whether it fired,
    absorbing the exception — the shape for layers that degrade in place
    (drop a CSV row, bypass a memo probe) rather than propagate. Never
    raises. *)
val fires : string -> bool

(** [active ()] — the configured layer names. *)
val active : unit -> string list

(** [snapshot ()] — per-layer tick/fault counts, sorted by layer name; the
    run report embeds this so a chaos soak is auditable after the fact. *)
val snapshot : unit -> (string * counts) list

(** [parse_layers s] splits a comma-separated layer list (as given to
    [--chaos-layers] or [AUTOBIAS_CHAOS_LAYERS]) into trimmed, non-empty
    names for {!configure}. *)
val parse_layers : string -> string list

(** [configure_flags ~p_fault ~p_kill ~layers ~seed] — the binaries'
    [--chaos], [--chaos-kill] and [--chaos-layers] flags: {!configure} the
    [layers] list (["pool"] when [None]) at [p_fault] ([0.] when [None]); a
    no-op when both are [None]. A pool takes its injector from
    [get "pool"]. *)
val configure_flags :
  p_fault:float option -> p_kill:float option -> layers:string option ->
  seed:int -> unit

(** [from_env ()] configures the registry from the environment:
    [AUTOBIAS_CHAOS_LAYERS] (comma list or ["all"]) gates everything;
    probability from [AUTOBIAS_CHAOS], seed from [AUTOBIAS_CHAOS_SEED]
    (default 0), worker-kill probability from [AUTOBIAS_CHAOS_KILL]
    (default 0, pool layer only). A no-op when unset or unparsable. *)
val from_env : unit -> unit
