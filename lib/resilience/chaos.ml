(** Layer-tagged seeded fault injection. See chaos.mli for the contract.

    This generalizes the pool-only injector the chaos tests started with:
    one injector type (seeded, counter-hashed, scheduling-independent) plus
    a process-global registry keyed by {e layer} name, so CSV loading,
    semi-join sampling, memo lookups, checkpoint I/O and the domain pool can
    each be fault-injected independently. Kept dependency-free (unix only)
    so the bottom-most libraries can tick their layer without cycles.

    Decisions hash (seed, salt, ticket) rather than drawing from a shared
    [Random.State]: callers on different domains take tickets with one
    [fetch_and_add], and the verdict for ticket [k] is a pure function of
    the seed — the fault {e count} is reproducible even though which domain
    draws which ticket is not. *)

type t = {
  p_fault : float;
  p_delay : float;
  delay : float;
  p_kill : float;
  seed : int;
  label : string option;  (** layer name, for the wide-event log *)
  tickets : int Atomic.t;
  injected : int Atomic.t;
  delayed : int Atomic.t;
  killed : int Atomic.t;
}

exception Injected of int
exception Killed of int

let () =
  Printexc.register_printer (function
    | Injected k -> Some (Printf.sprintf "Chaos.Injected (ticket %d)" k)
    | Killed k -> Some (Printf.sprintf "Chaos.Killed (ticket %d)" k)
    | _ -> None)

let clamp01 p = Float.min 1. (Float.max 0. p)

let create ?label ?(p_fault = 0.) ?(p_delay = 0.) ?(delay = 0.001)
    ?(p_kill = 0.) ?(seed = 0) () =
  {
    p_fault = clamp01 p_fault;
    p_delay = clamp01 p_delay;
    delay = Float.max 0. delay;
    p_kill = clamp01 p_kill;
    seed;
    label;
    tickets = Atomic.make 0;
    injected = Atomic.make 0;
    delayed = Atomic.make 0;
    killed = Atomic.make 0;
  }

(* Uniform-ish draw in [0, 1) from the low 24 bits of the structural hash;
   [salt] decouples the delay, kill and fault verdicts of one ticket. Salts
   1 and 2 predate the kill draw — keeping them stable keeps the historical
   injector byte-compatible with the pre-registry chaos tests. *)
let draw t ~salt k =
  float_of_int (Hashtbl.hash (t.seed, salt, k) land 0xFFFFFF) /. 16777216.

(* A firing injector is rare by construction; telling the wide-event log
   about it costs one atomic load when the log is disabled. *)
let fired t kind k =
  Obs.Events.emit "chaos.fired"
    ~fields:
      (("kind", Obs.Json.Str kind)
      :: ("ticket", Obs.Json.Int k)
      :: (match t.label with
         | Some l -> [ ("layer", Obs.Json.Str l) ]
         | None -> []))

let tick t =
  let k = Atomic.fetch_and_add t.tickets 1 in
  if draw t ~salt:1 k < t.p_delay then begin
    Atomic.incr t.delayed;
    fired t "delay" k;
    Unix.sleepf t.delay
  end;
  if draw t ~salt:3 k < t.p_kill then begin
    Atomic.incr t.killed;
    fired t "kill" k;
    raise (Killed k)
  end;
  if draw t ~salt:2 k < t.p_fault then begin
    Atomic.incr t.injected;
    fired t "fault" k;
    raise (Injected k)
  end

let tickets t = Atomic.get t.tickets
let injected t = Atomic.get t.injected
let delayed t = Atomic.get t.delayed
let killed t = Atomic.get t.killed

type counts = { n_tickets : int; n_injected : int; n_delayed : int; n_killed : int }

let counts t =
  {
    n_tickets = tickets t;
    n_injected = injected t;
    n_delayed = delayed t;
    n_killed = killed t;
  }

(* {2 The layer registry}

   An immutable assoc list swapped atomically: the hot sites (one [get] per
   coverage-memo probe) pay one atomic load and, in the common unconfigured
   case, one empty-list check — no lock. Registration is rare (CLI startup,
   test setup) and goes through a CAS loop. *)

let known_layers = [ "pool"; "csv"; "sampling"; "memo"; "checkpoint"; "server" ]

let registry : (string * t) list Atomic.t = Atomic.make []

let get name = List.assoc_opt name (Atomic.get registry)

let active () = List.map fst (Atomic.get registry)

let clear () = Atomic.set registry []

(* Layer seeds are decorrelated so e.g. the csv and memo layers of one run
   do not fire on the same ticket numbers. *)
let layer_seed seed name = Hashtbl.hash (seed, name)

let configure ?(p_kill = 0.) ?(p_delay = 0.) ?(delay = 0.001) ~p_fault ~seed
    layers =
  let layers =
    if List.mem "all" layers then known_layers
    else
      List.map
        (fun l ->
          if List.mem l known_layers then l
          else
            invalid_arg
              (Printf.sprintf "Chaos.configure: unknown layer %S (known: %s)" l
                 (String.concat ", " known_layers)))
        layers
  in
  let make name =
    (* Worker kills only make sense where a worker exists to kill. *)
    let p_kill = if name = "pool" then p_kill else 0. in
    ( name,
      create ~label:name ~p_fault ~p_delay ~delay ~p_kill
        ~seed:(layer_seed seed name) () )
  in
  let rec swap () =
    let prev = Atomic.get registry in
    let kept = List.filter (fun (n, _) -> not (List.mem n layers)) prev in
    let next = List.map make layers @ kept in
    if not (Atomic.compare_and_set registry prev next) then swap ()
  in
  swap ()

let tick_layer name = match get name with None -> () | Some t -> tick t

(* Absorb-style sites (memo bypass, csv row drop, sampling hiccup) want a
   boolean, not an exception — and must never die to a stray kill verdict. *)
let fires name =
  match get name with
  | None -> false
  | Some t -> ( try tick t; false with Injected _ | Killed _ -> true)

let snapshot () =
  List.map (fun (name, t) -> (name, counts t)) (Atomic.get registry)
  |> List.sort compare

let parse_layers s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let configure_flags ~p_fault ~p_kill ~layers ~seed =
  if p_fault <> None || layers <> None then
    configure ?p_kill ~p_fault:(Option.value p_fault ~default:0.) ~seed
      (parse_layers (Option.value layers ~default:"pool"))

let from_env () =
  match Sys.getenv_opt "AUTOBIAS_CHAOS_LAYERS" with
  | None | Some "" -> ()
  | Some layers -> (
      match
        Option.bind (Sys.getenv_opt "AUTOBIAS_CHAOS") float_of_string_opt
      with
      | None -> ()
      | Some p when p <= 0. -> ()
      | Some p ->
          let seed =
            Option.bind (Sys.getenv_opt "AUTOBIAS_CHAOS_SEED") int_of_string_opt
            |> Option.value ~default:0
          in
          let p_kill =
            Option.bind (Sys.getenv_opt "AUTOBIAS_CHAOS_KILL")
              float_of_string_opt
            |> Option.value ~default:0.
          in
          configure ~p_kill ~p_fault:p ~seed (parse_layers layers))
