(** Shared read-mostly catalog of loaded databases, keyed by
    (dataset, scale, seed).

    The serving daemon's jobs all resolve their dataset here: the first
    request for a triple generates (loads) it — serialized, so concurrent
    first requests do the work once — and every later request is an atomic
    read of an immutable entry, safe from any domain. Load failures are
    typed, never exceptions: a bad request must produce a typed error
    response, not a dead worker. *)

type t

type error =
  | Unknown_dataset of string
  | Generation_failed of { dataset : string; message : string }
      (** the generator itself raised; the message ships to the client *)

val error_to_string : error -> string

val create : unit -> t

(** [generate ~name ~scale ~seed] builds a fresh dataset by name, uncached
    — the table every front end resolves dataset names through.
    [Error (Unknown_dataset name)] for a name outside uw, imdb, hiv, flt
    and sys. *)
val generate :
  name:string -> scale:float -> seed:int -> (Datasets.Dataset.t, error) result

(** [load t ~name ~scale ~seed] returns the cached dataset or generates and
    publishes it. Thread-safe; generation for one key happens once. *)
val load :
  t -> name:string -> scale:float -> seed:int ->
  (Datasets.Dataset.t, error) result

(** [loaded t] lists the published (name, scale, seed) keys, sorted. *)
val loaded : t -> (string * float * int) list
