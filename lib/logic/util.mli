(** Small shared helpers for the logic library and its clients. *)

(** [take n l] is the first [n] elements of [l] (all of [l] when it is
    shorter). [n <= 0] yields the empty list. *)
val take : int -> 'a list -> 'a list

(** [sample rng n l] is a uniform sample of at most [n] elements of [l],
    without replacement (all of [l], in order, when it is no longer). The
    learners' one sampler, so a fixed seed draws the same everywhere. *)
val sample : Random.State.t -> int -> 'a list -> 'a list
