(** Substitutions θ: finite maps from variable ids to constant values.
    θ-subsumption only ever binds variables to constants (the target clause is
    ground), so the codomain is {!Relational.Value.t}. *)

type t

val empty : t
val compare : t -> t -> int
val find_opt : int -> t -> Relational.Value.t option
val bind : int -> Relational.Value.t -> t -> t
val mem : int -> t -> bool
val cardinal : t -> int
val bindings : t -> (int * Relational.Value.t) list

(** [extend s v value] is [Some] of [s] with [v ↦ value] added, or [None]
    when [v] is already bound to a different value. *)
val extend : t -> int -> Relational.Value.t -> t option

(** [apply_term s t] replaces a bound variable with its constant. *)
val apply_term : t -> Term.t -> Term.t

(** [apply_literal s l] applies [s] to every argument of [l]. *)
val apply_literal : t -> Literal.t -> Literal.t

(** [match_literal s pattern ground] extends [s] so that [pattern] becomes
    [ground], or [None] if impossible.
    @raise Invalid_argument when [ground] is not ground. *)
val match_literal : t -> Literal.t -> Literal.t -> t option

val pp : Format.formatter -> t -> unit
