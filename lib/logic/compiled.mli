(** The int-coded θ-subsumption kernel: coverage testing (Section 5) and
    ARMG (Section 2.3.2) as one left-to-right substitution-frontier sweep.

    Predicate symbols, constants and ground tuples are interned into
    contiguous int ids; ground bottom clauses are sequences of interned
    tuples (rows), flattened into int arrays of {e local} ids — the
    ground's own constants numbered 0…n−1 in [Value.compare] order — with
    per-predicate and per-(predicate, position, local id) adjacency
    indexes, each keyed by one packed int; candidate clauses compile once
    into evaluation {!plan}s; and the sweep runs over reusable {!scratch}
    arenas — loops over int arrays, no per-step allocation.

    {!eval} stops at the first body literal whose frontier dies (the
    blocking atom); {!generalize} drops it and carries the previous frontier
    on. Both replicate the symbolic reference engine the tests keep as an
    oracle: same verdicts, witnesses, truncation counts and kept literals.
    The sweep orders and compares local ids as plain ints: they are ranks
    by value, numbered from the ground's values alone, so results do not
    depend on interning order (and hence not on pool scheduling). A plan's
    constants are mapped to local ids as the sweep reaches them; a constant
    the ground lacks matches nothing. *)

(** An interned ground literal: a (predicate, tuple) pair, interned once
    per symbol table. *)
type row

(** A process- or context-wide interner for predicate symbols, constant
    values and ground tuples. Thread-safe: every operation takes an
    internal mutex. The sweep never reads it. *)
module Symtab : sig
  type t

  val create : unit -> t
  val pred_id : t -> string -> int
  val const_id : t -> Relational.Value.t -> int

  (** [row t ~pred tuple] — the row of [tuple] under predicate id [pred]:
      its values are interned on first sight only, and equal tuples get
      the same row. *)
  val row : t -> pred:int -> Relational.Relation.tuple -> row
end

(** [row_id r] numbers the distinct rows of one symbol table (equal ids ⟺
    equal literals). [row_args r] — the const ids of its tuple; do not
    mutate. *)
val row_id : row -> int

val row_args : row -> int array

type ground
(** A compiled ground clause body plus its example tuple, both in the
    ground's local ids, and the values those ids stand for. *)

val ground_size : ground -> int

(** [ground_of_rows tab ~example rows] — the ground whose body is [rows],
    in order, its constants and [example]'s numbered by value, indexed by
    predicate and by (predicate, position, local id). *)
val ground_of_rows :
  Symtab.t -> example:Relational.Relation.tuple -> row array -> ground

(** [compile_ground tab ~example lits] — {!ground_of_rows} of ground
    literals [lits], preserving their order in every index.
    @raise Invalid_argument if some literal is not ground. *)
val compile_ground :
  Symtab.t -> example:Relational.Relation.tuple -> Literal.t list -> ground

(** A ground decoded to predicate names and values, every index in full:
    equal views ⟺ the same ground, across symbol tables. For tests. *)
type ground_view = {
  literals : (string * Relational.Value.t array) array;  (** body, in order *)
  offsets : int array;  (** literal → offset of its first argument *)
  by_pred : (string * int array) list;
      (** predicate → literal indexes, by predicate *)
  adjacency : ((string * int * Relational.Value.t) * int array) list;
      (** (predicate, position, value) → literal indexes, by key *)
  example : Relational.Value.t array;
}

val view : Symtab.t -> ground -> ground_view

type plan
(** A compiled candidate clause: dense variable numbering, int-coded head
    and body, canonical int key. *)

(** [compile tab clause] int-codes [clause]. Pure up to interning:
    recompiling yields an interchangeable plan. *)
val compile : Symtab.t -> Clause.t -> plan

(** [key plan] — a canonical key injective exactly where
    [Clause.to_string] is (α-variants stay distinct): the compiled
    replacement for printed-clause memo keys. *)
val key : plan -> int array

(** [hash_key k] — a hash that reads every element of [k] and spreads over
    all bits of a non-negative int, high bits included. *)
val hash_key : int array -> int

(** [key_hash plan] — [hash_key (key plan)], computed once when [plan] was
    compiled. *)
val key_hash : plan -> int

val n_body : plan -> int

(** [key_bounds k] — the literal-segment boundaries of a canonical key:
    [bounds.(i)] is the offset where segment [i] starts (segment 0 is the
    head, segment [i ≥ 1] is body literal [i]), and the final element is
    [Array.length k]. Each segment is [pred; arity; args...], so boundaries
    are recoverable from the key alone — the property the failure-constraint
    store's prefix signatures rely on. *)
val key_bounds : int array -> int array

(** [key_segment k ~index] — the canonical key of literal [index] alone
    (head = 0, body literal [i] = [i]): what {!Explain} attaches to
    not-covered verdicts. *)
val key_segment : int array -> index:int -> int array

type scratch
(** Reusable evaluation arenas. Not thread-safe — use one per worker
    domain (e.g. via [Domain.DLS]). *)

val make_scratch : unit -> scratch

(** A coverage verdict. *)
type verdict =
  | Covered of Substitution.t  (** a witness substitution *)
  | Blocked of int
      (** 1-based index of the blocking body literal (Section 2.3.2); [0]
          when the head cannot bind to the example *)

(** Substitutions a frontier keeps per literal (24). *)
val default_frontier_cap : int

(** [eval ?cap ?budget scratch tab plan g] — does [plan] cover [g]'s
    example? The head binds to the example tuple, then the body is swept
    left to right; each frontier truncation bumps [budget]'s
    [Coverage_truncated]. *)
val eval :
  ?cap:int ->
  ?budget:Budget.t ->
  scratch ->
  Symtab.t ->
  plan ->
  ground ->
  verdict

(** [generalize ?cap scratch tab plan g] — ARMG's sweep: every body literal
    whose frontier dies is dropped, the previous frontier carrying on. The
    kept-literal mask over [plan]'s body, or [None] when the head cannot
    bind. Reports nothing: no span, no budget. *)
val generalize :
  ?cap:int -> scratch -> Symtab.t -> plan -> ground -> bool array option
