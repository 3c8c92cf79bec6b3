(** The int-coded θ-subsumption kernel: coverage testing (Section 5) and
    ARMG (Section 2.3.2) as one left-to-right substitution-frontier sweep.

    Predicate symbols and constants are interned into contiguous int ids;
    ground bottom clauses flatten into int arrays with precomputed
    per-(predicate, position, value) adjacency indexes; candidate clauses
    compile once into evaluation {!plan}s; and the sweep runs over reusable
    {!scratch} arenas — loops over int arrays, no per-step allocation.

    {!eval} stops at the first body literal whose frontier dies (the
    blocking atom); {!generalize} drops it and carries the previous frontier
    on. Both replicate the symbolic reference engine the tests keep as an
    oracle: same verdicts, witnesses, truncation counts and kept literals.
    Interned ids are only ever compared for equality; ordering goes through
    [Value.compare] on the reverse array, so results do not depend on
    interning order (and hence not on pool scheduling). *)

(** A process- or context-wide interner for predicate symbols and constant
    values. Thread-safe: interning takes an internal mutex; the kernel reads
    the constants' reverse array lock-free (safe for ids published to it
    through any mutex, e.g. a plan or ground cache). *)
module Symtab : sig
  type t

  val create : unit -> t
  val pred_id : t -> string -> int
  val const_id : t -> Relational.Value.t -> int
end

type ground
(** A compiled ground clause body plus its interned example tuple. *)

val ground_size : ground -> int

(** [compile_ground tab ~example lits] flattens ground literals [lits],
    preserving their order in every index.
    @raise Invalid_argument if some literal is not ground. *)
val compile_ground :
  Symtab.t -> example:Relational.Relation.tuple -> Literal.t list -> ground

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
