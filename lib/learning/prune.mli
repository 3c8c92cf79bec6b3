(** Failure-constraint store: blocked coverage verdicts generalized into
    reusable pruning constraints.

    A [Blocked i] verdict for clause [C] on example [e] depends only on the
    prefix [head ← L_1, …, L_i] of [C] (the frontier evaluator never looks
    past the literal it dies at, and its truncation subsampling is
    deterministic), so the canonical int-coded key prefix through the
    blocking literal — the {e failure signature} — predicts the exact same
    verdict for every clause that starts with it. A probe hit therefore
    replaces a frontier evaluation with a trie walk without changing any
    answer: pruning is bit-identity-preserving at fixed seed, exactly like
    the coverage memo.

    The store is lock-striped by example hash and safe to share across pool
    workers, sequential-covering iterations and CV folds. Constraints are
    monotone facts for a fixed (seed, frontier-cap) context, learned from
    the search's own failures: checkpoints do not carry them, and a resumed
    run re-derives them as it searches. *)

type t

val create : unit -> t

(** [probe t ~example ~key] — [Some i] when a stored failure signature
    prefixes [key] (canonical key from {!Logic.Compiled.key}): the clause
    is [Blocked i] on [example] without evaluating. Every probe bumps the
    process-wide [prune.probes] metric, every hit [prune.hits]. *)
val probe :
  t -> example:Relational.Relation.tuple -> key:int array -> int option

(** [learn t ~example ~key ~blocked] stores the failure signature of a
    [Blocked blocked] verdict for the clause with canonical key [key].
    [true] iff a new constraint was stored ([false]: already known,
    subsumed by a shorter signature, or capacity-capped). *)
val learn :
  t -> example:Relational.Relation.tuple -> key:int array -> blocked:int -> bool
