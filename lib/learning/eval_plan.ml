(** Compiled-evaluation state for a coverage context: the symbol table, a
    plan cache, and per-worker scratch arenas.

    The learner re-tests the {e same physical clause} against many examples
    (beam scoring, acceptance counting, reduction), so plans are cached by
    physical identity — a hit costs one bounded structural hash and a
    pointer comparison, never a clause traversal. Compilation is pure up to
    interning, so the cache is transparently evictable: when full it is
    simply cleared (clauses from finished beam rounds never come back).

    Scratch arenas are per-domain via [Domain.DLS]: pool workers evaluate
    concurrently, and sharing one arena would race; domain-local arenas
    keep the pool path allocation-free and lock-free. One key serves every
    context: a DLS slot is never freed, so a key per context would keep
    each context's arena reachable from every domain that evaluated on it.
    Sharing is safe because an arena re-sizes per plan and no domain runs
    two sweeps at once. *)

let m_compile = Obs.Metrics.histogram "coverage.compile_s"
let m_compiled = Obs.Metrics.counter "coverage.plans_compiled"

(* Physical identity keys: [Hashtbl.hash] is structural but bounded (it
   visits a limited number of nodes), so hashing a clause is O(1); equality
   is pointer equality, so distinct-but-equal clauses simply occupy
   distinct entries. *)
module Clause_tbl = Hashtbl.Make (struct
  type t = Logic.Clause.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let plan_cache_cap = 4096

type t = {
  symtab : Logic.Compiled.Symtab.t;
  plans : Logic.Compiled.plan Clause_tbl.t;
  lock : Mutex.t;  (** guards [plans] *)
}

let scratch = Domain.DLS.new_key Logic.Compiled.make_scratch

let create () =
  {
    symtab = Logic.Compiled.Symtab.create ();
    plans = Clause_tbl.create 256;
    lock = Mutex.create ();
  }

let symtab t = t.symtab

(** [plan_for t clause] — the compiled plan for [clause], compiling and
    caching on first sight of this physical clause. *)
let plan_for t clause =
  Mutex.lock t.lock;
  match Clause_tbl.find_opt t.plans clause with
  | Some p ->
      Mutex.unlock t.lock;
      p
  | None ->
      Mutex.unlock t.lock;
      let p =
        Obs.Metrics.time m_compile (fun () ->
            Obs.Metrics.bump m_compiled;
            Logic.Compiled.compile t.symtab clause)
      in
      Mutex.lock t.lock;
      (* Racing duplicate compiles insert interchangeable plans; keep the
         first so concurrent callers converge on one physical plan. *)
      let p =
        match Clause_tbl.find_opt t.plans clause with
        | Some p' -> p'
        | None ->
            if Clause_tbl.length t.plans >= plan_cache_cap then
              Clause_tbl.reset t.plans;
            Clause_tbl.add t.plans clause p;
            p
      in
      Mutex.unlock t.lock;
      p

(** [key t clause] — the canonical int-id memo key of [clause]. *)
let key t clause = Logic.Compiled.key (plan_for t clause)

(** [eval ?budget t plan g] — compiled evaluation of [plan] against
    compiled ground [g] ([Blocked 0] when the head cannot bind [g]'s
    example). Takes the plan, not the clause, so a caller that already
    looked it up pays no second cache probe. *)
let eval ?budget t plan g =
  Logic.Compiled.eval ?budget (Domain.DLS.get scratch) t.symtab plan g

(** [generalize t clause g] — ARMG's kept-literal mask for [clause] on
    [g]. *)
let generalize t clause g =
  Logic.Compiled.generalize (Domain.DLS.get scratch) t.symtab
    (plan_for t clause) g
