(** Coverage testing via θ-subsumption against ground bottom clauses
    (Section 5).

    A clause [C] covers example [e] iff, after binding [C]'s head variables
    to [e]'s constants, the body of [C] θ-subsumes the ground bottom clause
    of [e]. Ground BCs are built once per example — with the same sampling
    strategy used for bottom clauses, as the paper prescribes — and cached
    here for the many coverage tests generalization performs.

    The context is shared across domains by the parallel learner, so the
    cache is read-mostly behind a mutex: lookups and inserts hold the lock
    only for the table operation itself, while the expensive RNG-driven BC
    construction runs outside it (a racing duplicate build keeps the first
    inserted result). Construction draws from a {e per-example}
    [Random.State] derived from the master seed captured at {!create}, so a
    ground BC is a pure function of (master seed, example) — identical no
    matter which domain builds it, in what order, or whether a pool is used
    at all. That per-example derivation is what makes the learner's
    sequential and 1-domain-pool runs produce identical definitions. *)

module Value = Relational.Value

(* Observability handles, registered once at module init. The histogram
   times real (uncached) subsumption evaluations, so its count is the
   process's subsumption tries; per run, tries, memo traffic and
   inheritance are Budget counters, and batch spans show the memo's as
   args. *)
let m_eval = Obs.Metrics.histogram "coverage.eval_s"
let m_ground_bcs = Obs.Metrics.counter "coverage.ground_bcs_built"

(* {2 The coverage memo}

   Coverage verdicts are pure: [eval] is a function of (clause, ground BC)
   and the ground BC of an example is a pure function of (master seed,
   example). The memo therefore caches verdicts keyed by (clause key,
   example) — the clause key is the compiled plan's canonical int-id array,
   injective exactly where the printed clause is (ARMG and reduction never
   rename variables) — and a cached verdict is bit-identical to a
   recomputed one, so enabling the cache cannot change any learned
   definition.

   The table is {e lock-striped}: the domain pool hammers it from every
   worker during beam evaluation, and a single mutex would serialize the
   hot path the pool exists to parallelize. Locks are held only for the
   table probe / insert. Misses compute the verdict outside any lock
   (racing duplicates insert the same value). Stripes are capped so a long
   run cannot grow the table without bound: once a stripe is full, new
   verdicts are simply not remembered — which is deterministic, verdicts
   being pure.

   One hash of the whole (clause key, example) pair picks both the stripe
   and the bucket: the plan's full-key hash, computed once at compile time,
   mixed with the example's. The bucket index takes the low bits, so the
   stripe comes from high bits the bucket index never reads. *)

let memo_stripes = 16
let memo_stripe_cap = 1 lsl 14  (** per stripe; ~256k entries in total *)

type memo_key = {
  hash : int;
  key : int array;
  example : Relational.Relation.tuple;
}

module Memo_tbl = Hashtbl.Make (struct
  type t = memo_key

  let equal a b = a.hash = b.hash && a.key = b.key && a.example = b.example

  let hash k = k.hash
end)

type memo = {
  tables : Logic.Compiled.verdict Memo_tbl.t array;
  locks : Mutex.t array;
}

type t = {
  db : Relational.Database.t;
  bias : Bias.Language.t;
  bc_config : Bottom_clause.config;
  seed_base : int;  (** master seed for per-example ground-BC RNGs *)
  grounds : (Relational.Relation.tuple, Logic.Compiled.ground) Hashtbl.t;
  lock : Mutex.t;  (** guards [grounds] *)
  memo : memo option;  (** [None] = caching disabled ([use_cache:false]) *)
  plans : Eval_plan.t;
      (** symbol table and plan cache every ground and clause is compiled
          against *)
  prune : Prune.t option;
      (** failure-constraint store ([None] = [use_pruning:false]); a probe hit
          returns the exact verdict evaluation would compute, so pruning
          never changes results *)
  budget : Budget.t option;
      (** sink for degradation counters (frontier truncations, memo
          hits/misses); never changes any coverage verdict *)
}

let create ?(bc_config = Bottom_clause.default_config) ?budget
    ?(use_cache = true) ?(use_pruning = true) db bias ~rng =
  {
    db;
    bias;
    bc_config;
    seed_base = Random.State.bits rng;
    grounds = Hashtbl.create 256;
    lock = Mutex.create ();
    memo =
      (if use_cache then
         Some
           {
             tables = Array.init memo_stripes (fun _ -> Memo_tbl.create 512);
             locks = Array.init memo_stripes (fun _ -> Mutex.create ());
           }
       else None);
    plans = Eval_plan.create ();
    prune = (if use_pruning then Some (Prune.create ()) else None);
    budget;
  }

let pruning_enabled t = t.prune <> None

(** [with_budget t budget] is [t] reporting into [budget]: a shallow copy
    sharing the ground-BC cache (and its mutex), so concurrent learns — CV
    folds on one scoring context — each get their own counters without
    duplicating cached work. *)
let with_budget t budget = { t with budget = Some budget }

let scope t ~timeout =
  let b =
    match t.budget with
    | Some parent -> Budget.scope ?deadline:timeout parent
    | None -> Budget.create ?deadline:timeout ()
  in
  (b, with_budget t b)

let bias t = t.bias
let database t = t.db

(* A stable structural hash of the example tuple: the per-example RNG must
   not depend on physical identity or insertion order. *)
let example_hash (example : Relational.Relation.tuple) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 example

let example_rng t example =
  Random.State.make [| t.seed_base; example_hash example |]

let memo_hash ~key_hash example =
  Logic.Compiled.hash_key [| key_hash; example_hash example |]

(* Bits 58–61 of a 62-bit hash: a stripe holds at most 2^14 entries, so its
   bucket array never reaches 2^58 and never reads them. *)
let memo_stripe hash = (hash lsr 58) land (memo_stripes - 1)

(** [ground_of t example] is the cached compiled ground bottom clause of
    [example]. *)
let ground_of t example =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.grounds example with
  | Some g ->
      Mutex.unlock t.lock;
      g
  | None ->
      Mutex.unlock t.lock;
      let g =
        Obs.Trace.span ~cat:"coverage" "ground_bc" (fun () ->
            Obs.Metrics.bump m_ground_bcs;
            let clause =
              Bottom_clause.build_ground ~config:t.bc_config t.db t.bias
                ~rng:(example_rng t example) ~example
            in
            Logic.Compiled.compile_ground (Eval_plan.symtab t.plans) ~example
              (Logic.Clause.body clause))
      in
      Mutex.lock t.lock;
      let g =
        match Hashtbl.find_opt t.grounds example with
        | Some g' -> g' (* lost a build race; keep the first insert *)
        | None ->
            Hashtbl.replace t.grounds example g;
            g
      in
      Mutex.unlock t.lock;
      g

let plans t = t.plans

(* Batch entry points run inside a span carrying the batch size and, on a
   context with a budget, the memo traffic the batch generated (hit/miss
   deltas of the budget's counters, which a concurrent learn sharing them
   also moves). Checking [enabled] first keeps the disabled path at one
   atomic load before the real work. *)
let traced_batch t name ~examples f =
  if not (Obs.Trace.enabled ()) then f ()
  else
    Obs.Trace.span ~cat:"coverage"
      ~args:[ ("examples", string_of_int examples) ]
      name
      (fun () ->
        match t.budget with
        | None -> f ()
        | Some b ->
            let c0 = Budget.counters b in
            let r = f () in
            let c1 = Budget.counters b in
            Obs.Trace.arg "memo_hits"
              (string_of_int
                 (c1.Budget.coverage_memo_hits - c0.Budget.coverage_memo_hits));
            Obs.Trace.arg "memo_misses"
              (string_of_int
                 (c1.Budget.coverage_memo_misses
                 - c0.Budget.coverage_memo_misses));
            r)

(** [warm ?pool t examples] precomputes ground BCs for [examples] (the paper
    builds them once, up front), fanning construction out across [pool] when
    given. Per-example RNG derivation makes the result independent of the
    pool size and of scheduling. *)
let warm ?pool t examples =
  traced_batch t "warm" ~examples:(List.length examples) (fun () ->
      Parallel.Par.parallel_iter ?pool (fun e -> ignore (ground_of t e)) examples)

(** [head_subst clause example] binds the head of [clause] to [example]:
    variables map to the example's constants; constant head arguments must
    match. [None] when the head cannot produce the example. *)
let head_subst clause (example : Relational.Relation.tuple) =
  let head = Logic.Clause.head clause in
  let args = Logic.Literal.args head in
  if Array.length args <> Array.length example then None
  else begin
    let rec go i subst =
      if i >= Array.length args then Some subst
      else
        match args.(i) with
        | Logic.Term.Const c ->
            if Value.equal c example.(i) then go (i + 1) subst else None
        | Logic.Term.Var v -> (
            match Logic.Substitution.extend subst v example.(i) with
            | Some subst -> go (i + 1) subst
            | None -> None)
    in
    go 0 Logic.Substitution.empty
  end

(* One real frontier evaluation of [clause], compiled as [plan]. Counts as
   a subsumption try so the Budget counters expose exactly how many tests
   the memo and ARMG inheritance avoided. *)
let eval_uncached t clause plan example =
  Budget.hit_opt t.budget Budget.Subsumption_try;
  Obs.Metrics.time m_eval (fun () ->
      (* The symbolic head check is tiny, and keeping it ahead of
         [ground_of] means a head-blocked example never triggers a
         ground-BC build. *)
      match head_subst clause example with
      | None -> Logic.Compiled.Blocked 0
      | Some _ ->
          Eval_plan.eval ?budget:t.budget t.plans plan (ground_of t example))

(* One verdict, cheapest honest route: probe the failure-constraint store
   first (a trie walk instead of a frontier evaluation — a hit returns the
   exact verdict evaluation would compute), fall back to the real
   evaluator, and turn any fresh blocked verdict into a stored constraint
   for the next candidate that shares the failing prefix. *)
let compute t clause plan example =
  match t.prune with
  | Some ps -> (
      let key = Logic.Compiled.key plan in
      match Prune.probe ps ~example ~key with
      | Some i -> Logic.Compiled.Blocked i
      | None ->
          let v = eval_uncached t clause plan example in
          (match v with
          | Logic.Compiled.Blocked i ->
              if Prune.learn ps ~example ~key ~blocked:i then
                Budget.hit_opt t.budget Budget.Constraint_learned
          | Logic.Compiled.Covered _ -> ());
          v)
  | None -> eval_uncached t clause plan example

(** [probe_pruned t clause example] — the verdict the failure-constraint
    store already knows for [(clause, example)], if any (always a
    [Blocked _]). Probe-only: never evaluates, never stores. *)
let probe_pruned t clause example =
  match t.prune with
  | Some ps -> (
      match Prune.probe ps ~example ~key:(Eval_plan.key t.plans clause) with
      | Some i -> Some (Logic.Compiled.Blocked i)
      | None -> None)
  | None -> None

(** [blocking_key t clause i] — the canonical compiled key segment of the
    literal that [Blocked i] points at (the head for [i = 0]). The same
    segment arithmetic the prune store's failure signatures use. *)
let blocking_key t clause i =
  Logic.Compiled.key_segment (Eval_plan.key t.plans clause) ~index:i

(** [eval_src t clause example] evaluates [clause] against [example] with
    the compiled frontier sweep: [Covered w] with a witness, or
    [Blocked i] with the 1-based index of the blocking body literal — the
    primitive ARMG needs (Section 2.3.2). [Blocked 0] means the head itself
    cannot be bound to the example. Verdicts are served from the memo when
    enabled; a memoized verdict is identical to a recomputed one. The
    second component reports whether the memo served it — the search-funnel
    accounting wants to know, the verdict itself never depends on it. The
    clause's plan is looked up once and serves the memo key, the prune
    probe and the kernel. *)
let eval_src t clause example =
  let plan = Eval_plan.plan_for t.plans clause in
  match t.memo with
  | None -> (compute t clause plan example, false)
  (* "memo" chaos: pretend the cache lost this entry — bypass the probe
     and the insert and recompute. Purity of verdicts means the answer is
     identical, so chaos here degrades throughput, never correctness. *)
  | Some _ when Chaos.fires "memo" -> (compute t clause plan example, false)
  | Some m -> (
      let hash = memo_hash ~key_hash:(Logic.Compiled.key_hash plan) example in
      let key = { hash; key = Logic.Compiled.key plan; example } in
      let s = memo_stripe hash in
      let lock = m.locks.(s) and tbl = m.tables.(s) in
      Mutex.lock lock;
      let cached = Memo_tbl.find_opt tbl key in
      Mutex.unlock lock;
      match cached with
      | Some v ->
          Budget.hit_opt t.budget Budget.Coverage_memo_hit;
          (v, true)
      | None ->
          Budget.hit_opt t.budget Budget.Coverage_memo_miss;
          let v = compute t clause plan example in
          Mutex.lock lock;
          if Memo_tbl.length tbl < memo_stripe_cap && not (Memo_tbl.mem tbl key)
          then Memo_tbl.add tbl key v;
          Mutex.unlock lock;
          (v, false))

let eval t clause example = fst (eval_src t clause example)

(** [covers t clause example] tests whether [clause] covers [example]. *)
let covers t clause example =
  match eval t clause example with
  | Logic.Compiled.Covered _ -> true
  | Logic.Compiled.Blocked _ -> false

(** [covers_src t clause example] — {!covers} plus whether the verdict came
    out of the verdict memo. *)
let covers_src t clause example =
  let v, memo = eval_src t clause example in
  ((match v with
    | Logic.Compiled.Covered _ -> true
    | Logic.Compiled.Blocked _ -> false),
   memo)

(** [count ?pool t clause examples] is how many of [examples] [clause]
    covers, with the per-example tests fanned out across [pool] when
    given. *)
let count ?pool t clause examples =
  traced_batch t "coverage_count" ~examples:(List.length examples) (fun () ->
      Parallel.Par.parallel_filter_count ?pool (covers t clause) examples)

(** [definition_covers t def example] holds iff some clause of [def] covers
    [example] (Horn-definition coverage, Definition 2.4). *)
let definition_covers t def example =
  List.exists (fun c -> covers t c example) def
