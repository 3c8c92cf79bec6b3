(** The sequential-covering learner (Algorithm 1) with beam-search
    generalization over ARMG (Section 2.3.2).

    [learn_clause] builds the bottom clause of a seed positive example, then
    runs a beam search: each step generalizes every beam clause against a
    random subset of the still-uncovered positive examples with ARMG, scores
    candidates by (positives covered − negatives covered), and keeps the best
    [beam_width]. Candidate scoring runs against bounded random subsamples of
    the training examples ([eval_positives]/[eval_negatives]) — coverage
    testing is the dominant cost (Section 5) and ranking only needs relative
    scores; the {e accept/reject} decision for a finished clause always uses
    the full training set. Scoring is {e incremental}: ARMG and literal
    removal only generalize, so each candidate inherits its parent's
    verified-covered examples and retests only the rest (monotone
    propagation), while {!Coverage} memoizes verdicts across candidates
    that repeat a (clause, example) pair. The winning clause then goes through
    negative-based reduction (as in Golem/Castor): body literals whose
    removal does not let any more training negatives in are dropped, which
    strips the always-satisfiable by-catch a bottom clause carries.

    [learn] wraps this in the covering loop: accepted clauses must meet the
    minimum criterion (enough positives, high-enough training precision);
    their covered positives are removed; seeds whose best clause fails the
    criterion are set aside so learning always progresses.

    The whole run is governed by a {!Budget.t}: the coverage context's
    budget (see {!Coverage.scope}) scoped to [timeout], checked at item
    granularity (one candidate evaluation, one reduction step, one covering
    iteration). On expiry the search {e winds down} instead of aborting —
    in-flight coverage tests finish, skipped candidates are counted, and
    the definition accumulated so far comes back tagged with a structured
    {!Budget.degradation} record saying why the run ended
    (completed / deadline_hit / cancelled) and exactly what was cut; a
    status other than [Completed] is the paper's ">10h" row. *)

type config = {
  bc : Bottom_clause.config;  (** bottom-clause depth/sample/strategy *)
  beam_width : int;
  generalization_sample : int;
      (** positives sampled per beam step to drive ARMG (the paper's E+_S) *)
  max_beam_steps : int;
  eval_positives : int;  (** positives subsampled for candidate ranking *)
  eval_negatives : int;  (** negatives subsampled for candidate ranking *)
  min_positives : int;  (** minimum criterion: positives a clause must cover *)
  min_precision : float;  (** minimum criterion: training precision *)
  max_clauses : int;
  clause_timeout : float option;
      (** seconds for one seed's beam search, a {!Budget.scope} of the
          run's budget: a beam it cuts counts as [Budget.Beam_cut], its best
          clause is still reduced and judged, and the run goes on *)
  max_consecutive_skips : int;
      (** once at least one clause has been accepted, stop after this many
          seeds in a row yield no further acceptable clause — the remaining
          uncovered positives are almost surely label noise. Before the
          first acceptance every seed is tried (the timeout still bounds
          the run). *)
  timeout : float option;  (** seconds for the whole run ({!Coverage.scope}) *)
  pool : Parallel.Pool.t option;
      (** domain pool for ARMG candidate generation, candidate evaluation,
          acceptance counting and ground-BC warming; [None] runs the
          sequential code path. Results are identical for every pool size
          (ARMG and coverage are deterministic per example, and candidates
          are deduplicated in list order on the caller), so the pool only
          changes wall-clock time. *)
  checkpoint : (Resilience.Checkpoint.t -> [ `Written | `Skipped ]) option;
      (** sink invoked at every clause boundary with a complete snapshot of
          learner progress, its fingerprint left for the writer to stamp.
          The sink must not perturb learner state — [learn] hands it copies.
          A raising sink is absorbed as [`Skipped]; outcomes are tallied as
          [Budget.Checkpoint_written] / [Checkpoint_skipped]. *)
  resume : Resilience.Checkpoint.t option;
      (** continue a prior run from its snapshot: the learner restores the
          accepted clauses, the surviving uncovered positives (as indices
          into [positives], which must be the same list in the same order),
          the RNG and the progress counters, then proceeds exactly as the
          uninterrupted run would — bit-identical definitions at the same
          seed. *)
}

let default_config =
  {
    bc = Bottom_clause.default_config;
    beam_width = 3;
    generalization_sample = 8;
    max_beam_steps = 8;
    eval_positives = 20;
    eval_negatives = 30;
    min_positives = 2;
    min_precision = 0.7;
    max_clauses = 20;
    clause_timeout = Some 10.;
    max_consecutive_skips = 8;
    timeout = Some 600.;
    pool = None;
    checkpoint = None;
    resume = None;
  }

type stats = {
  clauses : int;
  candidates_evaluated : int;
  seeds_skipped : int;
}

type result = {
  definition : Logic.Clause.definition;
  stats : stats;
  degradation : Budget.degradation;
      (** why the run ended and what was cut getting there *)
}

type scored = {
  clause : Logic.Clause.t;
  pos_covered : int;  (** on the positive ranking sample *)
  neg_covered : int;  (** on the negative ranking sample *)
  score : float;
      (** rate-corrected (Horvitz–Thompson) estimate of the full-training
          (positives − negatives) count: subsampling positives and negatives
          at different rates would otherwise bias ranking toward clauses
          that sneak past the thin negative sample *)
  pos_cov : bool array;
      (** verified coverage over the positive ranking sample, by index;
          [false] means not covered {e or} not tested (staged scoring may
          return early) — only [true] entries are inherited *)
  neg_cov : bool array;
      (** verified coverage over the negative ranking sample; [false] again
          conflates "tested uncovered" with "untested" (the early abort
          leaves a suffix untested), which is the conservative direction *)
}

(* Beam dedup keys: a clause's compiled plan, equal when the canonical keys
   are — injective exactly where [Clause.to_string] is, without printing —
   and hashed over the whole key ([Hashtbl.hash] reads only its first ten
   ints, which every clause of one ARMG lineage shares). *)
module Plan_tbl = Hashtbl.Make (struct
  type t = Logic.Compiled.plan

  let equal a b = Logic.Compiled.key a = Logic.Compiled.key b
  let hash = Logic.Compiled.key_hash
end)

(* Search-funnel classification of one scored candidate: how was its
   verdict settled? Exactly one class per resolved candidate, so the
   per-step funnel invariant
   [generated = prune_hit + memo_hit + inherited + evaluated] holds by
   construction. The classes are mutually exclusive by precedence: a
   prune-store shortcut wins (no coverage call at all), then "every example
   inherited from the ARMG parent", then "every coverage call served by the
   verdict memo", and anything that cost at least one real subsumption
   evaluation counts as evaluated. *)
type funnel_class = F_pruned | F_inherited | F_memo | F_evaluated

(* Observability handles (module-init registration; see lib/obs). Candidate
   and acceptance totals overlap with the per-run [stats] record on purpose:
   these aggregate across every learn call in the process, which is what a
   metrics snapshot wants. *)
let m_candidates = Obs.Metrics.counter "learn.candidates_evaluated"
let m_clauses = Obs.Metrics.counter "learn.clauses_accepted"
let m_clause_search = Obs.Metrics.histogram "learn.clause_search_s"

let sample_list = Logic.Util.sample

(* Beam ordering: higher score first, smaller clause on ties — a tie that
   shrinks the clause is progress. *)
let better a b =
  a.score > b.score
  || (a.score = b.score && Logic.Clause.size a.clause < Logic.Clause.size b.clause)

(* Inclusion rate of a subsample; 1. when nothing was dropped. *)
let rate sample full =
  let s = List.length sample and f = List.length full in
  if f = 0 then 1. else float_of_int s /. float_of_int f

let take = Logic.Util.take

(* Score-based reduction (in the spirit of Golem's negative-based
   reduction): drop a body literal when the clause's sampled, rate-corrected
   score (positives − negatives covered) does not decrease. Removal only
   generalizes, so every example the current clause is known to cover is
   covered by every candidate too — each reduction step inherits the current
   covered sets and retests only the examples not yet known covered, instead
   of rescoring both full samples per candidate. Takes and returns a
   {!scored}: the result carries {e complete} covered sets (no staged
   early-outs here), so the caller needs no re-evaluation pass. *)
let reduce ~cov ~budget ~pos_weight ~neg_weight ~eval_pos ~eval_neg best =
  Budget.set_phase budget "reduce";
  Obs.Trace.span ~cat:"learn" "reduce" @@ fun () ->
  Obs.Trace.arg "body_lits_in" (string_of_int (Logic.Clause.size best.clause));
  (* Full evaluation of [clause], inheriting the verified-covered entries of
     the generalization parent. *)
  let eval_full ~parent_pos ~parent_neg clause =
    let inherited = ref 0 in
    let count parent examples =
      let cov_arr = Array.make (Array.length examples) false in
      let c = ref 0 in
      Array.iteri
        (fun i e ->
          let covered =
            if parent.(i) then begin
              incr inherited;
              true
            end
            else Coverage.covers cov clause e
          in
          if covered then begin
            cov_arr.(i) <- true;
            incr c
          end)
        examples;
      (!c, cov_arr)
    in
    let p, pos_cov = count parent_pos eval_pos in
    let n, neg_cov = count parent_neg eval_neg in
    Budget.add budget Budget.Coverage_inherited !inherited;
    {
      clause;
      pos_covered = p;
      neg_covered = n;
      score =
        (pos_weight *. float_of_int p) -. (neg_weight *. float_of_int n);
      pos_cov;
      neg_cov;
    }
  in
  (* Re-score the winner on the full samples first: its staged score may
     have aborted negative counting early, and a truncated baseline would
     let reduction accept removals that only look score-preserving. *)
  let current =
    ref (eval_full ~parent_pos:best.pos_cov ~parent_neg:best.neg_cov
           best.clause)
  in
  let head = Logic.Clause.head best.clause in
  (* One backward pass over the original literals (by-catch accumulates
     toward the end of a bottom clause). Pruning may remove further literals
     that lost their head connection — those are skipped when their turn
     comes. *)
  List.iter
    (fun lit ->
      (* Expiry mid-reduction keeps whatever is already pruned: removal only
         generalizes, so the partially reduced clause is still valid. *)
      let body = Logic.Clause.body !current.clause in
      if List.memq lit body && not (Budget.expired budget) then begin
        let candidate_body = List.filter (fun l -> not (l == lit)) body in
        let candidate =
          eval_full ~parent_pos:!current.pos_cov ~parent_neg:!current.neg_cov
            (Logic.Clause.prune_head_connected
               (Logic.Clause.make head candidate_body))
        in
        if candidate.score >= !current.score then current := candidate
      end)
    (List.rev (Logic.Clause.body best.clause));
  Obs.Trace.arg "body_lits_out"
    (string_of_int (Logic.Clause.size !current.clause));
  !current

let learn_clause ~config ~cov ~rng ~budget ~candidates_evaluated ~uncovered
    ~negatives ~seed =
  (* Fixed ranking subsamples for this clause search: relative scores stay
     comparable across candidates. The seed always participates. *)
  let eval_pos =
    seed :: sample_list rng config.eval_positives (List.filter (fun e -> e != seed) uncovered)
    |> take config.eval_positives
  in
  let eval_neg = sample_list rng config.eval_negatives negatives in
  let pos_weight = 1. /. rate eval_pos uncovered in
  let neg_weight = 1. /. rate eval_neg negatives in
  let eval_pos_arr = Array.of_list eval_pos in
  let eval_neg_arr = Array.of_list eval_neg in
  let n_pos = Array.length eval_pos_arr in
  let n_neg = Array.length eval_neg_arr in
  let n_probe = min 6 n_pos in
  (* Staged scoring. Stage 1: a handful of positives — candidates that are
     still too specific to cover even two of them need no further testing
     (their score cannot enter the beam's top on merit; they survive only
     through the smaller-is-better tie-break, which is exactly what lets
     them keep shrinking). Stage 2: the full ranking samples; negative
     counting aborts once the score cannot stay positive.

     Monotone propagation: ARMG children and reduction candidates only
     generalize their [parent], so every example the parent verifiably
     covers is covered by the child — those entries are {e inherited}
     (counted as [Coverage_inherited]) and only the remaining examples are
     actually retested. Inheritance is independent of the verdict memo, so
     it is on in both cache modes and never changes a verdict. *)
  let evaluate ?parent clause =
    Atomic.incr candidates_evaluated;
    Obs.Metrics.bump m_candidates;
    Obs.Trace.span ~cat:"learn" "evaluate_candidate" @@ fun () ->
    if Obs.Trace.enabled () then
      Obs.Trace.arg "body_lits" (string_of_int (Logic.Clause.size clause));
    let pos_cov = Array.make n_pos false in
    let neg_cov = Array.make n_neg false in
    let inherited = ref 0 in
    (* Funnel bookkeeping: coverage calls made for this candidate, and how
       many the verdict memo served. Local refs — [evaluate] runs whole on
       one domain, so no coordination, and recording happens later on the
       coordinator. *)
    let calls = ref 0 in
    let memo_calls = ref 0 in
    let covers_counted clause e =
      incr calls;
      let covered, from_memo = Coverage.covers_src cov clause e in
      if from_memo then incr memo_calls;
      covered
    in
    let finish ?(pruned = false) s =
      Budget.add budget Budget.Coverage_inherited !inherited;
      let cls =
        if pruned then F_pruned
        else if !calls = 0 then F_inherited
        else if !memo_calls = !calls then F_memo
        else F_evaluated
      in
      (s, cls)
    in
    let count_pos lo hi =
      let c = ref 0 in
      for i = lo to hi - 1 do
        let covered =
          match parent with
          | Some p when p.pos_cov.(i) ->
              incr inherited;
              true
          | _ -> covers_counted clause eval_pos_arr.(i)
        in
        if covered then begin
          pos_cov.(i) <- true;
          incr c
        end
      done;
      !c
    in
    (* Failure-constraint short-circuit: when every probe positive the
       parent does not already cover is known-blocked by the prune store,
       and inheritance alone cannot reach the stage-1 bar, the staged
       early-exit record below is fully determined — synthesize it without
       spending a single coverage test on this candidate. A store hit is
       the exact verdict evaluation would return, so the record (and hence
       the beam) is bit-identical to the unpruned run. *)
    let prune_shortcut () =
      if not (Coverage.pruning_enabled cov) then None
      else begin
        let inh = ref 0 and all_blocked = ref true in
        for i = 0 to n_probe - 1 do
          match parent with
          | Some p when p.pos_cov.(i) -> incr inh
          | _ ->
              if
                !all_blocked
                && Coverage.probe_pruned cov clause eval_pos_arr.(i) = None
              then all_blocked := false
        done;
        if !all_blocked && !inh < 2 then Some !inh else None
      end
    in
    match prune_shortcut () with
    | Some p_probe ->
        Budget.hit budget Budget.Candidate_pruned;
        for i = 0 to n_probe - 1 do
          match parent with
          | Some p when p.pos_cov.(i) ->
              pos_cov.(i) <- true;
              incr inherited
          | _ -> ()
        done;
        finish ~pruned:true
          { clause; pos_covered = p_probe; neg_covered = 0;
            score = pos_weight *. float_of_int p_probe; pos_cov; neg_cov }
    | None ->
    let p_probe = count_pos 0 n_probe in
    if p_probe < 2 then
      finish
        { clause; pos_covered = p_probe; neg_covered = 0;
          score = pos_weight *. float_of_int p_probe; pos_cov; neg_cov }
    else begin
      let pos_covered = p_probe + count_pos n_probe n_pos in
      (* abort negative counting once the weighted score goes negative *)
      let weighted_pos = pos_weight *. float_of_int pos_covered in
      let neg_covered = ref 0 in
      (try
         for i = 0 to n_neg - 1 do
           let covered =
             match parent with
             | Some p when p.neg_cov.(i) ->
                 incr inherited;
                 true
             | _ -> covers_counted clause eval_neg_arr.(i)
           in
           if covered then begin
             neg_cov.(i) <- true;
             incr neg_covered;
             if neg_weight *. float_of_int !neg_covered > weighted_pos then
               raise Exit
           end
         done
       with Exit -> ());
      let neg_covered = !neg_covered in
      finish
        {
          clause;
          pos_covered;
          neg_covered;
          score = weighted_pos -. (neg_weight *. float_of_int neg_covered);
          pos_cov;
          neg_cov;
        }
    end
  in
  Budget.set_phase budget "bottom_clause";
  let bottom =
    Bottom_clause.build ~config:config.bc (Coverage.database cov)
      (Coverage.bias cov) ~rng ~example:seed
  in
  (* The raw bottom clause is maximally specific: by construction it covers
     (about) its own seed and nothing else; a full evaluation of a clause
     with hundreds of literals would only burn the subsumption budget. *)
  (* Nothing is verified about the bottom clause yet, so its covered sets
     start all-false: children inherit nothing and verify from scratch. *)
  let beam =
    ref
      [ { clause = bottom; pos_covered = 1; neg_covered = 0;
          score = pos_weight; pos_cov = Array.make n_pos false;
          neg_cov = Array.make n_neg false } ]
  in
  let best = ref (List.hd !beam) in
  let continue = ref true in
  let steps = ref 0 in
  (* The per-clause limit bounds only the beam loop: a beam it cuts still
     has its best clause evaluated, reduced and judged below, which all
     answer to the run's [budget]. *)
  let clause_budget = Budget.scope ?deadline:config.clause_timeout budget in
  while
    !continue && !steps < config.max_beam_steps
    && not (Budget.expired clause_budget)
  do
    incr steps;
    Budget.set_phase budget (Printf.sprintf "beam_step %d" !steps);
    Obs.Trace.span ~cat:"learn" "beam_step" @@ fun () ->
    Obs.Trace.arg "step" (string_of_int !steps);
    let targets = sample_list rng config.generalization_sample uncovered in
    let plan_of = Eval_plan.plan_for (Coverage.plans cov) in
    let seen = Plan_tbl.create 16 in
    List.iter (fun s -> Plan_tbl.replace seen (plan_of s.clause) ()) !beam;
    let collected = ref [] in
    (* Pair the targets and chain ARMG through both (as in ProGolem's
       iterated armg): every candidate costs a scoring round, so fewer,
       more-general candidates beat many one-step ones — especially when
       the bias floods bottom clauses with generic by-catch. *)
    let rec pairs = function
      | a :: b :: tl -> (a, Some b) :: pairs tl
      | [ a ] -> [ (a, None) ]
      | [] -> []
    in
    (* Candidate generation: ARMG chaining is the beam step's largest cost,
       and each (beam entry, target pair) chain is an RNG-free sweep that
       depends on no other, so the chains run through [parallel_map]. The
       dedup walk stays on the coordinator in list order, so the candidate
       list is the same for every pool size. *)
    let work =
      List.concat_map
        (fun entry -> List.map (fun pair -> (entry, pair)) (pairs targets))
        !beam
    in
    let chained =
      Parallel.Par.parallel_map ?pool:config.pool
        (fun (entry, (ea, eb)) ->
          match Armg.generalize cov entry.clause ~example:ea with
          | None -> None
          | Some c -> (
              match eb with
              | None -> Some c
              | Some eb -> (
                  match Armg.generalize cov c ~example:eb with
                  | None -> Some c
                  | Some c2 -> Some c2)))
        work
    in
    List.iter2
      (fun (entry, _) -> function
        | None -> ()
        | Some clause ->
            let key = plan_of clause in
            if not (Plan_tbl.mem seen key) then begin
              Plan_tbl.replace seen key ();
              (* keep the ARMG parent: the child inherits its verified
                 covered sets during evaluation *)
              collected := (clause, entry) :: !collected
            end)
      work chained;
    (* Anytime evaluation: on expiry mid-round, candidates already being
       scored finish (one-job granularity) and the rest come back [None] —
       counted as abandoned, never half-scored. With a live budget this is
       exactly the old [parallel_map], so generous-deadline runs are
       bit-identical to pre-governance ones. *)
    let outcomes =
      Parallel.Par.parallel_map_anytime ?pool:config.pool ~budget
        (fun (clause, parent) -> evaluate ~parent clause)
        (List.rev !collected)
    in
    let resolved = List.filter_map Fun.id outcomes in
    let candidates = List.rev (List.map fst resolved) in
    Obs.Trace.arg "candidates" (string_of_int (List.length candidates));
    Budget.add budget Budget.Candidate_abandoned
      (List.length outcomes - List.length candidates);
    let merged = candidates @ !beam in
    let sorted = List.sort (fun a b -> if better a b then -1 else 1) merged in
    let min_size_before =
      List.fold_left (fun acc s -> min acc (Logic.Clause.size s.clause)) max_int !beam
    in
    beam := take config.beam_width sorted;
    (* Funnel accounting, folded here on the coordinator from the class tag
       each evaluation carried back — no shared state in the scoring hot
       path. [generated] counts only resolved outcomes (abandoned
       candidates have no class), so the per-step invariant
       [generated = prune_hit + memo_hit + inherited + evaluated] holds
       unconditionally; [accepted] is how many of this step's candidates
       made the new beam. *)
    let n_class want =
      List.fold_left
        (fun acc (_, c) -> if c = want then acc + 1 else acc)
        0 resolved
    in
    Obs.Funnel.record ~step:!steps
      ~generated:(List.length resolved)
      ~prune_hit:(n_class F_pruned) ~memo_hit:(n_class F_memo)
      ~inherited:(n_class F_inherited) ~evaluated:(n_class F_evaluated)
      ~accepted:
        (List.fold_left
           (fun acc s -> if List.memq s !beam then acc + 1 else acc)
           0 candidates);
    let new_best = List.hd !beam in
    let score_improved = better new_best !best in
    if score_improved then best := new_best;
    (* Keep iterating while the search still makes progress of either kind:
       a better score, or a strictly smaller clause in the beam — ARMG
       chains shrink clauses toward generality for several steps before
       coverage (and hence the score) moves, and stopping at the first score
       plateau strands over-specific clauses. When both stall (or no fresh
       candidates appeared), the seed has converged. *)
    let min_size_after =
      List.fold_left (fun acc s -> min acc (Logic.Clause.size s.clause)) max_int !beam
    in
    (* An expiring budget starves this round of candidates; that is a cut
       beam, not convergence — leave [continue] set so the wind-down below
       attributes the stop to the deadline. *)
    if
      (not (Budget.expired budget))
      && (candidates = []
         || ((not score_improved) && min_size_after >= min_size_before))
    then continue := false
  done;
  (* A beam that still wanted to iterate but lost its clock (global budget
     or per-clause timeout) was cut short of convergence; the counter is
     what distinguishes "this seed converged" from "we ran out of time". *)
  if
    !continue && !steps < config.max_beam_steps
    && Budget.expired clause_budget
  then Budget.hit budget Budget.Beam_cut;
  (* If the raw bottom clause survived as the winner, give it a real
     evaluation: its placeholder score assumed it covers only its seed, but
     on small example sets a bottom clause can legitimately cover several
     positives. Failing evaluations die on the first blocked literal, so
     this is cheap for genuinely hopeless seeds. *)
  if !best.clause == bottom && not (Budget.expired budget) then
    best := fst (evaluate bottom);
  (* Reduce the winner; {!reduce} re-scores it fully on the ranking samples
     (inheriting the verified entries accumulated so far), so callers see
     consistent numbers; acceptance re-checks on the full sets anyway.
     Winners that already fail the minimum criterion on the ranking sample
     (rate-corrected, so the thin negative sample does not flatter them)
     are returned as-is — they will be rejected, reduction would be wasted
     work. *)
  let sample_precision s =
    let wp = pos_weight *. float_of_int s.pos_covered in
    let wn = neg_weight *. float_of_int s.neg_covered in
    if wp +. wn = 0. then 0. else wp /. (wp +. wn)
  in
  let final =
    if
      Budget.expired budget
      || !best.pos_covered < config.min_positives
      || sample_precision !best < config.min_precision
    then !best
    else
      reduce ~cov ~budget ~pos_weight ~neg_weight ~eval_pos:eval_pos_arr
        ~eval_neg:eval_neg_arr !best
  in
  (final, sample_precision final)

(* Map the surviving [uncovered] sublist to indices into the original
   [positives]. The covering loop only ever [List.filter]s the list, so it
   is an order- and identity-preserving subsequence — one lockstep walk
   with physical equality recovers the positions. *)
let indices_of ~positives l =
  let rec go i ps ls acc =
    match (ps, ls) with
    | _, [] -> List.rev acc
    | p :: ptl, x :: ltl when p == x -> go (i + 1) ptl ltl (i :: acc)
    | _ :: ptl, _ -> go (i + 1) ptl ls acc
    | [], _ :: _ ->
        invalid_arg "Learn.indices_of: uncovered is not a sublist of positives"
  in
  go 0 positives l []

let restore_uncovered ~positives idxs =
  let keep = Hashtbl.create (List.length idxs) in
  List.iter (fun i -> Hashtbl.replace keep i ()) idxs;
  List.filteri (fun i _ -> Hashtbl.mem keep i) positives

let meets_criterion ~config ~pos_covered ~neg_covered =
  pos_covered >= config.min_positives
  &&
  let covered = pos_covered + neg_covered in
  covered > 0
  && float_of_int pos_covered /. float_of_int covered >= config.min_precision

(** [learn ?config cov ~rng ~positives ~negatives] runs Algorithm 1 and
    returns the learned Horn definition with run statistics and the
    degradation record saying why the run ended. *)
let learn ?(config = default_config) cov ~rng ~positives ~negatives =
  (* Always scope a per-call child: [config.timeout] bounds this call even
     when the context's budget is shared across many (e.g. CV folds), while
     cancellation and counters stay aggregated on the shared cells. *)
  let budget, cov = Coverage.scope cov ~timeout:config.timeout in
  let faults_before, restarts_before, quarantined_before =
    match config.pool with
    | Some p ->
        let s = Parallel.Pool.stats p in
        (s.dropped, s.restarts, s.quarantined)
    | None -> (0, 0, 0)
  in
  (* Resume: re-anchor every piece of loop state from the snapshot. The RNG
     is the checkpoint's (copied — the caller's snapshot stays reusable), so
     from the first post-resume draw the run replays the uninterrupted
     continuation exactly. *)
  let rng =
    match config.resume with
    | Some ck -> Random.State.copy ck.Resilience.Checkpoint.rng
    | None -> rng
  in
  let candidates_evaluated = Atomic.make 0 in
  let definition = ref [] in
  let seeds_skipped = ref 0 in
  let uncovered = ref positives in
  let consecutive_skips = ref 0 in
  let boundary = ref 0 in
  (match config.resume with
  | None -> ()
  | Some ck ->
      (* [definition] is kept newest-first in the loop; checkpoints store it
         oldest-first (the user-facing order). *)
      definition := List.rev ck.Resilience.Checkpoint.definition;
      uncovered :=
        restore_uncovered ~positives ck.Resilience.Checkpoint.uncovered;
      seeds_skipped := ck.Resilience.Checkpoint.seeds_skipped;
      consecutive_skips := ck.Resilience.Checkpoint.consecutive_skips;
      Atomic.set candidates_evaluated
        ck.Resilience.Checkpoint.candidates_evaluated;
      boundary := ck.Resilience.Checkpoint.boundary;
      (* Credit the prior run's degradation counters so the resumed run's
         report covers the whole logical run, not just the tail. *)
      Budget.add_assoc budget ck.Resilience.Checkpoint.counters);
  let emit_checkpoint () =
    match config.checkpoint with
    | Some sink ->
        let ck =
          {
            Resilience.Checkpoint.version = Resilience.Checkpoint.version;
            fingerprint = "";
            boundary = !boundary;
            definition = List.rev !definition;
            uncovered = indices_of ~positives !uncovered;
            seeds_skipped = !seeds_skipped;
            consecutive_skips = !consecutive_skips;
            candidates_evaluated = Atomic.get candidates_evaluated;
            rng = Random.State.copy rng;
            counters = Budget.counters_to_assoc (Budget.counters budget);
          }
        in
        let outcome = try sink ck with _ -> `Skipped in
        Obs.Events.emit
          (match outcome with
          | `Written -> "checkpoint.written"
          | `Skipped -> "checkpoint.skipped")
          ~fields:
            [
              ("boundary", Obs.Json.Int !boundary);
              ("clauses", Obs.Json.Int (List.length !definition));
            ];
        Budget.hit budget
          (match outcome with
          | `Written -> Budget.Checkpoint_written
          | `Skipped -> Budget.Checkpoint_skipped)
    | None -> ()
  in
  (* Why the covering loop exited. Captured at the decision point rather
     than re-derived afterwards: a deadline elapsing a microsecond after
     natural completion must still read [Completed]. *)
  let status = ref Budget.Completed in
  let live () =
    match Budget.status budget with
    | Budget.Completed -> true
    | st ->
        status := st;
        false
  in
  (try
     Obs.Trace.span ~cat:"learn"
       ~args:
         [
           ("positives", string_of_int (List.length positives));
           ("negatives", string_of_int (List.length negatives));
         ]
       "learn"
     @@ fun () ->
     while
       !uncovered <> []
       && List.length !definition < config.max_clauses
       && (!definition = [] || !consecutive_skips < config.max_consecutive_skips)
       && live ()
     do
       match !uncovered with
       | [] -> assert false
       | seed :: _ ->
           let best, sample_precision =
             Obs.Metrics.time m_clause_search (fun () ->
                 Obs.Trace.span ~cat:"learn" "learn_clause" (fun () ->
                     learn_clause ~config ~cov ~rng ~budget
                       ~candidates_evaluated ~uncovered:!uncovered ~negatives
                       ~seed))
           in
           (* Acceptance uses the full training set, not the ranking
              subsample; clauses that already failed on the (rate-corrected)
              sample are rejected without the full pass. *)
           let sample_ok =
             best.pos_covered >= config.min_positives
             && sample_precision >= config.min_precision
             (* a clause whose search was cut mid-flight never gets the
                full-training acceptance pass: the definition built so far
                is returned as-is rather than padded with a half-searched
                clause after the deadline *)
             && not (Budget.expired budget)
           in
           if sample_ok then Budget.set_phase budget "acceptance";
           let pos_covered =
             if sample_ok then
               Coverage.count ?pool:config.pool cov best.clause !uncovered
             else 0
           in
           let neg_covered =
             if sample_ok then
               Coverage.count ?pool:config.pool cov best.clause negatives
             else 0
           in
           if sample_ok && meets_criterion ~config ~pos_covered ~neg_covered
           then begin
             Logs.debug (fun m ->
                 m "accepted clause (p=%d n=%d): %s" pos_covered neg_covered
                   (Logic.Clause.to_string best.clause));
             consecutive_skips := 0;
             Obs.Metrics.bump m_clauses;
             Obs.Events.emit "clause.accepted"
               ~fields:
                 [
                   ("clause", Obs.Json.Str (Logic.Clause.to_string best.clause));
                   ("pos_covered", Obs.Json.Int pos_covered);
                   ("neg_covered", Obs.Json.Int neg_covered);
                   ("body_lits", Obs.Json.Int (Logic.Clause.size best.clause));
                 ];
             definition := best.clause :: !definition;
             uncovered :=
               Parallel.Par.parallel_filter ?pool:config.pool
                 (fun e -> not (Coverage.covers cov best.clause e))
                 !uncovered;
             (* The seed itself may evade its own clause after
                generalization; drop it to guarantee progress. *)
             uncovered := List.filter (fun e -> e != seed) !uncovered
           end
           else begin
             Logs.debug (fun m ->
                 m "seed yielded no acceptable clause (best p=%d n=%d, %d lits)"
                   best.pos_covered best.neg_covered
                   (Logic.Clause.size best.clause));
             incr seeds_skipped;
             incr consecutive_skips;
             uncovered := List.filter (fun e -> e != seed) !uncovered
           end;
           (* Clause boundary: one covering iteration (accept or skip) has
              fully committed its state transition — exactly the points a
              resumed run can re-enter bit-identically. *)
           incr boundary;
           emit_checkpoint ()
     done
   with Budget.Expired st ->
     (* nothing in this module raises it, but budget-aware callees may;
        treat it as the cooperative stop it is *)
     status := st);
  (match config.pool with
  | Some p ->
      let s = Parallel.Pool.stats p in
      Budget.add budget Budget.Worker_fault (s.dropped - faults_before);
      Budget.add budget Budget.Worker_restarted (s.restarts - restarts_before);
      Budget.add budget Budget.Job_quarantined
        (s.quarantined - quarantined_before)
  | None -> ());
  Budget.set_phase budget "done";
  let degradation = Budget.degradation ~status:!status budget in
  {
    definition = List.rev !definition;
    stats =
      {
        clauses = List.length !definition;
        candidates_evaluated = Atomic.get candidates_evaluated;
        seeds_skipped = !seeds_skipped;
      };
    degradation;
  }
