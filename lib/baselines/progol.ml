(** A Progol/Aleph-style learner: top-down search {e through the bottom
    clause} (Muggleton's inverse entailment, reference [37] of the paper).

    Aleph's default algorithm — distinct from the FOIL emulation in
    {!Foil} — saturates a seed example into its bottom clause, then searches
    top-down for the best subset of the bottom clause's literals: starting
    from the bare head, it repeatedly adds the head-connected bottom-clause
    literal that maximizes compression

    {v f(C) = p(C) − n(C) − |C| v}

    (positives covered minus negatives covered minus clause length). Because
    candidates are restricted to the bottom clause, the search space is the
    subsumption lattice between the empty clause and ⊥(e) — narrower than
    FOIL's literal schemas, wider than ARMG's example-driven jumps. It is
    included as an extension baseline and for the bench's search-strategy
    ablation. Like {!Learning.Learn}, a run answers to its coverage
    context's budget scoped to [timeout] ({!Learning.Coverage.scope}). *)

type config = {
  bc : Learning.Bottom_clause.config;
  max_body_literals : int;
  max_expansions : int;  (** open-list pops per clause search *)
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;
}

let default_config =
  {
    bc = Learning.Bottom_clause.default_config;
    max_body_literals = 6;
    max_expansions = 300;
    min_positives = 2;
    min_precision = 0.7;
    max_clauses = 20;
    timeout = Some 600.;
  }

(* Literals of [bottom] addable to [clause]: head-connected w.r.t. the
   clause's current variables and not already present. *)
let addable bottom clause =
  let vars = Logic.Clause.vars clause in
  let body = Logic.Clause.body clause in
  List.filter
    (fun lit ->
      (not (List.exists (Logic.Literal.equal lit) body))
      && Logic.Literal.shares_var lit vars)
    (Logic.Clause.body bottom)

let learn_one_clause ~config ~cov ~budget ~rng ~uncovered ~negatives =
  match uncovered with
  | [] -> None
  | seed :: _ ->
      let bottom =
        Learning.Bottom_clause.build ~config:config.bc
          (Learning.Coverage.database cov)
          (Learning.Coverage.bias cov)
          ~rng ~example:seed
      in
      let head = Logic.Clause.head bottom in
      (* Search scores run on bounded subsamples (like {!Learning.Learn});
         the caller re-checks acceptance on the full training set. *)
      let sample = Logic.Util.sample rng in
      let eval_pos = seed :: sample 19 (List.filter (fun e -> e != seed) uncovered) in
      let eval_neg = sample 30 negatives in
      let score clause =
        Budget.check budget;
        let p = Learning.Coverage.count cov clause eval_pos in
        let n = Learning.Coverage.count cov clause eval_neg in
        (p, n)
      in
      (* Best-first search over the subsumption lattice below ⊥(seed), as in
         Aleph: nodes are ordered by the optimistic bound p − |C| (the best
         compression a refinement can reach if it excludes every negative).
         Greedy hill-climbing would stall on plateaus (adding one half of a
         coupled join pair changes no counts); best-first walks through them.
         Scoring is {e lazy}: children are pushed with their parent's p as an
         admissible bound (adding a literal never gains positives) and only
         evaluated when popped, so the open list stays cheap. *)
      let module Node = struct
        type t = {
          clause : Logic.Clause.t;
          scores : (int * int) option;  (** (p, n) once evaluated *)
          parent_p : int;  (** upper bound on p when not yet evaluated *)
        }

        let p_bound node =
          match node.scores with Some (p, _) -> p | None -> node.parent_p

        let bound node = p_bound node - Logic.Clause.size node.clause

        let compression node =
          match node.scores with
          | Some (p, n) -> p - n - Logic.Clause.size node.clause
          | None -> min_int
      end in
      let visited = Hashtbl.create 64 in
      let pop open_list =
        match open_list with
        | [] -> None
        | _ ->
            let best =
              List.fold_left
                (fun acc node ->
                  match acc with
                  | Some b when Node.bound b >= Node.bound node -> acc
                  | _ -> Some node)
                None open_list
            in
            Option.map
              (fun b -> (b, List.filter (fun x -> not (x == b)) open_list))
              best
      in
      let p0 = List.length eval_pos in
      let start =
        { Node.clause = Logic.Clause.make head []; scores = None; parent_p = p0 }
      in
      let best_solution = ref None in
      let better_solution (a : Node.t) =
        match !best_solution with
        | None -> true
        | Some b -> Node.compression a > Node.compression b
      in
      let open_list = ref [ start ] in
      let expansions = ref 0 in
      while !open_list <> [] && !expansions < config.max_expansions do
        incr expansions;
        match pop !open_list with
        | None -> open_list := []
        | Some (node, rest) ->
            open_list := rest;
            let node =
              match node.Node.scores with
              | Some _ -> node
              | None ->
                  let p, n = score node.Node.clause in
                  { node with Node.scores = Some (p, n) }
            in
            let p, n = Option.get node.Node.scores in
            (* A node is an (interim) solution when it meets the precision
               bar on the search sample — insisting on n = 0 would make
               noisy datasets unlearnable. *)
            let precise =
              p > 0
              && float_of_int p /. float_of_int (p + n) >= config.min_precision
            in
            if precise && Logic.Clause.size node.Node.clause > 0
               && better_solution node
            then best_solution := Some node;
            (* Prune: a node whose optimistic bound cannot beat the best
               solution is dead; so are empty nodes and the length limit. *)
            let prune =
              p = 0
              || Logic.Clause.size node.Node.clause >= config.max_body_literals
              ||
              match !best_solution with
              | Some b -> Node.bound node <= Node.compression b
              | None -> false
            in
            if not prune then
              List.iter
                (fun lit ->
                  let clause =
                    Logic.Clause.make head
                      (Logic.Clause.body node.Node.clause @ [ lit ])
                  in
                  let key = Logic.Clause.to_string clause in
                  if not (Hashtbl.mem visited key) then begin
                    Hashtbl.replace visited key ();
                    open_list :=
                      { Node.clause; scores = None; parent_p = p } :: !open_list
                  end)
                (addable bottom node.Node.clause)
      done;
      let result_clause, rp, rn =
        match !best_solution with
        | Some node ->
            let p, n = Option.get node.Node.scores in
            (node.Node.clause, p, n)
        | None -> (Logic.Clause.make head [], p0, List.length eval_neg)
      in
      Some (seed, result_clause, rp, rn)

type result = {
  definition : Logic.Clause.definition;
  degradation : Budget.degradation;
}

(** [learn ?config cov ~rng ~positives ~negatives] runs the covering loop
    with bottom-clause-guided top-down clause search. *)
let learn ?(config = default_config) cov ~rng ~positives ~negatives =
  let budget, cov = Learning.Coverage.scope cov ~timeout:config.timeout in
  let definition = ref [] in
  let uncovered = ref positives in
  let status = ref Budget.Completed in
  (try
     let continue = ref true in
     while !continue && !uncovered <> [] && List.length !definition < config.max_clauses do
       match
         learn_one_clause ~config ~cov ~budget ~rng
           ~uncovered:!uncovered ~negatives
       with
       | None -> continue := false
       | Some (seed, clause, _, _) ->
           (* Acceptance on the full training set, not the search sample. *)
           let p = Learning.Coverage.count cov clause !uncovered in
           let n = Learning.Coverage.count cov clause negatives in
           let precision =
             if p + n = 0 then 0. else float_of_int p /. float_of_int (p + n)
           in
           if
             Logic.Clause.size clause > 0
             && p >= config.min_positives
             && precision >= config.min_precision
           then begin
             definition := clause :: !definition;
             uncovered :=
               List.filter
                 (fun e -> not (Learning.Coverage.covers cov clause e))
                 !uncovered
           end;
           (* Always retire the seed: either its clause was accepted (and
              covers it), or no acceptable clause generalizes it. *)
           uncovered := List.filter (fun e -> e != seed) !uncovered
     done
   with Budget.Expired st -> status := st);
  {
    definition = List.rev !definition;
    degradation = Budget.degradation ~status:!status budget;
  }
