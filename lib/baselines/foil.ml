(** A FOIL-style top-down learner — the reproduction's stand-in for Aleph
    configured to emulate FOIL (Section 6.1, "Systems").

    Like AutoBias/Castor it runs sequential covering (Algorithm 1), but
    LearnClause works top-down: start from the most general clause (the bare
    head) and greedily append the body literal with the best FOIL gain,

    {v gain(L) = p1 · (log2(p1/(p1+n1)) − log2(p0/(p0+n0))) v}

    where (p0, n0) and (p1, n1) are the positive/negative training examples
    covered before and after adding [L]. Candidate literals are generated
    from the same mode language: [+] positions take existing variables of a
    compatible type, [-] positions fresh variables, [#] positions the most
    frequent constants of the attribute. Top-down greedy search is biased
    toward short clauses — fast, but it misses definitions that only pay off
    after several joins, which is exactly how Aleph behaves in Table 5.
    Like {!Learning.Learn}, a run answers to its coverage context's budget
    scoped to [timeout] ({!Learning.Coverage.scope}). *)

module String_set = Bias.Util.String_set

type config = {
  max_body_literals : int;
  constant_candidates : int;  (** [#] candidates per attribute (most frequent) *)
  candidate_cap : int;  (** candidate literals considered per step *)
  min_positives : int;
  min_precision : float;
  max_clauses : int;
  timeout : float option;
}

let default_config =
  {
    max_body_literals = 6;
    constant_candidates = 12;
    candidate_cap = 400;
    min_positives = 2;
    min_precision = 0.7;
    max_clauses = 20;
    timeout = Some 600.;
  }

type clause_state = {
  clause : Logic.Clause.t;
  var_types : (int, String_set.t) Hashtbl.t;
  gen : Logic.Term.Var_gen.t;
}

let initial_state bias =
  let target = Bias.Language.target bias in
  let gen = Logic.Term.Var_gen.create () in
  let var_types = Hashtbl.create 16 in
  let args =
    Array.init (Relational.Schema.arity target) (fun i ->
        let v = Logic.Term.Var_gen.fresh gen in
        (match v with
        | Logic.Term.Var id ->
            Hashtbl.replace var_types id
              (Bias.Language.attribute_types bias
                 target.Relational.Schema.rel_name i)
        | Logic.Term.Const _ -> assert false);
        v)
  in
  {
    clause = Logic.Clause.make (Logic.Literal.make target.Relational.Schema.rel_name args) [];
    var_types;
    gen;
  }

(* The most frequent constants of attribute [pos] of [rel]. *)
let frequent_constants db pred pos n =
  match Relational.Database.find_opt db pred with
  | None -> []
  | Some rel ->
      Relational.Relation.distinct_values rel pos
      |> List.map (fun v -> (Relational.Relation.frequency rel pos v, v))
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> List.filteri (fun i _ -> i < n)
      |> List.map snd

(* All candidate literals for extending [state] under [mode], with the
   variable-type table updates they imply. *)
let candidates_of_mode ~config db bias state (mode : Bias.Mode.t) =
  let pred = mode.Bias.Mode.pred in
  let arity = Bias.Mode.arity mode in
  (* For each position, the list of (term, new-variable?) choices. *)
  let choices =
    List.init arity (fun i ->
        let attr_types = Bias.Language.attribute_types bias pred i in
        match mode.Bias.Mode.symbols.(i) with
        | Bias.Mode.Input ->
            Hashtbl.fold
              (fun id types acc ->
                if not (String_set.is_empty (String_set.inter types attr_types))
                then (Logic.Term.Var id, false) :: acc
                else acc)
              state.var_types []
            |> List.sort compare
        | Bias.Mode.Output ->
            (* One fresh variable placeholder; materialized per candidate. *)
            [ (Logic.Term.Var (-1 - i), true) ]
        | Bias.Mode.Constant ->
            frequent_constants db pred i config.constant_candidates
            |> List.map (fun v -> (Logic.Term.Const v, false)))
  in
  if List.exists (fun c -> c = []) choices then []
  else begin
    let combos =
      List.fold_left
        (fun acc choice ->
          List.concat_map (fun prefix -> List.map (fun c -> c :: prefix) choice) acc)
        [ [] ] choices
      |> List.map List.rev
    in
    List.filteri (fun i _ -> i < config.candidate_cap) combos
    |> List.map (fun combo ->
           (* Materialize fresh variables and their types. *)
           let new_vars = ref [] in
           let args =
             List.mapi
               (fun i (term, fresh) ->
                 if fresh then begin
                   let v = Logic.Term.Var_gen.fresh state.gen in
                   (match v with
                   | Logic.Term.Var id ->
                       new_vars :=
                         (id, Bias.Language.attribute_types bias pred i)
                         :: !new_vars
                   | Logic.Term.Const _ -> assert false);
                   v
                 end
                 else term)
               combo
           in
           (Logic.Literal.make pred (Array.of_list args), !new_vars))
  end

let extend_state state (lit, new_vars) =
  let var_types = Hashtbl.copy state.var_types in
  List.iter (fun (id, types) -> Hashtbl.replace var_types id types) new_vars;
  {
    clause =
      Logic.Clause.make (Logic.Clause.head state.clause)
        (Logic.Clause.body state.clause @ [ lit ]);
    var_types;
    gen = state.gen;
  }

let log2 x = log x /. log 2.

let foil_gain ~p0 ~n0 ~p1 ~n1 =
  if p1 = 0 then neg_infinity
  else begin
    let info p n = log2 (float_of_int p /. float_of_int (p + n)) in
    float_of_int p1 *. (info p1 n1 -. info p0 n0)
  end

let learn_one_clause ~config ~cov ~budget db bias ~uncovered ~negatives =
  (* The budget is checked per example: the first candidate's count builds
     every example's ground bottom clause, and a deadline must be able to
     stop that warm-up. *)
  let count clause =
    let count_in examples =
      List.fold_left
        (fun acc e ->
          Budget.check budget;
          if Learning.Coverage.covers cov clause e then acc + 1 else acc)
        0 examples
    in
    (count_in uncovered, count_in negatives)
  in
  let rec grow state p0 n0 =
    Budget.check budget;
    if n0 = 0 || Logic.Clause.size state.clause >= config.max_body_literals then
      (state.clause, p0, n0)
    else begin
      let candidates =
        Bias.Language.modes bias
        |> List.concat_map (fun m -> candidates_of_mode ~config db bias state m)
      in
      let best = ref None in
      List.iter
        (fun cand ->
          Budget.check budget;
          let state' = extend_state state cand in
          let p1, n1 = count state'.clause in
          let gain = foil_gain ~p0 ~n0 ~p1 ~n1 in
          if gain > 0. then
            match !best with
            | Some (g, _, _, _) when g >= gain -> ()
            | _ -> best := Some (gain, state', p1, n1))
        candidates;
      match !best with
      | None -> (state.clause, p0, n0)
      | Some (_, state', p1, n1) -> grow state' p1 n1
    end
  in
  let state0 = initial_state bias in
  let p0 = List.length uncovered and n0 = List.length negatives in
  grow state0 p0 n0

type result = {
  definition : Logic.Clause.definition;
  degradation : Budget.degradation;
}

(** [learn ?config cov ~positives ~negatives] runs the FOIL covering loop.
    [cov] supplies coverage testing (and hence the ground bottom clauses);
    the bias inside [cov] supplies the mode language. *)
let learn ?(config = default_config) cov ~positives ~negatives =
  let db = Learning.Coverage.database cov in
  let bias = Learning.Coverage.bias cov in
  let budget, cov = Learning.Coverage.scope cov ~timeout:config.timeout in
  let definition = ref [] in
  let uncovered = ref positives in
  let status = ref Budget.Completed in
  (try
     let progress = ref true in
     while !progress && !uncovered <> [] && List.length !definition < config.max_clauses do
       let clause, p, n =
         learn_one_clause ~config ~cov ~budget db bias
           ~uncovered:!uncovered ~negatives
       in
       let precision =
         if p + n = 0 then 0. else float_of_int p /. float_of_int (p + n)
       in
       if
         Logic.Clause.size clause > 0
         && p >= config.min_positives
         && precision >= config.min_precision
       then begin
         definition := clause :: !definition;
         let before = List.length !uncovered in
         uncovered :=
           List.filter (fun e -> not (Learning.Coverage.covers cov clause e)) !uncovered;
         if List.length !uncovered = before then progress := false
       end
       else progress := false
     done
   with Budget.Expired st -> status := st);
  {
    definition = List.rev !definition;
    degradation = Budget.degradation ~status:!status budget;
  }
