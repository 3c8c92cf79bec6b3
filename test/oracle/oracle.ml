(** The symbolic θ-subsumption engines (Section 5 of the paper), kept as the
    reference the compiled kernel ({!Logic.Compiled}) is tested against.

    Clause [c] θ-subsumes ground clause [g] iff there is a substitution θ with
    body(c)θ ⊆ body(g). Deciding this is NP-hard, so, following the paper's
    reference [29] (Kuzelka & Zelezny's restarted strategy), the engine runs a
    backtracking search with

    - candidate filtering through a (predicate, position, value) index over
      the ground literals, so a literal with any bound argument only probes
      matching ground literals;
    - decomposition of the body into variable-connected components solved
      independently (one joint exponential search becomes a sum of small
      ones), sharing a single node budget per try;
    - incremental candidate maintenance over arrays: binding a literal
      refilters only the open literals sharing a freshly-bound variable,
      instead of rebuilding every remaining candidate list at every node;
    - fail-first dynamic literal ordering (fewest candidate matches first)
      with unit propagation (single-candidate literals are bound eagerly);
    - a node budget per try and randomized restarts when the budget runs out.

    With the budget exhausted on every restart the test answers [false] — an
    under-approximation of coverage, exactly the trade-off the paper makes.

    The substitution-frontier sweep below ({!eval_prefix}, {!generalize})
    works over [Literal.t] structures and substitution maps: the compiled
    kernel must reproduce its verdicts, witnesses, truncation counts and
    ARMG kept literals exactly. *)

open Logic

type ground = {
  by_pred : (string, Literal.t array) Hashtbl.t;
  by_pred_pos_value :
    (string * int * Relational.Value.t, int * Literal.t list) Hashtbl.t;
      (** buckets carry their cached length: candidate selection compares
          bucket sizes on every probe of every search node, and recomputing
          [List.length] there made it O(arity · bucket) per literal *)
  literal_count : int;
}
(** A ground clause body, pre-grouped by relation symbol and indexed by
    argument value. *)

(** [ground_of_literals ls] indexes ground literals [ls].
    Raises [Invalid_argument] if some literal is not ground. *)
let ground_of_literals ls =
  let count = ref 0 in
  List.iter
    (fun l ->
      incr count;
      if not (Literal.is_ground l) then
        invalid_arg ("Subsumption.ground_of_literals: " ^ Literal.to_string l))
    ls;
  let tmp = Hashtbl.create 16 in
  let by_pred_pos_value = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let p = Literal.pred l in
      let bucket = try Hashtbl.find tmp p with Not_found -> [] in
      Hashtbl.replace tmp p (l :: bucket);
      Array.iteri
        (fun i t ->
          match t with
          | Term.Const v ->
              let key = (p, i, v) in
              let n, b =
                try Hashtbl.find by_pred_pos_value key
                with Not_found -> (0, [])
              in
              Hashtbl.replace by_pred_pos_value key (n + 1, l :: b)
          | Term.Var _ -> ())
        (Literal.args l))
    ls;
  let by_pred = Hashtbl.create 16 in
  Hashtbl.iter (fun p b -> Hashtbl.replace by_pred p (Array.of_list b)) tmp;
  { by_pred; by_pred_pos_value; literal_count = !count }

let ground_size g = g.literal_count

let ground_literals g =
  Hashtbl.fold
    (fun _ arr acc -> Array.fold_left (fun acc l -> l :: acc) acc arr)
    g.by_pred []

exception Budget_exhausted

type config = {
  node_budget : int;  (** backtracking nodes allowed per try *)
  restarts : int;  (** randomized retries after the first try *)
}

let default_config = { node_budget = 10_000; restarts = 2 }

(* Ground literals possibly matching [lit] under [subst]: if some argument is
   bound (a constant, or a variable bound by [subst]), probe the smallest
   value-index bucket; otherwise fall back to the predicate bucket. *)
let candidate_literals g subst lit =
  let p = Literal.pred lit in
  let args = Literal.args lit in
  let best = ref None in
  Array.iteri
    (fun i t ->
      let bound_value =
        match t with
        | Term.Const v -> Some v
        | Term.Var x -> Substitution.find_opt x subst
      in
      match bound_value with
      | None -> ()
      | Some v ->
          let len, bucket =
            try Hashtbl.find g.by_pred_pos_value (p, i, v)
            with Not_found -> (0, [])
          in
          (match !best with
          | Some (blen, _) when blen <= len -> ()
          | _ -> best := Some (len, bucket)))
    args;
  match !best with
  | Some (_, bucket) -> bucket
  | None -> (
      match Hashtbl.find_opt g.by_pred p with
      | None -> []
      | Some arr -> Array.to_list arr)

(* Substitutions extending [subst] that map [lit] into [g]. *)
let candidates g subst lit =
  candidate_literals g subst lit
  |> List.filter_map (fun gl -> Substitution.match_literal subst lit gl)

(* {2 Decomposed, incremental backtracking}

   Two structural optimizations over a monolithic re-scoring search:

   - {e connected-component decomposition}: after head binding, body
     literals in distinct variable-connected components (connectivity
     through variables still unbound by the head substitution) constrain
     disjoint variable sets, so one joint search over the whole body — an
     exponential in the total body size — splits into a product of
     independent searches, each exponential only in its component's size.
     The components share one node budget per try.

   - {e incremental candidate maintenance}: each open literal carries the
     array of ground literals still matching it under the current partial
     substitution. Binding a literal refilters only the entries that share
     a freshly-bound variable — everything else is untouched — where the
     previous engine rebuilt and re-matched every remaining literal's
     candidate list at every search node. Arrays are persistent down a
     branch (backtracking restores them for free) and only ever shrink. *)

type entry = {
  elit : Literal.t;
  evars : int list;  (** distinct variables of [elit] *)
  cands : Literal.t array;
      (** ground literals matching [elit] under the current substitution *)
}

let entry_of g subst lit =
  let matching =
    List.filter
      (fun gl -> Substitution.match_literal subst lit gl <> None)
      (candidate_literals g subst lit)
  in
  { elit = lit; evars = Literal.vars lit; cands = Array.of_list matching }

let refilter subst e =
  let kept =
    Array.fold_left
      (fun acc gl ->
        if Substitution.match_literal subst e.elit gl <> None then gl :: acc
        else acc)
      [] e.cands
  in
  { e with cands = Array.of_list (List.rev kept) }

(* One backtracking try over one component, charging search nodes to the
   shared [nodes] counter. [rng] randomizes branch order on restart tries;
   the first try is deterministic. Returns [None] only when the component's
   space was exhausted — a proof of no match (budget exhaustion raises). *)
let solve_component ~config ~rng ~nodes g subst0 body =
  let tick () =
    incr nodes;
    if !nodes > config.node_budget then raise Budget_exhausted
  in
  let shuffle arr =
    match rng with
    | None -> arr
    | Some st ->
        let a = Array.copy arr in
        let n = Array.length a in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        a
  in
  (* Fail-first: branch on the entry with the fewest live candidates (first
     in body order on ties); a single-candidate entry is thereby bound
     eagerly (unit propagation) and an empty one fails the node. *)
  let rec search entries subst =
    tick ();
    match entries with
    | [] -> Some subst
    | _ -> (
        let best =
          List.fold_left
            (fun acc e ->
              match acc with
              | Some b when Array.length b.cands <= Array.length e.cands -> acc
              | _ -> Some e)
            None entries
        in
        match best with
        | None -> assert false
        | Some e ->
            if Array.length e.cands = 0 then None
            else begin
              let rest = List.filter (fun x -> not (x == e)) entries in
              let order =
                if Array.length e.cands = 1 then e.cands else shuffle e.cands
              in
              let rec try_branches i =
                if i >= Array.length order then None
                else
                  let gl = order.(i) in
                  match Substitution.match_literal subst e.elit gl with
                  | None -> assert false (* cands are live under [subst] *)
                  | Some subst' ->
                      let fresh =
                        List.filter
                          (fun v -> not (Substitution.mem v subst))
                          e.evars
                      in
                      let dead = ref false in
                      let rest' =
                        if fresh = [] then rest
                        else
                          List.map
                            (fun x ->
                              if
                                List.exists
                                  (fun v -> List.mem v x.evars)
                                  fresh
                              then begin
                                let x' = refilter subst' x in
                                if Array.length x'.cands = 0 then dead := true;
                                x'
                              end
                              else x)
                            rest
                      in
                      if !dead then try_branches (i + 1)
                      else begin
                        match search rest' subst' with
                        | Some _ as ok -> ok
                        | None -> try_branches (i + 1)
                      end
              in
              try_branches 0
            end)
  in
  let entries = List.map (entry_of g subst0) body in
  if List.exists (fun e -> Array.length e.cands = 0) entries then None
  else search entries subst0

(* Variable-connected components of [body] under [subst]: literals in
   distinct components share no unbound variable. Each component keeps its
   literals in body order; components come out in order of their first
   literal. Literals with no unbound variable are singleton components
   (their check is a pure candidate probe). *)
let components subst body =
  let tagged =
    List.mapi
      (fun i l ->
        ( i,
          l,
          List.filter (fun v -> not (Substitution.mem v subst)) (Literal.vars l)
        ))
      body
  in
  let rec group = function
    | [] -> []
    | ((_, _, vs0) as item) :: rest ->
        let rec close vars members pending =
          let touched, untouched =
            List.partition
              (fun (_, _, vs) -> List.exists (fun v -> List.mem v vars) vs)
              pending
          in
          if touched = [] then (members, pending)
          else
            close
              (List.fold_left (fun acc (_, _, vs) -> vs @ acc) vars touched)
              (members @ touched) untouched
        in
        let members, rest = close vs0 [ item ] rest in
        members :: group rest
  in
  group tagged
  |> List.map (fun members ->
         List.sort (fun (i, _, _) (j, _, _) -> compare i j) members
         |> List.map (fun (_, l, _) -> l))

type answer =
  | Subsumed of Substitution.t
  | Not_subsumed
  | Gave_up

(** [subsumes_answer ?config ?rng ~subst c g] is the engine's honest
    verdict: [Subsumed w] with a witness, [Not_subsumed] when some try
    {e exhausted the search space} within its node budget (a proof of no
    subsumption — restarts would be wasted work and are skipped), or
    [Gave_up] when every try ran out of nodes. The boolean entry points
    conflate the last two (both answer "no", the paper's under-approximating
    trade-off); this one keeps them apart. *)
let subsumes_answer ?(config = default_config) ?rng ~subst c g =
  let comps = components subst (Clause.body c) in
  (* Witnesses of distinct components bind disjoint variables (each extends
     the shared head substitution), so their union is a witness for the
     whole body. *)
  let merge_witness acc w =
    List.fold_left
      (fun acc (v, value) -> Substitution.bind v value acc)
      acc (Substitution.bindings w)
  in
  let attempt r =
    let nodes = ref 0 in
    let rec solve acc = function
      | [] -> `Found acc
      | comp :: rest -> (
          match solve_component ~config ~rng:r ~nodes g subst comp with
          | Some w -> solve (merge_witness acc w) rest
          | None -> `No)
    in
    (try solve subst comps with Budget_exhausted -> `Out)
  in
  match attempt None with
  | `Found s -> Subsumed s
  | `No -> Not_subsumed
  | `Out ->
      let rng =
        match rng with
        | Some st -> st
        | None -> Random.State.make [| 0x5eed |]
      in
      let rec retry k =
        if k = 0 then Gave_up
        else
          match attempt (Some rng) with
          | `Found s -> Subsumed s
          | `No -> Not_subsumed
          | `Out -> retry (k - 1)
      in
      retry config.restarts

(** [subsumes_subst ?config ?rng ~subst c g] tests whether the body of [c]
    maps into [g] by some extension of [subst] (the head is assumed already
    matched — coverage testing binds it from the example). Returns the
    witnessing substitution; [Gave_up] collapses to [None]. *)
let subsumes_subst ?config ?rng ~subst c g =
  match subsumes_answer ?config ?rng ~subst c g with
  | Subsumed s -> Some s
  | Not_subsumed | Gave_up -> None

(** [subsumes ?config ?rng c g] is [subsumes_subst] from the empty
    substitution: plain θ-subsumption of [c]'s body into [g]. *)
let subsumes ?config ?rng c g =
  match subsumes_subst ?config ?rng ~subst:Substitution.empty c g with
  | Some _ -> true
  | None -> false

(** {1 Prefix evaluation with substitution sets}

    Bottom clauses list their body in construction order, so each literal is
    (almost always) connected to earlier literals. That makes left-to-right
    evaluation with a {e set of partial substitutions} — the frontier of all
    ways the prefix maps into the ground clause — both fast and exactly what
    ARMG needs: the first literal whose frontier dies is the {e blocking
    atom} of Section 2.3.2. The frontier is capped at [cap] substitutions
    (uniformly subsampled when it overflows), which makes the test
    approximate in the same under-approximating direction as the budgeted
    backtracking above. *)

let default_frontier_cap = Compiled.default_frontier_cap

type observer =
  Substitution.t list -> Literal.t -> Substitution.t list list -> unit

(** [step_frontier_n ?cap ?truncated g frontier ~frontier_n lit] advances
    the frontier of length [frontier_n] across one body literal: all
    extensions of frontier substitutions that map [lit] into [g],
    deduplicated (duplicates arise when [lit] is already fully bound),
    capped at [cap] (expansion stops at [3 × cap] raw extensions), and
    rotated so a truncated tail gets its turn at the next literal. An empty
    result means [lit] blocks. Each truncation increments [truncated];
    [observe] sees the step before it is deduplicated and capped. *)
let step_frontier_n ?(cap = default_frontier_cap) ?truncated ?observe g
    frontier ~frontier_n lit =
  (* Fair expansion: every frontier substitution gets an equal share of the
     [3 × cap] expansion budget. A global first-come cut-off would only ever
     extend the first few chains, silently discarding the binding diversity
     the stride-truncation below works to preserve. [frontier_n] is the
     caller-tracked size of [frontier]: every producer of a frontier already
     knows its length, so the hot loop never recounts a list. *)
  let per_subst = max 2 (3 * cap / max 1 frontier_n) in
  (* Recomputed only for an observer, so the timed path is unchanged. *)
  Option.iter
    (fun f ->
      f frontier lit
        (List.map (fun s -> Util.take per_subst (candidates g s lit)) frontier))
    observe;
  let out = ref [] and out_n = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun s' ->
          out := s' :: !out;
          incr out_n)
        (Util.take per_subst (candidates g s lit)))
    frontier;
  let out_n = !out_n in
  (* Truncate a frontier of [n] substitutions in [order] (an array in the
     frontier's logical order): rotation below [cap] so a truncated tail
     gets its turn at the next literal, else a stride-spread sample — kept
     over the lexicographic head because neighbouring substitutions share
     early-variable bindings, and a frontier keeping only one binding of a
     shared variable would falsely block any later literal needing
     another. *)
  let finish order n =
    if n <= cap then
      if n = 0 then ([], 0)
      else begin
        let rotated = ref [ order.(0) ] in
        for i = n - 1 downto 1 do
          rotated := order.(i) :: !rotated
        done;
        (!rotated, n)
      end
    else begin
      Option.iter incr truncated;
      (List.init cap (fun i -> order.(i * n / cap)), cap)
    end
  in
  (* Deduplication costs |out| log |out| map comparisons; tiny frontiers
     cannot meaningfully explode, so skip it for them. *)
  if out_n <= 8 then
    if out_n <= cap then
      match !out with
      | [] -> ([], 0)
      | x :: tl -> (tl @ [ x ], out_n)
    else finish (Array.of_list !out) out_n
  else begin
    (* In-place sort + adjacent-uniq over an array: same ascending output
       as [List.sort_uniq Substitution.compare] (duplicate substitutions
       are structurally identical), with the deduplicated count tracked
       instead of recounted. *)
    let arr = Array.of_list !out in
    Array.sort Substitution.compare arr;
    let m = ref 1 in
    for i = 1 to out_n - 1 do
      if Substitution.compare arr.(!m - 1) arr.(i) <> 0 then begin
        arr.(!m) <- arr.(i);
        incr m
      end
    done;
    finish arr !m
  end

(** [eval_prefix ?cap ?truncated ~subst c g] evaluates the body of [c]
    against [g] left to right starting from [subst], one [step_frontier_n]
    per body literal, stopping at the first literal whose frontier dies. *)
let eval_prefix ?cap ?truncated ?observe ~subst c g =
  let rec go i frontier frontier_n = function
    | [] -> (
        match frontier with
        | s :: _ -> Compiled.Covered s
        | [] -> assert false)
    | lit :: rest -> (
        match
          step_frontier_n ?cap ?truncated ?observe g frontier ~frontier_n lit
        with
        | [], _ -> Compiled.Blocked i
        | next, n -> go (i + 1) next n rest)
  in
  go 1 [ subst ] 1 (Clause.body c)

(** [covers_ground ?cap ~subst c g] is the boolean form of {!eval_prefix}. *)
let covers_ground ?cap ~subst c g =
  match eval_prefix ?cap ~subst c g with
  | Compiled.Covered _ -> true
  | Compiled.Blocked _ -> false

(** [generalize ?cap ~subst c g] is ARMG's sweep (Section 2.3.2): one
    [step_frontier_n] per body literal from [subst]; a literal whose frontier
    dies is dropped and the surviving prefix's frontier carries on, since
    removing a blocking atom leaves that prefix untouched. Returns the
    kept-literal mask over [c]'s body. *)
let generalize ?cap ?observe ~subst c g =
  let body = Array.of_list (Clause.body c) in
  let kept = Array.make (Array.length body) true in
  let frontier = ref [ subst ] and frontier_n = ref 1 in
  Array.iteri
    (fun i lit ->
      match
        step_frontier_n ?cap ?observe g !frontier ~frontier_n:!frontier_n lit
      with
      | [], _ -> kept.(i) <- false
      | next, next_n ->
          frontier := next;
          frontier_n := next_n)
    body;
  kept

(* ---------------- The symbolic ground bottom clause ---------------- *)

(* The reference for [Learning.Bottom_clause.ground]: Algorithm 2 with
   constants keyed by value, type sets as string sets, and every sampled
   tuple noted and turned into a literal, deduplicated structurally. *)

module Value = Relational.Value
module String_set = Bias.Util.String_set

type bc_state = {
  bias : Bias.Language.t;
  db : Relational.Database.t;
  rng : Random.State.t;
  cfg : Learning.Bottom_clause.config;
  types_of_const : String_set.t Value.Table.t;
  mutable known : Value.Set.t;
  mutable round_known : Value.Set.t;
  literals : (Literal.t, unit) Hashtbl.t;
  mutable order : Literal.t list;
}

let note_constant st v types =
  let existing =
    Option.value ~default:String_set.empty
      (Value.Table.find_opt st.types_of_const v)
  in
  Value.Table.replace st.types_of_const v (String_set.union existing types);
  st.known <- Value.Set.add v st.known

let known_of_types st types =
  Value.Set.filter
    (fun v ->
      match Value.Table.find_opt st.types_of_const v with
      | None -> false
      | Some s -> not (String_set.is_empty (String_set.inter s types)))
    st.round_known

let tuples_for_mode st (mode : Bias.Mode.t) =
  let pred = mode.Bias.Mode.pred in
  match Relational.Database.find_opt st.db pred with
  | None -> []
  | Some rel -> (
      match Bias.Mode.input_positions mode with
      | [] -> []
      | first :: others ->
          let feed pos =
            known_of_types st (Bias.Language.attribute_types st.bias pred pos)
          in
          let known = feed first in
          if Value.Set.is_empty known then []
          else
            let constant_positions =
              List.filter
                (Bias.Language.constant_allowed st.bias pred)
                (List.init (Relational.Relation.arity rel) Fun.id)
            in
            Sampling.Strategy.sample st.cfg.strategy ~rng:st.rng ~rel ~pos:first
              ~known ~size:st.cfg.sample_size ~constant_positions
            |> List.filter (fun t ->
                   List.for_all (fun pos -> Value.Set.mem t.(pos) (feed pos)) others))

let ground_bottom_clause ?(config = Learning.Bottom_clause.default_config) db bias
    ~rng ~example =
  let st =
    {
      bias;
      db;
      rng;
      cfg = config;
      types_of_const = Value.Table.create 64;
      known = Value.Set.empty;
      round_known = Value.Set.empty;
      literals = Hashtbl.create 128;
      order = [];
    }
  in
  let target = (Bias.Language.target bias).Relational.Schema.rel_name in
  Array.iteri
    (fun i v -> note_constant st v (Bias.Language.attribute_types bias target i))
    example;
  let modes =
    List.stable_sort
      (fun a b ->
        compare
          (List.length (Bias.Mode.constant_positions b))
          (List.length (Bias.Mode.constant_positions a)))
      (Bias.Language.modes bias)
  in
  for _round = 1 to config.Learning.Bottom_clause.depth do
    st.round_known <- st.known;
    if not (Value.Set.is_empty st.round_known) then
      List.iter
        (fun (mode : Bias.Mode.t) ->
          let pred = mode.Bias.Mode.pred in
          List.iter
            (fun t ->
              let args =
                Array.mapi
                  (fun i v ->
                    (match mode.Bias.Mode.symbols.(i) with
                    | Bias.Mode.Constant -> ()
                    | Bias.Mode.Input | Bias.Mode.Output ->
                        note_constant st v (Bias.Language.attribute_types bias pred i));
                    Term.Const v)
                  t
              in
              let l = Literal.make pred args in
              if
                Hashtbl.length st.literals < config.max_body_literals
                && not (Hashtbl.mem st.literals l)
              then begin
                Hashtbl.replace st.literals l ();
                st.order <- l :: st.order
              end)
            (tuples_for_mode st mode))
        modes
  done;
  List.rev st.order
