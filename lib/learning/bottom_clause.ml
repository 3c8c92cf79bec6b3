(** Bottom-clause construction (Algorithm 2, guided by the language bias as
    described in Section 2.3.1): one traversal, two outputs.

    Given a positive example [e], the builder keeps a table from the known
    constants to the set of types they were seen under. Each of the [d]
    iterations walks every mode definition: for a mode of relation R with
    [+] on attribute A, every constant known when the round started whose
    type set intersects types(R[A]) may feed the semi-join [M ⋊ R]; the
    strategy from Section 4 picks at most [sample_size] of the matching
    tuples. Each picked tuple is {e noted} — the constants at its [+]/[-]
    positions join the table under those attributes' types and drive the
    next iteration — and {e emitted}:

    - {!build} emits a literal whose [+]/[-] positions are variables (fresh
      for new constants) and whose [#] positions stay constants: the bottom
      clause a search starts from (the learner's seeds, Progol's);
    - {!ground} emits the tuple as a row of the coverage context's symbol
      table ({!Logic.Compiled.Symtab.row}: its values interned once per
      context), deduplicated by row id, and hands the rows to
      {!Logic.Compiled.ground_of_rows}. That is the {e ground bottom
      clause} of Section 5 that coverage testing subsumes against, built
      straight into the compiled kernel's int form, never as literals.

    Notes are keyed by one int per constant — its variable in {!build}, its
    const id in {!ground} — and type sets are bitsets over the bias's type
    names. A note depends on the tuple and the position alone, so {!ground}
    notes a tuple sampled again only at the positions no earlier sampling
    of it noted: none under the same mode, and under another mode those
    the earlier modes kept as [#]. Notes go on after the body cap is
    reached: they still steer the sampler. *)

module Value = Relational.Value
module Relation = Relational.Relation
module Compiled = Logic.Compiled

type config = {
  depth : int;  (** iterations d of Algorithm 2 *)
  sample_size : int;  (** tuples kept per mode per iteration (paper: 20) *)
  strategy : Sampling.Strategy.t;
  max_body_literals : int;
      (** hard cap on the body size — an under-restricted bias (plain
          Castor) can otherwise produce clauses beyond what subsumption can
          ever process within budget *)
}

let default_config =
  {
    depth = 2;
    sample_size = 20;
    strategy = Sampling.Strategy.Naive;
    max_body_literals = 1000;
  }

let m_build = Obs.Metrics.histogram "bottom_clause.build_s"

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(** {1 The bias, as a build reads it} *)

(* A type set is a bitset over the bias's type names, [bits] names a word. *)
let bits = Sys.int_size - 1

let intersects a b =
  let r = ref false and w = ref 0 in
  while (not !r) && !w < Array.length a do
    r := a.(!w) land b.(!w) <> 0;
    incr w
  done;
  !r

type mode_plan = {
  mode : Bias.Mode.t;
  index : int;  (** rank in processing order *)
  rel : Relation.t option;
  inputs : (int * int array) list;  (** [+] positions and their types *)
  types : int array array;  (** position → its attribute's types *)
  noted : int;  (** the [+]/[-] positions below [bits], as bits *)
  strata : int list;  (** positions the bias allows constants at *)
}

type plan = {
  words : int;  (** width of a type set *)
  head_types : int array array;  (** target position → its types *)
  modes : mode_plan array;  (** in processing order *)
}

(** [plan db bias] — what every build over [db] and [bias] reads: modes in
    processing order with their relations, feeds and strata, and each
    attribute's types as a bitset. *)
let plan db bias =
  let names = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Array.iter
        (fun n ->
          if not (Hashtbl.mem names n) then Hashtbl.add names n (Hashtbl.length names))
        d.Bias.Predicate_def.types)
    (Bias.Language.predicate_defs bias);
  let words = 1 + (Hashtbl.length names / bits) in
  (* Computed once per key, so every mode of an attribute shares one
     physical type set: the feeds of a round are memoized by it. *)
  let memo f =
    let t = Hashtbl.create 16 in
    fun k ->
      match Hashtbl.find_opt t k with
      | Some v -> v
      | None ->
          let v = f k in
          Hashtbl.add t k v;
          v
  in
  let attr_types =
    memo (fun (pred, pos) ->
        let b = Array.make words 0 in
        Bias.Util.String_set.iter
          (fun n ->
            let i = Hashtbl.find names n in
            b.(i / bits) <- b.(i / bits) lor (1 lsl (i mod bits)))
          (Bias.Language.attribute_types bias pred pos);
        b)
  in
  let target = Bias.Language.target bias in
  (* Within a round, modes with more [#] symbols go first: their literals are
     the most selective, and putting them early in the body keeps the
     substitution frontier of prefix evaluation small and anchored — a
     generic literal evaluated first would diffuse the shared variables over
     the whole relation before the selective literal can pin them down. *)
  let ordered =
    List.stable_sort
      (fun a b ->
        compare
          (List.length (Bias.Mode.constant_positions b))
          (List.length (Bias.Mode.constant_positions a)))
      (Bias.Language.modes bias)
  in
  let relation =
    memo (fun pred ->
        let rel = Relational.Database.find_opt db pred in
        ( rel,
          match rel with
          | None -> []
          | Some rel ->
              List.filter
                (Bias.Language.constant_allowed bias pred)
                (List.init (Relation.arity rel) Fun.id) ))
  in
  let mode_plan index (mode : Bias.Mode.t) =
    let pred = mode.Bias.Mode.pred in
    let rel, strata = relation pred in
    {
      mode;
      index;
      rel;
      inputs =
        List.map
          (fun pos -> (pos, attr_types (pred, pos)))
          (Bias.Mode.input_positions mode);
      types = Array.init (Bias.Mode.arity mode) (fun pos -> attr_types (pred, pos));
      noted =
        Array.fold_left ( lor ) 0
          (Array.mapi
             (fun i sym ->
               if i < bits && sym <> Bias.Mode.Constant then 1 lsl i else 0)
             mode.Bias.Mode.symbols);
      strata;
    }
  in
  {
    words;
    head_types =
      Array.init (Relational.Schema.arity target) (fun pos ->
          attr_types (target.Relational.Schema.rel_name, pos));
    modes = Array.of_list (List.mapi mode_plan ordered);
  }

(** {1 The traversal} *)

type known = {
  value : Value.t;
  seen : int array;  (** the types the constant was noted under *)
  mutable in_round : bool;  (** known when the current round started *)
}

type state = {
  cfg : config;
  rng : Random.State.t;
  plan : plan;
  consts : known Int_tbl.t;  (** constant key → what is known of it *)
  mutable known : known list;
  mutable round : known list;
      (** Algorithm 2's M: the constants known when the round started.
          Constants found during a round only feed the {e next} round, so
          mode processing order cannot dilute the sample away from the
          example's own neighbourhood. *)
  mutable round_set : Value.Set.t;  (** [round]'s values *)
  mutable last_round : bool;
  mutable feeds : (int array * Value.Set.t) list;
      (** this round's feeds by attribute types, until a constant of
          [round] gains a type *)
}

(* [key] is an int unique to [value] within the build. A constant first
   seen in the last round feeds nothing, so it is not recorded. *)
let note st key value types =
  match Int_tbl.find_opt st.consts key with
  | Some k ->
      for w = 0 to st.plan.words - 1 do
        let t = types.(w) in
        if k.seen.(w) lor t <> k.seen.(w) then begin
          k.seen.(w) <- k.seen.(w) lor t;
          if k.in_round then st.feeds <- []
        end
      done
  | None ->
      if not st.last_round then begin
        let k = { value; seen = Array.copy types; in_round = false } in
        Int_tbl.add st.consts key k;
        st.known <- k :: st.known
      end

let start_round st ~last =
  List.iter (fun k -> k.in_round <- true) st.known;
  st.round <- st.known;
  st.round_set <- Value.Set.of_list (List.map (fun k -> k.value) st.known);
  st.last_round <- last;
  st.feeds <- []

(* The constants of [round] whose type set meets [types] — the candidate
   feed of a [+] attribute of those types. *)
let feed st types =
  match List.assq_opt types st.feeds with
  | Some s -> s
  | None ->
      let fed = List.filter (fun k -> intersects k.seen types) st.round in
      let s =
        if List.compare_lengths fed st.round = 0 then st.round_set
        else Value.Set.of_list (List.map (fun k -> k.value) fed)
      in
      st.feeds <- (types, s) :: st.feeds;
      s

(* All tuples a mode can contribute this round: the sampler fed from the
   round's known constants, then filtered so every [+] position holds a
   known constant of a compatible type (relevant when a manual mode has
   several [+] attributes). *)
let tuples_for_mode st m =
  match (m.rel, m.inputs) with
  | None, _ | _, [] -> []
  | Some rel, (first, first_types) :: others ->
      let known = feed st first_types in
      if Value.Set.is_empty known then []
      else
        let sampled =
          Sampling.Strategy.sample st.cfg.strategy ~rng:st.rng ~rel ~pos:first
            ~known ~size:st.cfg.sample_size ~constant_positions:m.strata
        in
        List.filter
          (fun t ->
            List.for_all
              (fun (pos, types) -> Value.Set.mem t.(pos) (feed st types))
              others)
          sampled

(* Algorithm 2 on [example]: [head_key] keys (and notes) each example
   constant under the target's types, then every round's tuples go to
   [emit], in the order they are sampled. *)
let traverse ~what ~config plan ~rng ~example ~head_key ~emit =
  if Array.length example <> Array.length plan.head_types then
    invalid_arg (what ^ ": example arity mismatch");
  let st =
    {
      cfg = config;
      rng;
      plan;
      consts = Int_tbl.create 64;
      known = [];
      round = [];
      round_set = Value.Set.empty;
      last_round = false;
      feeds = [];
    }
  in
  let head = Array.mapi (fun i v -> head_key st v plan.head_types.(i)) example in
  for round = 1 to config.depth do
    start_round st ~last:(round = config.depth);
    if st.round <> [] then
      Array.iter (fun m -> List.iter (emit st m) (tuples_for_mode st m)) plan.modes
  done;
  head

(** {1 The two outputs} *)

(** [build ?config db bias ~rng ~example] constructs the bottom clause of
    [example]: the head is the target literal with example constants
    replaced by variables, each sampled tuple one body literal.
    Raises [Invalid_argument] on an arity mismatch with the target. *)
let build ?(config = default_config) db bias ~rng ~example =
  Obs.Metrics.time m_build @@ fun () ->
  Obs.Trace.span ~cat:"learn" "bottom_clause" @@ fun () ->
  let gen = Logic.Term.Var_gen.create () and var_of = Value.Table.create 64 in
  let var st v types =
    let id =
      match Value.Table.find_opt var_of v with
      | Some id -> id
      | None -> (
          match Logic.Term.Var_gen.fresh gen with
          | Logic.Term.Var id ->
              Value.Table.replace var_of v id;
              id
          | Logic.Term.Const _ -> assert false)
    in
    note st id v types;
    Logic.Term.Var id
  in
  let literals = Hashtbl.create 128 and order = ref [] in
  let emit st m tuple =
    let args =
      Array.mapi
        (fun i v ->
          match m.mode.Bias.Mode.symbols.(i) with
          | Bias.Mode.Constant -> Logic.Term.Const v
          | Bias.Mode.Input | Bias.Mode.Output -> var st v m.types.(i))
        tuple
    in
    let l = Logic.Literal.make m.mode.Bias.Mode.pred args in
    if
      Hashtbl.length literals < config.max_body_literals
      && not (Hashtbl.mem literals l)
    then begin
      Hashtbl.replace literals l ();
      order := l :: !order
    end
  in
  let head =
    traverse ~what:"Bottom_clause.build" ~config (plan db bias) ~rng ~example
      ~head_key:var ~emit
  in
  let clause =
    Logic.Clause.make
      (Logic.Literal.make (Bias.Language.target bias).Relational.Schema.rel_name head)
      (List.rev !order)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.arg "body_lits" (string_of_int (Logic.Clause.size clause));
  clause

(** [ground ?config plan tab ~rng ~example] constructs the ground bottom
    clause of [example] as a compiled ground over [tab]: the same sampled
    tuples as {!build} draws from the same [rng] state, every position kept
    a constant, each distinct tuple one literal in first-sampled order.
    Raises [Invalid_argument] on an arity mismatch with the target. *)
let ground ?(config = default_config) plan tab ~rng ~example =
  let preds =
    Array.map (fun m -> Compiled.Symtab.pred_id tab m.mode.Bias.Mode.pred) plan.modes
  in
  let const st v types =
    let c = Compiled.Symtab.const_id tab v in
    note st c v types
  in
  (* Row id → the positions of it noted so far. A note is a function of
     the row and the position alone, whichever mode sampled the row, so a
     row sampled again notes only the positions no earlier sampling of it
     did: under the same mode, none. Positions past [bits] are always
     noted. A row's first sighting is its only chance to enter the body. *)
  let noted = Int_tbl.create 256 in
  let rows = ref [] and n_rows = ref 0 in
  let emit st m tuple =
    let r = Compiled.Symtab.row tab ~pred:preds.(m.index) tuple in
    let id = Compiled.row_id r in
    let todo =
      match Int_tbl.find_opt noted id with
      | None ->
          if !n_rows < config.max_body_literals then begin
            rows := r :: !rows;
            incr n_rows
          end;
          Int_tbl.add noted id m.noted;
          m.noted
      | Some before ->
          let todo = m.noted land lnot before in
          if todo <> 0 then Int_tbl.replace noted id (before lor todo);
          todo
    in
    if todo <> 0 || Array.length tuple > bits then begin
      let args = Compiled.row_args r in
      Array.iteri
        (fun i v ->
          if
            if i < bits then todo land (1 lsl i) <> 0
            else m.mode.Bias.Mode.symbols.(i) <> Bias.Mode.Constant
          then note st args.(i) v m.types.(i))
        tuple
    end
  in
  ignore
    (traverse ~what:"Bottom_clause.ground" ~config plan ~rng ~example
       ~head_key:const ~emit);
  Compiled.ground_of_rows tab ~example (Array.of_list (List.rev !rows))
