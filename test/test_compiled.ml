(* The compiled kernel's contract. It reproduces the symbolic oracle
   (test/oracle) exactly: coverage verdicts, witnesses and truncation counts
   at every frontier cap, and ARMG's kept literals. The learner built on it
   reproduces a recorded fixed-seed run, and coverage contexts do not leak
   their scratch arenas. *)

module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Pool = Parallel.Pool
module Compiled = Logic.Compiled

let verdict_eq a b =
  match (a, b) with
  | Compiled.Covered w1, Compiled.Covered w2 ->
      Logic.Substitution.compare w1 w2 = 0
  | Compiled.Blocked i, Compiled.Blocked j -> i = j
  | _ -> false

let truncations b = (Budget.counters b).Budget.coverage_truncated

(* The ground BC of [example] in both representations, from one literal
   list: the kernel's form, and what the oracle sweeps. *)
let grounds tab (d : Datasets.Dataset.t) ~rng example =
  let body = Oracle.ground_bottom_clause d.db d.manual_bias ~rng ~example in
  (Compiled.compile_ground tab ~example body, Oracle.ground_of_literals body)

(* The oracle's verdict behind the same head binding coverage uses. *)
let oracle_eval ?cap ?truncated ?observe clause example og =
  match Coverage.head_subst clause example with
  | None -> Compiled.Blocked 0
  | Some subst -> Oracle.eval_prefix ?cap ?truncated ?observe ~subst clause og

let kernel_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled coverage equals the symbolic oracle" ~count:8
         QCheck.(pair (int_bound 1000) small_nat)
         (fun (seed, j) ->
           (* A bottom clause and its first half against every example's
              ground BC at the default cap: equal blocking indexes,
              witnesses equal under Substitution.compare, and the same
              number of frontier truncations (the budgeted give-up path). *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:pos.(j mod Array.length pos)
           in
           let body = Logic.Clause.body bc in
           let half = List.filteri (fun i _ -> 2 * i < List.length body) body in
           let clauses =
             [ bc; Logic.Clause.make (Logic.Clause.head bc) half ]
           in
           let tab = Compiled.Symtab.create () in
           let scratch = Compiled.make_scratch () in
           let plans = List.map (fun c -> (c, Compiled.compile tab c)) clauses in
           let b = Budget.create () and truncated = ref 0 in
           List.for_all
             (fun e ->
               let cg, og =
                 grounds tab d ~rng:(Random.State.make [| s; 77 |]) e
               in
               List.for_all
                 (fun (c, plan) ->
                   let compiled =
                     match Coverage.head_subst c e with
                     | None -> Compiled.Blocked 0
                     | Some _ -> Compiled.eval ~budget:b scratch tab plan cg
                   in
                   verdict_eq compiled (oracle_eval ~truncated c e og))
                 plans)
             (d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives)
           && truncations b = !truncated));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled kernel equals eval_prefix at tiny frontier caps"
         ~count:15
         QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
         (fun (seed, (i, j)) ->
           (* Direct kernel-level A/B at caps small enough to force the
              stride-subsampling and sort+dedup paths on nearly every
              literal, cross-pairing the clause's example with the ground
              clause's (so head-blocked and Blocked-k cases both occur). *)
           let s = 1 + (seed mod 17) in
           let d = Datasets.Uw.generate ~seed:s ~scale:0.3 () in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let e1 = pos.(i mod Array.length pos) in
           let e2 = pos.(j mod Array.length pos) in
           let tab = Compiled.Symtab.create () in
           let comp_g, sym_g =
             grounds tab d ~rng:(Random.State.make [| s; 55 |]) e1
           in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:e2
           in
           let plan = Compiled.compile tab bc in
           let scratch = Compiled.make_scratch () in
           List.for_all
             (fun cap ->
               let b = Budget.create () and truncated = ref 0 in
               let compiled = Compiled.eval ~cap ~budget:b scratch tab plan comp_g in
               verdict_eq compiled (oracle_eval ~cap ~truncated bc e1 sym_g)
               && truncations b = !truncated)
             [ 3; 8; 24 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled kernel equals eval_prefix on small random clauses"
         ~count:300
         QCheck.(
           triple (int_range 1 4)
             (list_of_size Gen.(int_range 1 5)
                (triple (int_bound 1) (int_bound 5) (int_bound 5)))
             (list_of_size Gen.(int_range 1 10)
                (triple (int_bound 1) (int_bound 2) (int_bound 2))))
         (fun (cap, body_spec, ground_spec) ->
           (* Literals over 4 variables (0 is the head's) and 2 constants,
              so repeated variables within a literal (p(X,X)), constants
              and unconnected literals all occur; caps down to 1 force
              truncation. Verdict, witness, truncation count and ARMG mask
              must all match the oracle. *)
           let term i =
             if i < 4 then Logic.Term.Var i
             else Logic.Term.Const (Relational.Value.int (i - 4))
           in
           let lit t (p, a, b) =
             Logic.Literal.make (Printf.sprintf "p%d" p) [| t a; t b |]
           in
           let body = List.map (lit term) body_spec in
           let ground =
             List.map
               (lit (fun x -> Logic.Term.Const (Relational.Value.int x)))
               ground_spec
           in
           let c = Logic.Clause.make (Logic.Parser.literal "h(X)") body in
           let example = [| Relational.Value.int 0 |] in
           let tab = Compiled.Symtab.create () in
           let cg = Compiled.compile_ground tab ~example ground in
           let og = Oracle.ground_of_literals ground in
           let plan = Compiled.compile tab c in
           let scratch = Compiled.make_scratch () in
           let b = Budget.create () and truncated = ref 0 in
           verdict_eq
             (Compiled.eval ~cap ~budget:b scratch tab plan cg)
             (oracle_eval ~cap ~truncated c example og)
           && truncations b = !truncated
           && Compiled.generalize ~cap scratch tab plan cg
              = Option.map
                  (fun subst -> Oracle.generalize ~cap ~subst c og)
                  (Coverage.head_subst c example)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"compiled ARMG keeps the symbolic oracle's literals" ~count:12
         QCheck.(triple bool (int_bound 1000) (pair small_nat small_nat))
         (fun (sys, seed, (i, j)) ->
           (* ARMG's drop-on-empty sweep on UW and SYS data: a bottom
              clause, a reordered copy and a copy whose head is pinned to
              its seed example's first constant (so other examples fail
              the head), each generalized against another example's ground
              BC. At every cap the kept-literal mask must equal the
              oracle's, and head failure must be [None] on both sides —
              through the kernel and through the plan cache Armg uses. *)
           let s = 1 + (seed mod 17) in
           let d =
             if sys then Datasets.Sys_data.generate ~seed:s ~scale:0.05 ()
             else Datasets.Uw.generate ~seed:s ~scale:0.3 ()
           in
           let pos = Array.of_list d.Datasets.Dataset.positives in
           let examples =
             Array.of_list
               (d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives)
           in
           let e1 = pos.(i mod Array.length pos) in
           let e2 = examples.(j mod Array.length examples) in
           let bc =
             Learning.Bottom_clause.build d.Datasets.Dataset.db
               d.Datasets.Dataset.manual_bias
               ~rng:(Random.State.make [| s; 99 |])
               ~example:e1
           in
           let head = Logic.Clause.head bc and body = Logic.Clause.body bc in
           let pinned =
             match Logic.Literal.args head with
             | [| |] -> bc
             | args -> (
                 match args.(0) with
                 | Logic.Term.Var v ->
                     Logic.Clause.apply
                       (Logic.Substitution.bind v e1.(0) Logic.Substitution.empty)
                       bc
                 | Logic.Term.Const _ -> bc)
           in
           let clauses =
             [ bc; Logic.Clause.make head (List.rev body); pinned ]
           in
           let ep = Learning.Eval_plan.create () in
           let tab = Learning.Eval_plan.symtab ep in
           let comp_g, sym_g =
             grounds tab d ~rng:(Random.State.make [| s; 55 |]) e2
           in
           let scratch = Compiled.make_scratch () in
           List.for_all
             (fun c ->
               let oracle cap =
                 Option.map
                   (fun subst -> Oracle.generalize ?cap ~subst c sym_g)
                   (Coverage.head_subst c e2)
               in
               let plan = Compiled.compile tab c in
               List.for_all
                 (fun cap ->
                   Compiled.generalize ~cap scratch tab plan comp_g
                   = oracle (Some cap))
                 [ 3; 8; 24 ]
               && Learning.Eval_plan.generalize ep c comp_g = oracle None)
             clauses));
  ]

(* ---------------- Ground bottom clauses ---------------- *)

(* [Bottom_clause.ground] builds rows straight into the kernel's form; the
   oracle keeps the symbolic build as the reference. The two must agree row
   for row: same literals in the same order, offsets, per-predicate buckets and
   adjacency buckets, on every dataset, sampling strategy and body cap —
   the cap decides which tuples enter the body, while every sampled tuple
   still steers later samples through the constants it notes. *)
let ground_datasets =
  [
    ("uw", fun seed -> Datasets.Uw.generate ~seed ~scale:0.3 ());
    ("sys", fun seed -> Datasets.Sys_data.generate ~seed ~scale:0.05 ());
    ("hiv", fun seed -> Datasets.Hiv.generate ~seed ~scale:0.2 ());
    ("imdb", fun seed -> Datasets.Imdb.generate ~seed ~scale:0.2 ());
    ("flt", fun seed -> Datasets.Flt.generate ~seed ~scale:0.2 ());
  ]

let auto_bias (d : Datasets.Dataset.t) =
  (Autobias.bias_for Autobias.Auto_bias Autobias.default_config d
     ~train_pos:d.positives)
    .Autobias.bias

let ground_identity () =
  let mismatches = ref [] and checked = ref 0 in
  List.iter
    (fun (name, generate) ->
      List.iter
        (fun seed ->
          let d = generate seed in
          let examples =
            Logic.Util.take 4 d.Datasets.Dataset.positives
            @ Logic.Util.take 4 d.Datasets.Dataset.negatives
          in
          List.iter
            (fun (bias_name, bias) ->
              List.iter
                (fun strategy ->
                  List.iter
                    (fun cap ->
                      let config =
                        {
                          Learning.Bottom_clause.default_config with
                          strategy;
                          max_body_literals = cap;
                        }
                      in
                      let plan = Learning.Bottom_clause.plan d.db bias in
                      let rows = Compiled.Symtab.create ()
                      and literals = Compiled.Symtab.create () in
                      List.iteri
                        (fun i example ->
                          let rng () = Random.State.make [| seed; i |] in
                          let g =
                            Learning.Bottom_clause.ground ~config plan rows
                              ~rng:(rng ()) ~example
                          in
                          let reference =
                            Compiled.compile_ground literals ~example
                              (Oracle.ground_bottom_clause ~config d.db bias
                                 ~rng:(rng ()) ~example)
                          in
                          incr checked;
                          if Compiled.view rows g <> Compiled.view literals reference
                          then
                            mismatches :=
                              Printf.sprintf "%s seed %d %s %s cap %d example %d"
                                name seed bias_name
                                (Sampling.Strategy.to_string strategy)
                                cap i
                              :: !mismatches)
                        examples)
                    [ 1000; 40; 7 ])
                Sampling.Strategy.all)
            [ ("manual", d.Datasets.Dataset.manual_bias); ("autobias", auto_bias d) ])
        [ 3; 8 ])
    ground_datasets;
  Alcotest.(check (list string))
    (Printf.sprintf "grounds differing from the oracle's, of %d" !checked)
    [] (List.rev !mismatches)

(* Pool workers build a context's grounds concurrently, interning into one
   symbol table in whatever order they run; the grounds must not change. *)
let pooled_warm () =
  List.iter
    (fun (name, generate) ->
      let d = generate 5 in
      let bias = auto_bias d in
      let examples = d.Datasets.Dataset.positives @ d.Datasets.Dataset.negatives in
      let warmed pool =
        let cov = Coverage.create d.db bias ~rng:(Random.State.make [| 5 |]) in
        Coverage.warm ?pool cov examples;
        let tab = Learning.Eval_plan.symtab (Coverage.plans cov) in
        List.map (fun e -> Compiled.view tab (Coverage.ground_of cov e)) examples
      in
      let sequential = warmed None in
      let pooled = Pool.with_pool ~size:2 (fun p -> warmed (Some p)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d pooled grounds equal the sequential ones" name
           (List.length examples))
        true (pooled = sequential))
    (List.filter (fun (n, _) -> n = "uw" || n = "sys") ground_datasets)

(* ---------------- Steps sorted by parent runs ---------------- *)

(* Wide random clauses: h(X) and 3–8 binary body literals over 6–8
   variables, introduced literal by literal as in a bottom clause but with
   ids shuffled against that order, so a literal's lowest new variable
   often lies below variables the frontier already binds; grounds of 20–60
   literals over 6–8 values; caps 1–24. Clause constants range over one
   value more than the ground's, so some are absent from it, and one head
   in ten is a constant, which may fail to bind. A case is (cap, slot →
   variable id, head, body, ground, example value); an argument [a] is
   slot [a] when [a >= 0], else constant [-a - 1]. *)
let wide_gen =
  QCheck.Gen.(
    let* cap = int_range 1 24 in
    let* nv = int_range 6 8 in
    let* ids = shuffle_l (List.init nv Fun.id) in
    let* nvals = int_range 6 8 in
    let* nbody = int_range 3 8 in
    let const = map (fun c -> -c - 1) (int_bound nvals) in
    let arg i =
      frequency [ (9, int_bound (min (nv - 1) (i + 1))); (1, const) ]
    in
    let* head = frequency [ (9, return 0); (1, const) ] in
    let* body =
      flatten_l
        (List.init nbody (fun i -> triple (int_bound 2) (arg i) (arg i)))
    in
    let* ground =
      list_size (int_range 20 60)
        (triple (int_bound 2) (int_bound (nvals - 1)) (int_bound (nvals - 1)))
    in
    let* x = int_bound (nvals - 1) in
    return (cap, Array.of_list ids, head, body, ground, x))

let wide_case (cap, ids, head, body, ground, x) =
  let value i = Logic.Term.Const (Relational.Value.int i) in
  let term a = if a >= 0 then Logic.Term.Var ids.(a) else value (-a - 1) in
  let lit t (p, a, b) =
    Logic.Literal.make (Printf.sprintf "p%d" p) [| t a; t b |]
  in
  let clause =
    Logic.Clause.make
      (Logic.Literal.make "h" [| term head |])
      (List.map (lit term) body)
  in
  (cap, clause, List.map (lit value) ground, [| Relational.Value.int x |])

let print_wide case =
  let cap, clause, ground, example = wide_case case in
  Printf.sprintf "cap %d\n%s\nground: %s\nexample: %s" cap
    (Logic.Clause.to_string clause)
    (String.concat ", " (List.map Logic.Literal.to_string ground))
    (Relational.Value.to_string example.(0))

(* Shapes of the oracle's steps of more than 8 extensions — the steps the
   kernel orders by parent runs. [j] is the literal's lowest new variable. *)
let sorted_step_shapes ~cap frontier lit exts =
  let raw = List.concat exts in
  if List.length raw <= 8 then []
  else begin
    let parent = List.hd frontier in
    let fresh =
      List.filter (fun v -> not (Logic.Substitution.mem v parent))
        (Logic.Literal.vars lit)
    in
    let j = List.fold_left min max_int fresh in
    let below s =
      List.filter (fun (v, _) -> v < j) (Logic.Substitution.bindings s)
    in
    let producing =
      List.filter_map
        (fun (s, e) -> if e = [] then None else Some s)
        (List.combine frontier exts)
    in
    let distinct_pair ok l =
      List.exists
        (fun p ->
          List.exists
            (fun q -> Logic.Substitution.compare p q <> 0 && ok p q)
            l)
        l
    in
    let has_duplicate l =
      List.length (List.sort_uniq Logic.Substitution.compare l)
      < List.length l
    in
    List.filter_map
      (fun (name, holds) -> if holds then Some name else None)
      [
        ("sorted step", true);
        ("several parents", List.length producing >= 2);
        ( "a multi-parent run",
          distinct_pair
            (fun p q ->
              List.equal
                (fun (v, a) (w, b) -> v = w && Relational.Value.equal a b)
                (below p) (below q))
            producing );
        ("a literal binding no new variable", fresh = []);
        ( "j below every bound variable",
          fresh <> []
          && List.for_all
               (fun (v, _) -> v > j)
               (Logic.Substitution.bindings parent) );
        ("duplicate parents", has_duplicate frontier);
        ( "stride truncation",
          List.length (List.sort_uniq Logic.Substitution.compare raw) > cap );
      ]
  end

let wide_clauses () =
  (* Verdict, witness, truncation count and ARMG mask must equal the
     oracle's; every shape the run ordering handles must occur. *)
  let shapes = Hashtbl.create 8 in
  let count name = Option.value ~default:0 (Hashtbl.find_opt shapes name) in
  let prop case =
    let cap, c, ground, example = wide_case case in
    let observe frontier lit exts =
      List.iter
        (fun name -> Hashtbl.replace shapes name (1 + count name))
        (sorted_step_shapes ~cap frontier lit exts)
    in
    let tab = Compiled.Symtab.create () in
    let cg = Compiled.compile_ground tab ~example ground in
    let og = Oracle.ground_of_literals ground in
    let plan = Compiled.compile tab c in
    let scratch = Compiled.make_scratch () in
    let b = Budget.create () and truncated = ref 0 in
    verdict_eq
      (Compiled.eval ~cap ~budget:b scratch tab plan cg)
      (oracle_eval ~cap ~truncated ~observe c example og)
    && truncations b = !truncated
    && Compiled.generalize ~cap scratch tab plan cg
       = Option.map
           (fun subst -> Oracle.generalize ~cap ~observe ~subst c og)
           (Coverage.head_subst c example)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (QCheck.Test.make ~count:600
       ~name:"compiled kernel equals the oracle on wide random clauses"
       (QCheck.make ~print:print_wide wide_gen)
       prop);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d of %d sorted steps" name (count name)
           (count "sorted step"))
        true
        (count name > 0))
    [
      "several parents";
      "a multi-parent run";
      "a literal binding no new variable";
      "j below every bound variable";
      "duplicate parents";
      "stride truncation";
    ]

(* The ARMG memo answers a pair the verdict memo holds as [Covered] with
   every literal kept. That rests on [eval] and [generalize] running one
   sweep: [Covered] exactly when [generalize] keeps every literal,
   [Blocked i] (i ≥ 1) exactly when literal i is the first it drops, and
   [Blocked 0] exactly when it returns [None]. *)
let eval_is_generalize () =
  let first_dropped k =
    let rec go j =
      if j >= Array.length k then 0 else if k.(j) then go (j + 1) else j + 1
    in
    go 0
  in
  let outcomes = Hashtbl.create 3 in
  let prop case =
    let cap, c, ground, example = wide_case case in
    let tab = Compiled.Symtab.create () in
    let g = Compiled.compile_ground tab ~example ground in
    let plan = Compiled.compile tab c in
    let scratch = Compiled.make_scratch () in
    let v = Compiled.eval ~cap scratch tab plan g in
    let outcome, agree =
      match (v, Compiled.generalize ~cap scratch tab plan g) with
      | Compiled.Covered _, Some k -> ("covered", first_dropped k = 0)
      | Compiled.Blocked 0, None -> ("head blocked", true)
      | Compiled.Blocked i, Some k -> ("blocked", i >= 1 && first_dropped k = i)
      | _ -> ("mismatch", false)
    in
    Hashtbl.replace outcomes outcome ();
    agree
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 29 |])
    (QCheck.Test.make ~count:600
       ~name:"eval's verdict is generalize's first dropped literal"
       (QCheck.make ~print:print_wide wide_gen)
       prop);
  List.iter
    (fun o ->
      Alcotest.(check bool) (o ^ " cases occur") true (Hashtbl.mem outcomes o))
    [ "covered"; "blocked"; "head blocked" ]

(* ---------------- The kernel against the oracle, timed ---------------- *)

(* A beam step's candidate set on UW (scale 0.3, seed 42): the bottom
   clauses of the first 4 positives, each chained by ARMG against every
   third positive. Each candidate runs against all 54 examples on the
   kernel and on the oracle, behind the same head binding, and each pair
   is timed as the minimum of 2 runs. *)
let kernel_vs_oracle () =
  let d = Datasets.Uw.generate ~seed:42 ~scale:0.3 () in
  let db = d.Datasets.Dataset.db and bias = d.Datasets.Dataset.manual_bias in
  let positives = d.Datasets.Dataset.positives in
  let cov = Coverage.create db bias ~rng:(Random.State.make [| 42; 3 |]) in
  let rng = Random.State.make [| 42; 11 |] in
  let chain seed =
    let c = ref (Learning.Bottom_clause.build db bias ~rng ~example:seed) in
    let acc = ref [ !c ] in
    List.iteri
      (fun i e ->
        if i mod 3 = 0 then
          Option.iter
            (fun c' ->
              c := c';
              acc := c' :: !acc)
            (Learning.Armg.generalize cov !c ~example:e))
      positives;
    !acc
  in
  let candidates = List.concat_map chain (Logic.Util.take 4 positives) in
  let tab = Compiled.Symtab.create () in
  let scratch = Compiled.make_scratch () in
  let examples = positives @ d.Datasets.Dataset.negatives in
  let grounds =
    List.mapi
      (fun i e -> (e, grounds tab d ~rng:(Random.State.make [| 42; 5; i |]) e))
      examples
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let t1 = Unix.gettimeofday () in
    ignore (f ());
    (v, Float.min (t1 -. t0) (Unix.gettimeofday () -. t1))
  in
  let disagree = ref 0 and ts_k = ref [] and ts_o = ref [] in
  List.iter
    (fun c ->
      let plan = Compiled.compile tab c in
      List.iter
        (fun (e, (cg, og)) ->
          let v_k, t_k =
            time (fun () ->
                match Coverage.head_subst c e with
                | None -> Compiled.Blocked 0
                | Some _ -> Compiled.eval scratch tab plan cg)
          in
          let v_o, t_o = time (fun () -> oracle_eval c e og) in
          if not (verdict_eq v_k v_o) then incr disagree;
          ts_k := t_k :: !ts_k;
          ts_o := t_o :: !ts_o)
        grounds)
    candidates;
  let p95 ts =
    let a = Array.of_list ts in
    Array.sort compare a;
    Obs.Metrics.percentile a 0.95
  in
  let p95_k = p95 !ts_k and p95_o = p95 !ts_o in
  Alcotest.(check int)
    (Printf.sprintf "verdicts differing over %d pairs" (List.length !ts_k))
    0 !disagree;
  Alcotest.(check bool)
    (Printf.sprintf "oracle p95 %.1fus / kernel p95 %.1fus = %.2fx >= 2"
       (1e6 *. p95_o) (1e6 *. p95_k) (p95_o /. p95_k))
    true
    (p95_o >= 2. *. p95_k)

(* ---------------- The learner on the kernel ---------------- *)

let learn_uw ?pool ?(use_cache = true) ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.4 () in
  let rng = Random.State.make [| seed |] in
  (* pruning off: the golden counters below are exact subsumption-try and
     truncation counts, which the prune store would lower. Its own A/B is
     test_prune. *)
  let cov =
    Coverage.create ~use_cache ~use_pruning:false d.Datasets.Dataset.db
      d.Datasets.Dataset.manual_bias ~rng
  in
  let config = { Learn.default_config with timeout = Some 600.; pool } in
  Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
    ~negatives:d.Datasets.Dataset.negatives

let render def = Logic.Clause.definition_to_string def

(* The run recorded when ARMG still swept the symbolic frontier: the
   definition and counters a kernel that equals the oracle must reproduce,
   sequentially and on a pool. *)
let golden_definition =
  "advisedBy(X,Y) :- publication(V7,X), publication(V7,Y)\n\
   advisedBy(X,Y) :- taughtBy(V,Y,W), ta(V,X,V7)"

let check_golden r =
  Alcotest.(check string) "definition" golden_definition
    (render r.Learn.definition);
  let c = r.Learn.degradation.Budget.counters in
  Alcotest.(check int) "subsumption tries" 2717 c.Budget.subsumption_tries;
  Alcotest.(check int) "memo hits" 396 c.Budget.coverage_memo_hits;
  Alcotest.(check int) "memo misses" 2717 c.Budget.coverage_memo_misses;
  Alcotest.(check int) "frontier truncations" 1541 c.Budget.coverage_truncated

let learner_tests =
  [
    Alcotest.test_case "golden UW seed-5 learn: definition and counters" `Slow
      (fun () -> check_golden (learn_uw ~seed:5 ()));
    Alcotest.test_case "golden UW seed-5 learn on a 1-domain pool" `Slow
      (fun () ->
        check_golden
          (Pool.with_pool ~size:1 (fun p -> learn_uw ~pool:p ~seed:5 ())));
    Alcotest.test_case "golden UW seed-5 learn on 2-worker pools, calm and chaotic"
      `Slow (fun () ->
        (* ARMG chains and candidate evaluations both run on the pool: three
           domains, then faults that drop helper tasks, then faults plus
           worker kills. Every run must reproduce the sequential one. *)
        let sequential = learn_uw ~seed:5 () in
        List.iter
          (fun (label, chaos) ->
            let r =
              Pool.with_pool ~size:2 ?chaos (fun p -> learn_uw ~pool:p ~seed:5 ())
            in
            check_golden r;
            Alcotest.(check int)
              (label ^ ": candidates evaluated")
              sequential.Learn.stats.Learn.candidates_evaluated
              r.Learn.stats.Learn.candidates_evaluated)
          [
            ("calm", None);
            ("faults", Some (Chaos.create ~p_fault:0.5 ~seed:42 ()));
            ( "faults and kills",
              Some (Chaos.create ~p_fault:0.3 ~p_kill:0.05 ~seed:42 ()) );
          ]);
    Alcotest.test_case "uncached compiled run matches the cached one" `Slow
      (fun () ->
        (* The memo and the kernel compose: toggling the memo never
           changes the definition. *)
        let cached = learn_uw ~use_cache:true ~seed:5 () in
        let uncached = learn_uw ~use_cache:false ~seed:5 () in
        Alcotest.(check string) "identical definition"
          (render cached.Learn.definition)
          (render uncached.Learn.definition));
    Alcotest.test_case "coverage contexts release their scratch arenas" `Quick
      (fun () ->
        (* Every evaluation sweeps on a per-domain scratch arena. A context
           that pinned its own arena in domain-local storage would keep it
           alive after the context is dropped (a DLS slot is never freed):
           hundreds of short learns would each leak one. *)
        let d = Datasets.Uw.generate ~seed:3 ~scale:0.3 () in
        let e = List.hd d.Datasets.Dataset.positives in
        let clause =
          Logic.Parser.clause
            "advisedBy(A,B) :- publication(C,A), publication(C,B), \
             publication(D,A), publication(E,B), ta(F,A,G), taughtBy(F,B,H)"
        in
        let once () =
          let cov =
            Coverage.create ~use_cache:false d.Datasets.Dataset.db
              d.Datasets.Dataset.manual_bias ~rng:(Random.State.make [| 3 |])
          in
          ignore (Coverage.eval cov clause e)
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        once ();
        let before = live () in
        for _ = 1 to 300 do
          once ()
        done;
        let grown = live () - before in
        Alcotest.(check bool)
          (Printf.sprintf "live heap grew %d words over 300 contexts" grown)
          true
          (grown < 100_000));
  ]

let suite =
  kernel_properties
  @ Alcotest.
      [
        test_case "compiled kernel equals the oracle on wide random clauses"
          `Quick wide_clauses;
        test_case "eval is Covered exactly when generalize keeps every literal"
          `Quick eval_is_generalize;
        test_case "compiled kernel agrees with the oracle, 2x faster at p95"
          `Slow kernel_vs_oracle;
        test_case "ground bottom clauses equal the symbolic oracle's" `Slow
          ground_identity;
        test_case "a pooled warm builds the sequential warm's grounds" `Slow
          pooled_warm;
      ]
  @ learner_tests
