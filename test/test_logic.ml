(* Tests for the logic substrate: terms, literals, substitutions, clauses,
   parsing, and the symbolic subsumption engines of the test oracle. *)

module Value = Relational.Value
module Term = Logic.Term
module Literal = Logic.Literal
module Substitution = Logic.Substitution
module Clause = Logic.Clause
module Parser = Logic.Parser
module Subsumption = Oracle

let v = Value.str
let lit s = Parser.literal s
let clause s = Parser.clause s

let term_tests =
  [
    Alcotest.test_case "var names are parse-able and stable" `Quick (fun () ->
        Alcotest.(check string) "0" "X" (Term.var_name 0);
        Alcotest.(check string) "6" "W" (Term.var_name 6);
        Alcotest.(check string) "9" "V9" (Term.var_name 9));
    Alcotest.test_case "var generator is sequential" `Quick (fun () ->
        let g = Term.Var_gen.create () in
        Alcotest.(check bool) "v0" true (Term.equal (Term.Var_gen.fresh g) (Term.Var 0));
        Alcotest.(check bool) "v1" true (Term.equal (Term.Var_gen.fresh g) (Term.Var 1));
        Alcotest.(check int) "count" 2 (Term.Var_gen.count g));
  ]

let literal_tests =
  [
    Alcotest.test_case "vars in first-occurrence order, deduplicated" `Quick
      (fun () ->
        let l = lit "p(X,Y,X,juan)" in
        Alcotest.(check (list int)) "vars" [ 0; 1 ] (Literal.vars l));
    Alcotest.test_case "constants extracted in order" `Quick (fun () ->
        let l = lit "p(X,juan,sarita)" in
        Alcotest.(check (list string)) "consts" [ "juan"; "sarita" ]
          (List.map Value.to_string (Literal.constants l)));
    Alcotest.test_case "tuple round-trip for ground literals" `Quick (fun () ->
        let l = lit "p(juan,sarita)" in
        Alcotest.(check bool) "ground" true (Literal.is_ground l);
        let l2 = Literal.of_tuple "p" (Literal.to_tuple l) in
        Alcotest.(check bool) "same" true (Literal.equal l l2));
    Alcotest.test_case "to_tuple rejects variables" `Quick (fun () ->
        Alcotest.check_raises "nonground"
          (Invalid_argument "Literal.to_tuple: non-ground literal") (fun () ->
            ignore (Literal.to_tuple (lit "p(X)"))));
    Alcotest.test_case "shares_var" `Quick (fun () ->
        let l = lit "p(X,Y)" in
        let set = Hashtbl.create 4 in
        Hashtbl.replace set 1 ();
        Alcotest.(check bool) "shares Y" true (Literal.shares_var l set);
        Hashtbl.reset set;
        Hashtbl.replace set 5 ();
        Alcotest.(check bool) "no V5" false (Literal.shares_var l set));
  ]

let substitution_tests =
  [
    Alcotest.test_case "extend is consistent" `Quick (fun () ->
        let s = Substitution.empty in
        let s = Option.get (Substitution.extend s 0 (v "a")) in
        Alcotest.(check bool) "same rebind ok" true
          (Option.is_some (Substitution.extend s 0 (v "a")));
        Alcotest.(check bool) "conflicting rebind fails" true
          (Option.is_none (Substitution.extend s 0 (v "b"))));
    Alcotest.test_case "match_literal binds pattern onto ground" `Quick
      (fun () ->
        let pattern = lit "p(X,Y,X)" in
        let ground = lit "p(a,b,a)" in
        match Substitution.match_literal Substitution.empty pattern ground with
        | None -> Alcotest.fail "should match"
        | Some s ->
            Alcotest.(check int) "two bindings" 2 (Substitution.cardinal s));
    Alcotest.test_case "match_literal rejects inconsistent repeats" `Quick
      (fun () ->
        let pattern = lit "p(X,X)" in
        let ground = lit "p(a,b)" in
        Alcotest.(check bool) "no match" true
          (Option.is_none
             (Substitution.match_literal Substitution.empty pattern ground)));
    Alcotest.test_case "match_literal rejects wrong predicate or arity" `Quick
      (fun () ->
        Alcotest.(check bool) "pred" true
          (Option.is_none
             (Substitution.match_literal Substitution.empty (lit "p(X)") (lit "q(a)")));
        Alcotest.(check bool) "arity" true
          (Option.is_none
             (Substitution.match_literal Substitution.empty (lit "p(X)") (lit "p(a,b)"))));
    Alcotest.test_case "apply_literal substitutes bound variables" `Quick
      (fun () ->
        let s = Option.get (Substitution.extend Substitution.empty 0 (v "a")) in
        let l = Substitution.apply_literal s (lit "p(X,Y)") in
        Alcotest.(check string) "applied" "p(a,Y)" (Literal.to_string l));
  ]

let clause_tests =
  [
    Alcotest.test_case "head-connected pruning drops islands" `Quick (fun () ->
        (* q(Z,T) is not connected to the head through any chain. *)
        let c = clause "h(X) :- p(X,Y), q(Z,T)" in
        let pruned = Clause.prune_head_connected c in
        Alcotest.(check int) "one literal" 1 (Clause.size pruned);
        Alcotest.(check string) "kept p" "p"
          (Literal.pred (List.hd (Clause.body pruned))));
    Alcotest.test_case "pruning keeps chains regardless of order" `Quick
      (fun () ->
        (* r connects to the head only through q, which appears later. *)
        let c = clause "h(X) :- r(Z,T), q(X,Z), s(U,V)" in
        let pruned = Clause.prune_head_connected c in
        Alcotest.(check int) "two kept" 2 (Clause.size pruned);
        Alcotest.(check (list string)) "order preserved" [ "r"; "q" ]
          (List.map Literal.pred (Clause.body pruned)));
    Alcotest.test_case "printing round-trips through the parser" `Quick
      (fun () ->
        let c = clause "h(X,Y) :- p(X,Z), q(Z,Y), r(Z,drama)" in
        let c2 = Parser.clause (Clause.to_string c) in
        Alcotest.(check string) "same rendering" (Clause.to_string c)
          (Clause.to_string c2));
  ]

let parser_tests =
  [
    Alcotest.test_case "variables interned left to right" `Quick (fun () ->
        let c = clause "h(A,B) :- p(B,A)" in
        Alcotest.(check string) "alpha-normal" "h(X,Y) :- p(Y,X)"
          (Clause.to_string c));
    Alcotest.test_case "quoted constants may start uppercase" `Quick (fun () ->
        let l = lit "p('Drama')" in
        Alcotest.(check string) "const" "p(Drama)" (Literal.to_string l));
    Alcotest.test_case "integers become integer values" `Quick (fun () ->
        let l = lit "p(42)" in
        match (Literal.args l).(0) with
        | Term.Const (Value.Int 42) -> ()
        | _ -> Alcotest.fail "expected Int 42");
    Alcotest.test_case "facts have empty bodies" `Quick (fun () ->
        let c = clause "h(a,b)." in
        Alcotest.(check int) "no body" 0 (Clause.size c));
    Alcotest.test_case "definition parses multiple lines with comments" `Quick
      (fun () ->
        let d =
          Parser.definition "# comment\nh(X) :- p(X)\n\nh(X) :- q(X)\n"
        in
        Alcotest.(check int) "two clauses" 2 (List.length d));
    Alcotest.test_case "malformed input raises Parse_error" `Quick (fun () ->
        List.iter
          (fun s ->
            match Parser.clause s with
            | exception Parser.Parse_error _ -> ()
            | _ -> Alcotest.fail ("should not parse: " ^ s))
          [ "h(X" ; "h(X) :- "; "h(X) p(Y)"; "(X)" ]);
  ]

(* A small ground clause used by the subsumption tests: the co-authorship
   neighbourhood from the paper's running example. *)
let ground_uw () =
  Subsumption.ground_of_literals
    (List.map lit
       [
         "student(juan)";
         "professor(sarita)";
         "inPhase(juan,post_quals)";
         "hasPosition(sarita,assistant_prof)";
         "publication(p1,juan)";
         "publication(p1,sarita)";
         "publication(p2,juan)";
       ])

let subsumption_tests =
  [
    Alcotest.test_case "positive subsumption with shared variable" `Quick
      (fun () ->
        let c = clause "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)" in
        Alcotest.(check bool) "subsumes" true (Subsumption.subsumes c (ground_uw ())));
    Alcotest.test_case "negative subsumption when join value differs" `Quick
      (fun () ->
        let c = clause "advisedBy(X,Y) :- publication(Z,X), inPhase(Z,Y)" in
        Alcotest.(check bool) "no" false (Subsumption.subsumes c (ground_uw ())));
    Alcotest.test_case "constants must match exactly" `Quick (fun () ->
        let yes = clause "h(X) :- inPhase(X,post_quals)" in
        let no = clause "h(X) :- inPhase(X,pre_quals)" in
        Alcotest.(check bool) "yes" true (Subsumption.subsumes yes (ground_uw ()));
        Alcotest.(check bool) "no" false (Subsumption.subsumes no (ground_uw ())));
    Alcotest.test_case "initial substitution constrains the head vars" `Quick
      (fun () ->
        let c = clause "advisedBy(X,Y) :- publication(Z,X), publication(Z,Y)" in
        let subst =
          Option.get (Substitution.extend Substitution.empty 0 (v "sarita"))
        in
        (* X := sarita: needs a co-author of sarita, fine (juan). But binding
           X to a non-author fails. *)
        Alcotest.(check bool) "sarita ok" true
          (Option.is_some (Subsumption.subsumes_subst ~subst c (ground_uw ())));
        let subst_bad =
          Option.get (Substitution.extend Substitution.empty 0 (v "nobody"))
        in
        Alcotest.(check bool) "nobody fails" false
          (Option.is_some
             (Subsumption.subsumes_subst ~subst:subst_bad c (ground_uw ()))));
    Alcotest.test_case "empty body subsumes trivially" `Quick (fun () ->
        Alcotest.(check bool) "trivial" true
          (Subsumption.subsumes (clause "h(X)") (ground_uw ())));
    Alcotest.test_case "prefix evaluator agrees on the blocking atom" `Quick
      (fun () ->
        let c =
          clause
            "h(X) :- publication(Z,X), publication(Z,Y), hasPosition(Y,full_prof)"
        in
        (* literals 1-2 are satisfiable (Z=p1, X=juan, Y=sarita), literal 3
           is not: blocking atom is 3. *)
        match Subsumption.eval_prefix ~subst:Substitution.empty c (ground_uw ()) with
        | Logic.Compiled.Blocked 3 -> ()
        | Logic.Compiled.Blocked i -> Alcotest.failf "blocked at %d, expected 3" i
        | Logic.Compiled.Covered _ -> Alcotest.fail "should not be covered");
    Alcotest.test_case "ground_of_literals rejects variables" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Subsumption.ground_of_literals [ lit "p(X)" ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "ground size and literal recovery" `Quick (fun () ->
        let g = ground_uw () in
        Alcotest.(check int) "size" 7 (Subsumption.ground_size g);
        Alcotest.(check int) "literals" 7 (List.length (Subsumption.ground_literals g)));
  ]

(* Property: the two engines (backtracking and frontier) agree on random
   small instances. *)
let engines_agree =
  let gen =
    QCheck.Gen.(
      let small_lit vars_n preds consts =
        let* p = int_bound (preds - 1) in
        let* a1 = int_bound (vars_n + consts - 1) in
        let* a2 = int_bound (vars_n + consts - 1) in
        let term i =
          if i < vars_n then Term.Var i
          else Term.Const (Value.int (i - vars_n))
        in
        return (Literal.make (Printf.sprintf "p%d" p) [| term a1; term a2 |])
      in
      let* body_n = int_range 1 5 in
      let* body = list_repeat body_n (small_lit 3 2 3) in
      let* ground_n = int_range 1 8 in
      let ground_lit =
        let* p = int_bound 1 in
        let* a1 = int_bound 2 in
        let* a2 = int_bound 2 in
        return
          (Literal.make (Printf.sprintf "p%d" p)
             [| Term.Const (Value.int a1); Term.Const (Value.int a2) |])
      in
      let* ground = list_repeat ground_n ground_lit in
      return (body, ground))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"backtracking and frontier engines agree"
       ~count:300
       (QCheck.make gen)
       (fun (body, ground) ->
         let c = Clause.make (lit "h(X)") body in
         let g = Subsumption.ground_of_literals ground in
         let backtracking = Subsumption.subsumes c g in
         let frontier =
           Subsumption.covers_ground ~cap:64 ~subst:Substitution.empty c g
         in
         (* The frontier engine may under-approximate only when truncation
            kicks in; with cap 64 on these tiny instances it never does, so
            the engines must agree exactly. *)
         backtracking = frontier))

let suite =
  term_tests @ literal_tests @ substitution_tests @ clause_tests @ parser_tests
  @ subsumption_tests @ [ engines_agree ]
