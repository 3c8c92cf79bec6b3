(** Explaining coverage decisions.

    Interpretability is the selling point of relational models (the paper's
    introduction leads with it — the SYS company chose relational learning
    for exactly this). This module turns a coverage decision into something
    a person can read: for a covered example, the witness substitution and
    the ground atoms supporting each body literal; for an uncovered one, the
    blocking literal — the first condition of the rule the example fails. *)

type support = {
  literal : Logic.Literal.t;  (** the clause's body literal *)
  grounded : Logic.Literal.t;  (** that literal under the witness *)
}

type t =
  | Covered of {
      witness : Logic.Substitution.t;
      supports : support list;  (** one per body literal, in clause order *)
    }
  | Not_covered of {
      blocking : Logic.Literal.t option;
          (** the paper's blocking atom; [None] when the head itself cannot
              bind to the example *)
      blocking_index : int;  (** 1-based; 0 when the head fails *)
      blocking_key : int array;
          (** the failing literal's canonical compiled key segment (the head
              segment when the head fails) — the same int-coding the
              failure-constraint store's signatures are prefixes of *)
    }

(** [explain cov clause example] explains [clause]'s decision on [example],
    using the same evaluation the learner uses. *)
let explain cov clause example =
  match Coverage.eval cov clause example with
  | Logic.Compiled.Covered witness ->
      let supports =
        List.map
          (fun literal ->
            { literal; grounded = Logic.Substitution.apply_literal witness literal })
          (Logic.Clause.body clause)
      in
      Covered { witness; supports }
  | Logic.Compiled.Blocked 0 ->
      Not_covered
        {
          blocking = None;
          blocking_index = 0;
          blocking_key = Coverage.blocking_key cov clause 0;
        }
  | Logic.Compiled.Blocked i ->
      Not_covered
        {
          blocking = List.nth_opt (Logic.Clause.body clause) (i - 1);
          blocking_index = i;
          blocking_key = Coverage.blocking_key cov clause i;
        }

let pp ppf = function
  | Covered { witness; supports } ->
      Fmt.pf ppf "@[<v>COVERED with %a@,%a@]" Logic.Substitution.pp witness
        Fmt.(
          list ~sep:cut (fun ppf s ->
              pf ppf "  %a  ⇐  %a" Logic.Literal.pp s.literal Logic.Literal.pp
                s.grounded))
        supports
  | Not_covered { blocking = None; _ } ->
      Fmt.pf ppf "NOT COVERED: the head cannot be bound to the example"
  | Not_covered { blocking = Some l; blocking_index; _ } ->
      Fmt.pf ppf "NOT COVERED: blocked at body literal %d: %a" blocking_index
        Logic.Literal.pp l

(** [explain_definition cov def example] explains the definition's decision:
    the first covering clause's explanation, or every clause's blocking
    literal when nothing covers. *)
let explain_definition cov def example =
  let rec go acc = function
    | [] -> Error (List.rev acc)
    | c :: tl -> (
        match explain cov c example with
        | Covered _ as e -> Ok (c, e)
        | Not_covered _ as e -> go ((c, e) :: acc) tl)
  in
  go [] def

let pp_definition_result ppf = function
  | Ok (clause, e) ->
      Fmt.pf ppf "@[<v>by clause: %a@,%a@]" Logic.Clause.pp clause pp e
  | Error failures ->
      Fmt.pf ppf "@[<v>no clause covers the example:@,%a@]"
        Fmt.(
          list ~sep:cut (fun ppf (c, e) ->
              pf ppf "  %a@,    %a" Logic.Clause.pp c pp e))
        failures
