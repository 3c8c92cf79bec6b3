(** Substitutions θ: finite maps from variable ids to constant values.

    θ-subsumption only ever binds variables to constants (the target clause is
    ground), so the codomain is [Relational.Value.t] rather than arbitrary
    terms. *)

module Int_map = Map.Make (Int)

type t = Relational.Value.t Int_map.t

let empty : t = Int_map.empty
let compare (a : t) b = Int_map.compare Relational.Value.compare a b
let find_opt v (s : t) = Int_map.find_opt v s
let bind v value (s : t) : t = Int_map.add v value s
let mem v (s : t) = Int_map.mem v s
let cardinal (s : t) = Int_map.cardinal s
let bindings (s : t) = Int_map.bindings s

(** [extend s v value] is [Some] of [s] with [v ↦ value] added, or [None] if
    [v] is already bound to a different value. *)
let extend (s : t) v value =
  match Int_map.find_opt v s with
  | None -> Some (Int_map.add v value s)
  | Some existing ->
      if Relational.Value.equal existing value then Some s else None

(** [apply_term s t] replaces a bound variable with its constant, leaving
    unbound variables and constants untouched. *)
let apply_term (s : t) = function
  | Term.Const _ as c -> c
  | Term.Var i as v -> (
      match Int_map.find_opt i s with
      | Some value -> Term.Const value
      | None -> v)

(** [apply_literal s l] applies [s] to every argument of [l]. *)
let apply_literal (s : t) (l : Literal.t) =
  Literal.make (Literal.pred l) (Array.map (apply_term s) (Literal.args l))

(** [match_literal s pattern ground] extends [s] so that [pattern] becomes
    [ground], or returns [None] if impossible. [ground] must be ground. *)
let match_literal (s : t) (pattern : Literal.t) (ground : Literal.t) =
  if
    (not (String.equal (Literal.pred pattern) (Literal.pred ground)))
    || Literal.arity pattern <> Literal.arity ground
  then None
  else begin
    let pa = Literal.args pattern and ga = Literal.args ground in
    let rec go i s =
      if i >= Array.length pa then Some s
      else
        match (pa.(i), ga.(i)) with
        | Term.Const c, Term.Const g ->
            if Relational.Value.equal c g then go (i + 1) s else None
        | Term.Var v, Term.Const g -> (
            match extend s v g with
            | Some s -> go (i + 1) s
            | None -> None)
        | _, Term.Var _ -> invalid_arg "Substitution.match_literal: non-ground"
    in
    go 0 s
  end

let pp ppf (s : t) =
  Fmt.pf ppf "{%a}"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (v, value) ->
          pf ppf "%s ↦ %a" (Term.var_name v) Relational.Value.pp_short value))
    (bindings s)
