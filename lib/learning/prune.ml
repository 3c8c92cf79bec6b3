(** Failure-constraint store: learn where {e not} to search.

    Every blocked coverage verdict the evaluator computes is a reusable
    fact. [Blocked i] for clause [C] on example [e] means the substitution
    frontier of the prefix [head ← L_1, …, L_i] died at [L_i] against [e]'s
    ground bottom clause — and the frontier evaluator is a deterministic
    function of exactly that prefix (later literals are never looked at
    before the frontier reaches them, and truncation subsampling is
    deterministic). So the verdict transfers to {e every} clause sharing
    that prefix: any candidate whose canonical key starts with the failure
    signature is [Blocked i] on [e], no evaluation required.

    The signature is the canonical int-coded key ({!Logic.Compiled.key}) cut
    at the end of the blocking literal's segment: cheap to extract (one
    array prefix), cheap to probe (a walk down an int trie), and exact —
    a probe hit returns the {e very verdict} the evaluator would compute,
    which is what makes pruning invisible to learned definitions
    (bit-identity at fixed seed, the same argument as the coverage memo).
    Note this is deliberately {e not} general θ-subsumption of failure
    signatures: under the capped (approximate) frontier evaluator, "body
    extends a zero-coverage clause" would not be an exact predictor, and
    exactness is what the bit-identity bar demands.

    Constraints are indexed per example in a shared-prefix trie, striped by
    example hash like the coverage memo so pool workers probing different
    examples do not contend. Contents are monotone facts (a signature once
    true stays true for the context's fixed seed and cap), so sharing the
    store across sequential-covering iterations and CV folds is safe — it
    can only save work, never change an answer. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = Hashtbl.hash
end)

let m_probes = Obs.Metrics.counter "prune.probes"
let m_hits = Obs.Metrics.counter "prune.hits"
let m_constraints = Obs.Metrics.counter "prune.constraints"

(* Trie node over key elements. [blocked >= 0] marks a stored signature
   ending here: the prefix walked so far is blocked at literal [blocked].
   Terminals only ever sit at literal-segment boundaries, and boundaries of
   keys sharing a raw prefix always align (segments are prefix-free:
   pred, arity, then exactly arity args), so a terminal found during a walk
   is a valid verdict for the probing clause too. *)
type node = { mutable blocked : int; children : node Int_tbl.t }

let new_node () = { blocked = -1; children = Int_tbl.create 4 }

type stripe = {
  lock : Mutex.t;
  roots : (Relational.Relation.tuple, node) Hashtbl.t;
  mutable entries : int;  (** stored signatures (terminals) in this stripe *)
}

let n_stripes = 16

(* Per-stripe constraint cap: like the memo's stripe cap, it bounds memory
   on long runs; a full stripe stops learning new constraints but keeps
   serving the ones it has (deterministically: insertion order under a
   fixed seed is fixed). *)
let stripe_cap = 1 lsl 12

(* Signatures longer than this are not worth storing: the trie walk to
   probe them costs about as much as the frontier steps they save, and deep
   bottom-clause prefixes almost never recur exactly. *)
let max_signature = 2048

type t = {
  stripes : stripe array;
  probes : int Atomic.t;
  hits : int Atomic.t;
}

type stats = { probes : int; hits : int; constraints : int }

let create () =
  {
    stripes =
      Array.init n_stripes (fun _ ->
          {
            lock = Mutex.create ();
            roots = Hashtbl.create 64;
            entries = 0;
          });
    probes = Atomic.make 0;
    hits = Atomic.make 0;
  }

(* Same stable structural hash the coverage context derives per-example
   RNGs from: independent of physical identity and insertion order. *)
let example_hash (example : Relational.Relation.tuple) =
  Array.fold_left (fun acc v -> (acc * 31) + Relational.Value.hash v) 17 example

let stripe_of (t : t) example =
  t.stripes.(example_hash example land max_int mod n_stripes)

let stats (t : t) =
  let constraints =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let n = acc + s.entries in
        Mutex.unlock s.lock;
        n)
      0 t.stripes
  in
  { probes = Atomic.get t.probes; hits = Atomic.get t.hits; constraints }

(** [probe t ~example ~key] — [Some i] when a stored failure signature is a
    prefix of [key]: the clause is [Blocked i] on [example], no evaluation
    needed. Walks the trie until the first terminal, a missing edge, or the
    key ends. *)
let probe (t : t) ~example ~key =
  Atomic.incr t.probes;
  Obs.Metrics.bump m_probes;
  let s = stripe_of t example in
  Mutex.lock s.lock;
  let r =
    match Hashtbl.find_opt s.roots example with
    | None -> None
    | Some root ->
        let n = Array.length key in
        (* [seg_end] is the offset one past the current literal segment;
           stepping onto it means a literal boundary was just crossed. *)
        let rec walk node p seg_end =
          if p >= n then None
          else
            match Int_tbl.find_opt node.children key.(p) with
            | None -> None
            | Some child ->
                let p = p + 1 in
                if p = seg_end then
                  if child.blocked >= 0 then Some child.blocked
                  else if p >= n then None
                  else walk child p (p + 2 + key.(p + 1))
                else walk child p seg_end
        in
        if n < 2 then None else walk root 0 (2 + key.(1))
  in
  Mutex.unlock s.lock;
  if r <> None then begin
    Atomic.incr t.hits;
    Obs.Metrics.bump m_hits
  end;
  r

(* End offset of literal segment [index] (head = 0) in a canonical key. *)
let segment_end key index =
  let p = ref 0 in
  for _ = 0 to index do
    p := !p + 2 + key.(!p + 1)
  done;
  !p

(** [learn t ~example ~key ~blocked] stores the failure signature of a
    [Blocked blocked] verdict: the prefix of [key] through the blocking
    literal's segment ([blocked = 0] means the head segment alone — the head
    cannot bind to [example] at all). Returns [true] iff a new constraint
    was stored (false: already known, subsumed by a shorter one, stripe
    full, or signature over length cap). *)
let learn (t : t) ~example ~key ~blocked =
  let stop = segment_end key blocked in
  if stop > max_signature then false
  else begin
    let s = stripe_of t example in
    Mutex.lock s.lock;
    let added =
      if s.entries >= stripe_cap then false
      else begin
        let root =
          match Hashtbl.find_opt s.roots example with
          | Some r -> r
          | None ->
              let r = new_node () in
              Hashtbl.add s.roots example r;
              r
        in
        (* Walk/extend the path; bail if an existing shorter signature
           already subsumes this one (a probe would hit it first). *)
        let rec walk node p seg_end =
          if node.blocked >= 0 && p < stop then None
          else if p >= stop then Some node
          else begin
            let child =
              match Int_tbl.find_opt node.children key.(p) with
              | Some c -> c
              | None ->
                  let c = new_node () in
                  Int_tbl.add node.children key.(p) c;
                  c
            in
            let p = p + 1 in
            if p = seg_end && p < stop then walk child p (p + 2 + key.(p + 1))
            else walk child p seg_end
          end
        in
        match walk root 0 (2 + key.(1)) with
        | None -> false
        | Some last ->
            if last.blocked >= 0 then false
            else begin
              last.blocked <- blocked;
              s.entries <- s.entries + 1;
              true
            end
      end
    in
    Mutex.unlock s.lock;
    if added then Obs.Metrics.bump m_constraints;
    added
  end
