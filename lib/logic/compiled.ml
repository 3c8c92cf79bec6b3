(** Clause compilation: the int-coded θ-subsumption kernel behind coverage
    testing (Section 5) and ARMG (Section 2.3.2).

    Coverage testing and ARMG run the same left-to-right substitution-frontier
    sweep millions of times over the same ground bottom clauses, so this
    module compiles both sides of the test once:

    - predicate symbols, constants and ground tuples are {e interned} into
      contiguous int ids ({!Symtab}); a tuple's values are interned once per
      table;
    - a ground bottom clause is a sequence of interned tuples (rows),
      flattened into int arrays of {e local} ids: the ground's own constants
      numbered 0…n−1 in [Value.compare] order ({!ground_of_rows}). Its
      per-predicate and per-(predicate, position, local id) adjacency
      indexes are keyed by one int each: the ground bounds both its widest
      arity and its local ids, so packing the triple is injective and a
      probe allocates nothing;
    - a candidate clause is compiled into a {!plan}: dense variable
      numbering, int-coded head and body, and a canonical int key that
      keys the coverage memo;
    - the sweep runs over reusable {!scratch} arenas — substitutions are
      int arrays of local ids indexed by dense variable id, frontiers are
      index arrays into a pair of swap banks — so a frontier step is loops
      over ints with no per-step allocation. A plan literal's constants are
      mapped to local ids when the sweep reaches it; a constant the ground
      lacks matches nothing.

    {b The frontier.} Each body literal extends every frontier substitution
    by its matches in the ground (fair expansion: each substitution gets an
    equal share of a [3 × cap] budget). A step of more than 8 extensions is
    put in ascending order and deduplicated, and at most [cap]
    substitutions are kept: a rotation below the cap, so a truncated tail
    gets its turn at the next literal, else a stride-spread sample that
    preserves binding diversity (a [Coverage_truncated] budget hit — the
    point where the test under-approximates). {!eval} stops at the first
    literal whose frontier dies (the {e blocking atom}); {!generalize} drops
    that literal and carries the previous frontier on.

    {b Ordering a step.} An extension repeats its parent's bindings, and the
    previous frontier's order is known (sorted, sorted and rotated, or at
    most 8 raw entries, sorted on the spot). So a step is not sorted from
    scratch: parents agreeing on every variable below the literal's lowest
    newly bound one form a run, runs keep their parents' order, and only
    each run's extensions are sorted, from that variable on. A sorted,
    deduplicated sequence is unique, so this yields exactly the full sort's
    frontier.

    {b Determinism.} The sweep replicates the symbolic reference engine the
    tests keep as an oracle — same verdicts, same witnesses, same truncation
    counts, same ARMG kept literals. The invariants that make this work:

    - local ids are ranks in [Value.compare] order over the ground's own
      values, so comparing two local ids {e is} comparing their values, and
      the numbering depends on nothing but those values: concurrent
      interning by pool workers, which permutes symbol-table ids, cannot
      change any comparison;
    - after each frontier step every substitution binds the same variable
      set, so [Substitution.compare] (an [Int_map.compare]) reduces to
      lexicographic [Value.compare] over ascending variable id — replicated
      here by assigning dense ids in ascending original-id order;
    - adjacency buckets keep reverse-insertion order, and candidate
      selection probes the smallest bound-position bucket with the earliest
      position winning ties. *)

module Value = Relational.Value

(* The int hash of plan keys, tuple rows and adjacency keys, reading every
   element: the polymorphic [Hashtbl.hash] stops after ten ints, so plan
   keys sharing a head and their first body literal — one ARMG lineage —
   would all collide. FNV-1a over whole ints, then a final avalanche that
   spreads the entropy into the high bits too. *)
let hash_mix h x = (h lxor x) * 0x100000001b3

let hash_finish h =
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

let hash_seed = 0x4bf29ce484222325

(** {1 Symbol table} *)

(* A ground literal interned once per symbol table: [args] are the const
   ids of its tuple, [id] numbers the distinct (predicate, tuple) pairs. *)
type row = { id : int; pred : int; args : int array }

module Symtab = struct
  (* Rows are keyed by predicate id and the tuple's values. *)
  module Tuple_tbl = Hashtbl.Make (struct
    type t = int * Value.t array

    let equal ((p, a) : t) (q, b) =
      p = q && Array.length a = Array.length b && Array.for_all2 Value.equal a b

    let hash ((p, a) : t) =
      let h = ref (hash_mix hash_seed p) in
      for i = 0 to Array.length a - 1 do
        h :=
          hash_mix !h
            (match a.(i) with Value.Int n -> n | Value.Str s -> Hashtbl.hash s)
      done;
      hash_finish !h
  end)

  type t = {
    lock : Mutex.t;
    preds : (string, int) Hashtbl.t;
    consts : int Value.Table.t;
    mutable values : Value.t array;  (** id → value (reverse array) *)
    mutable n_values : int;
    rows : row Tuple_tbl.t;
  }

  let create () =
    {
      lock = Mutex.create ();
      preds = Hashtbl.create 64;
      consts = Value.Table.create 1024;
      values = Array.make 1024 (Value.Int 0);
      n_values = 0;
      rows = Tuple_tbl.create 1024;
    }

  let pred_id t p =
    Mutex.lock t.lock;
    let id =
      match Hashtbl.find_opt t.preds p with
      | Some id -> id
      | None ->
          let id = Hashtbl.length t.preds in
          Hashtbl.add t.preds p id;
          id
    in
    Mutex.unlock t.lock;
    id

  (* The caller holds [t.lock]. *)
  let intern t v =
    match Value.Table.find_opt t.consts v with
    | Some id -> id
    | None ->
        let id = t.n_values in
        if id >= Array.length t.values then begin
          let bigger = Array.make (2 * Array.length t.values) (Value.Int 0) in
          Array.blit t.values 0 bigger 0 t.n_values;
          t.values <- bigger
        end;
        t.values.(id) <- v;
        t.n_values <- id + 1;
        Value.Table.add t.consts v id;
        id

  let const_id t v =
    Mutex.lock t.lock;
    let id = intern t v in
    Mutex.unlock t.lock;
    id

  (* One probe per sampled tuple: a tuple seen before, by any build on
     this table, costs a hash of its values and no interning. *)
  let row t ~pred tuple =
    let key = (pred, tuple) in
    Mutex.lock t.lock;
    let r =
      match Tuple_tbl.find_opt t.rows key with
      | Some r -> r
      | None ->
          let r =
            { id = Tuple_tbl.length t.rows; pred; args = Array.map (intern t) tuple }
          in
          Tuple_tbl.add t.rows key r;
          r
    in
    Mutex.unlock t.lock;
    r

  (* The reverse array as of now: every id interned so far indexes it, and
     no id it holds is ever rewritten (growth copies into a new array). *)
  let values t =
    Mutex.lock t.lock;
    let v = t.values in
    Mutex.unlock t.lock;
    v

  let pred_names t =
    Mutex.lock t.lock;
    let names = Array.make (Hashtbl.length t.preds) "" in
    Hashtbl.iter (fun p id -> names.(id) <- p) t.preds;
    Mutex.unlock t.lock;
    names
end

let row_id r = r.id
let row_args r = r.args

(** {1 Compiled ground clauses} *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)

(* Packed adjacency keys carry structure in their low bits (consecutive
   local ids), so they are mixed before bucketing. *)
module Packed_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = hash_finish (hash_mix hash_seed x)
end)

type ground = {
  g_pred : int array;  (** literal index → predicate id *)
  g_off : int array;  (** literal index → offset into [g_args]; length n+1 *)
  g_args : int array;  (** flattened local ids of every literal *)
  g_vals : Value.t array;
      (** local id → value, ascending in [Value.compare]: the ground's
          distinct constants, its example's included *)
  g_local : int Int_tbl.t;  (** symbol-table const id → local id *)
  g_width : int;  (** the widest literal's arity (at least 1) *)
  g_by_pred : int array Int_tbl.t;
      (** predicate id → literal indexes, {e reverse} insertion order (the
          order the reference engine's prepend-built buckets iterate in) *)
  g_adj : int array Packed_tbl.t;
      (** {!adj_key} (pred, pos, local id) → literal indexes, reverse
          insertion order *)
  g_example : int array;  (** the example tuple's local ids *)
}

let ground_size g = Array.length g.g_pred

(* Injective on [0 ≤ pos < g_width] and [0 ≤ local < |g_vals|], the only
   triples the ground indexes or the sweep probes. *)
let adj_key g ~pred ~pos local =
  (((pred * g.g_width) + pos) * Array.length g.g_vals) + local

(* The local id of symbol-table const id [c], or [-1] when the ground does
   not hold [c]. *)
let local_of g c =
  match Int_tbl.find g.g_local c with l -> l | exception Not_found -> -1

(* A domain's workspace for numbering a ground's constants: const id → its
   slot in the ground being built, valid where [seen] holds that build's
   stamp, so nothing is cleared between builds. Grown to the largest const
   id met; a domain builds one ground at a time. *)
type numbering = {
  mutable stamp : int;
  mutable seen : int array;
  mutable slot : int array;
}

let numbering =
  Domain.DLS.new_key (fun () -> { stamp = 0; seen = [||]; slot = [||] })

(** [ground_of_rows tab ~example rows] — the ground whose body is [rows] in
    order (a row listed twice is two literals), with [example] interned
    alongside so evaluation never touches the symbol table. The ground's
    constants are numbered by value first; the indexes are then built from
    the rows' predicates and local ids alone. *)
let ground_of_rows tab ~example rows =
  let n = Array.length rows in
  let example = Array.map (Symtab.const_id tab) example in
  let total = Array.fold_left (fun acc r -> acc + Array.length r.args) 0 rows in
  (* Slots in first-seen order, one per distinct const id: [g_args] and
     [ex] hold slots until the slots are ranked by value. *)
  let w = Domain.DLS.get numbering in
  w.stamp <- w.stamp + 1;
  let stamp = w.stamp and ids = Array.make (total + Array.length example) 0 in
  let m = ref 0 in
  let slot c =
    if c >= Array.length w.seen then begin
      let grow a = Array.append a (Array.make (c + 1 + Array.length a) 0) in
      w.seen <- grow w.seen;
      w.slot <- grow w.slot
    end;
    if w.seen.(c) = stamp then w.slot.(c)
    else begin
      w.seen.(c) <- stamp;
      w.slot.(c) <- !m;
      ids.(!m) <- c;
      incr m;
      !m - 1
    end
  in
  let g_off = Array.make (n + 1) 0 and g_args = Array.make (max 1 total) 0 in
  Array.iteri
    (fun i r ->
      let off = g_off.(i) in
      Array.iteri (fun pos c -> g_args.(off + pos) <- slot c) r.args;
      g_off.(i + 1) <- off + Array.length r.args)
    rows;
  let ex = Array.map slot example in
  let m = !m and vals = Symtab.values tab in
  let by_value = Array.init m Fun.id in
  Array.stable_sort
    (fun i j -> Value.compare vals.(ids.(i)) vals.(ids.(j)))
    by_value;
  let local = Array.make m 0 and g_local = Int_tbl.create m in
  Array.iteri
    (fun l i ->
      local.(i) <- l;
      Int_tbl.add g_local ids.(i) l)
    by_value;
  for k = 0 to total - 1 do
    g_args.(k) <- local.(g_args.(k))
  done;
  let g =
    {
      g_pred = Array.map (fun r -> r.pred) rows;
      g_off;
      g_args;
      g_vals = Array.map (fun i -> vals.(ids.(i))) by_value;
      g_local;
      g_width =
        Array.fold_left (fun acc r -> max acc (Array.length r.args)) 1 rows;
      g_by_pred = Int_tbl.create 16;
      g_adj = Packed_tbl.create 64;
      g_example = Array.map (fun i -> local.(i)) ex;
    }
  in
  let by_pred = Int_tbl.create 16 and adj = Packed_tbl.create 64 in
  let push find add tbl key i =
    match find tbl key with
    | b -> b := i :: !b
    | exception Not_found -> add tbl key (ref [ i ])
  in
  Array.iteri
    (fun i r ->
      push Int_tbl.find Int_tbl.add by_pred r.pred i;
      for pos = 0 to Array.length r.args - 1 do
        push Packed_tbl.find Packed_tbl.add adj
          (adj_key g ~pred:r.pred ~pos g_args.(g_off.(i) + pos))
          i
      done)
    rows;
  (* Array.of_list keeps the prepend-reversed order, matching the reference
     engine's bucket iteration order exactly. *)
  Int_tbl.iter (fun p b -> Int_tbl.add g.g_by_pred p (Array.of_list !b)) by_pred;
  Packed_tbl.iter (fun k b -> Packed_tbl.add g.g_adj k (Array.of_list !b)) adj;
  g

(** [compile_ground tab ~example lits] — {!ground_of_rows} of ground
    literals [lits]. Raises [Invalid_argument] on a non-ground literal. *)
let compile_ground tab ~example lits =
  let row l =
    Symtab.row tab
      ~pred:(Symtab.pred_id tab (Literal.pred l))
      (Array.map
         (function
           | Term.Const v -> v
           | Term.Var _ ->
               invalid_arg ("Compiled.compile_ground: " ^ Literal.to_string l))
         (Literal.args l))
  in
  ground_of_rows tab ~example (Array.of_list (List.map row lits))

type ground_view = {
  literals : (string * Value.t array) array;
  offsets : int array;
  by_pred : (string * int array) list;
  adjacency : ((string * int * Value.t) * int array) list;
  example : Value.t array;
}

let view tab g =
  let names = Symtab.pred_names tab and nv = Array.length g.g_vals in
  let sorted l = List.sort compare l in
  {
    literals =
      Array.mapi
        (fun i p ->
          ( names.(p),
            Array.init (g.g_off.(i + 1) - g.g_off.(i)) (fun k ->
                g.g_vals.(g.g_args.(g.g_off.(i) + k))) ))
        g.g_pred;
    offsets = Array.copy g.g_off;
    by_pred =
      sorted (Int_tbl.fold (fun p b acc -> (names.(p), b) :: acc) g.g_by_pred []);
    adjacency =
      sorted
        (Packed_tbl.fold
           (fun k b acc ->
             let pp = k / nv in
             ( (names.(pp / g.g_width), pp mod g.g_width, g.g_vals.(k mod nv)),
               b )
             :: acc)
           g.g_adj []);
    example = Array.map (fun l -> g.g_vals.(l)) g.g_example;
  }

(** {1 Compiled clause plans} *)

(* Argument encoding: a const id [c] is stored as [c] (≥ 0), a dense
   variable [v] as [-v - 1] (< 0). The canonical key uses the same scheme
   but with {e original} variable ids, so it distinguishes exactly the
   clauses [Clause.to_string] distinguishes (α-variants stay distinct —
   memoized witnesses mention original variable ids). *)

type plan = {
  p_nvars : int;
  p_var_ids : int array;
      (** dense id → original id, ascending — the order [Int_map.compare]
          iterates, which is what makes the dense comparator below agree
          with [Substitution.compare] *)
  p_head : int array;  (** encoded head args (dense vars) *)
  p_pred : int array;  (** body literal → predicate id *)
  p_args : int array array;  (** body literal → encoded args (dense vars) *)
  p_key : int array;  (** canonical memo key *)
  p_hash : int;  (** [hash_key p_key], computed once at compile time *)
}

let key p = p.p_key
let key_hash p = p.p_hash

let hash_key k = hash_finish (Array.fold_left hash_mix hash_seed k)
let n_body p = Array.length p.p_pred

(* The canonical key is a prefix-free concatenation of per-literal segments
   [pred; arity; args...] (head first, body in order), so segment boundaries
   are recoverable from the key alone: read a pred, an arity, then exactly
   arity args. *)
let key_bounds k =
  let n = Array.length k in
  let acc = ref [ 0 ] and p = ref 0 in
  while !p < n do
    p := !p + 2 + k.(!p + 1);
    acc := !p :: !acc
  done;
  Array.of_list (List.rev !acc)

let key_segment k ~index =
  let b = key_bounds k in
  Array.sub k b.(index) (b.(index + 1) - b.(index))

(** [compile tab clause] — int-code [clause] against [tab]. Pure up to
    interning: recompiling yields an equal plan, so an evicted plan cache
    never changes results. *)
let compile tab clause =
  let head = Clause.head clause and body = Clause.body clause in
  (* Dense variable ids in ascending original-id order. *)
  let var_set = Hashtbl.create 16 in
  let add_vars l =
    List.iter (fun v -> Hashtbl.replace var_set v ()) (Literal.vars l)
  in
  add_vars head;
  List.iter add_vars body;
  let p_var_ids =
    Hashtbl.fold (fun v () acc -> v :: acc) var_set []
    |> List.sort compare |> Array.of_list
  in
  let dense = Hashtbl.create 16 in
  Array.iteri (fun d v -> Hashtbl.replace dense v d) p_var_ids;
  let encode_arg ~original = function
    | Term.Const v -> Symtab.const_id tab v
    | Term.Var v -> if original then -v - 1 else -Hashtbl.find dense v - 1
  in
  let encode ~original l =
    Array.map (encode_arg ~original) (Literal.args l)
  in
  let p_head = encode ~original:false head in
  let p_pred =
    Array.of_list (List.map (fun l -> Symtab.pred_id tab (Literal.pred l)) body)
  in
  let p_args = Array.of_list (List.map (encode ~original:false) body) in
  (* Canonical key: [pred; arity; args...] for the head then each body
     literal, args carrying original variable ids. Reading pred then arity
     then exactly arity args makes the encoding prefix-free, hence
     injective given injective interning. *)
  let buf = ref [] in
  let push_lit l =
    let args = encode ~original:true l in
    buf := List.rev_append (Array.to_list args)
        (Literal.arity l :: Symtab.pred_id tab (Literal.pred l) :: !buf)
  in
  push_lit head;
  List.iter push_lit body;
  let p_key = Array.of_list (List.rev !buf) in
  {
    p_nvars = Array.length p_var_ids;
    p_var_ids;
    p_head;
    p_pred;
    p_args;
    p_key;
    p_hash = hash_key p_key;
  }

(** {1 Scratch arenas} *)

(* A substitution is an int array of length ≥ nvars, [-1] = unbound. The
   frontier is a bank of substitution buffers plus an index array giving
   its logical order; steps generate into the other bank, then the banks
   swap. Capacity: a step generates at most [frontier_n · per_subst] ≤
   [max (2·cap) (3·cap)] extensions, so [3·cap + 4] slots per bank cover
   any frontier the evaluator can produce (+ slack for the initial
   singleton and cap < 2 corner cases). *)

type scratch = {
  mutable s_nvars : int;  (** current buffer width *)
  mutable s_slots : int;  (** per-bank slot count *)
  mutable bank_a : int array array;
  mutable bank_b : int array array;
  mutable idx_a : int array;
  mutable idx_b : int array;
  mutable ord : int array;  (** logical-order workspace *)
  mutable aux : int array;  (** merge-sort workspace *)
  mutable first : int array;
      (** frontier position → its first extension; one past the last
          parent, the extension count *)
  mutable par : int array;  (** frontier positions in ascending order *)
  mutable largs : int array;
      (** the current literal's args, its constants as local ids *)
}

let make_scratch () =
  {
    s_nvars = 0;
    s_slots = 0;
    bank_a = [||];
    bank_b = [||];
    idx_a = [||];
    idx_b = [||];
    ord = [||];
    aux = [||];
    first = [||];
    par = [||];
    largs = [||];
  }

let ensure_scratch s ~nvars ~cap =
  let slots = (3 * cap) + 4 in
  if slots > s.s_slots then begin
    s.s_slots <- slots;
    s.bank_a <- Array.make slots [||];
    s.bank_b <- Array.make slots [||];
    s.idx_a <- Array.make slots 0;
    s.idx_b <- Array.make slots 0;
    s.ord <- Array.make slots 0;
    s.aux <- Array.make slots 0;
    s.first <- Array.make slots 0;
    s.par <- Array.make slots 0;
    s.s_nvars <- 0 (* buffers are stale; force re-widening below *)
  end;
  if nvars > s.s_nvars then begin
    s.s_nvars <- nvars;
    for i = 0 to s.s_slots - 1 do
      s.bank_a.(i) <- Array.make nvars (-1);
      s.bank_b.(i) <- Array.make nvars (-1)
    done
  end

(* Sorts [ord.(lo..hi-1)] by [cmp] in place, using [aux.(lo..hi-1)]:
   insertion sort on blocks of 8, then bottom-up merges. A step's runs are
   mostly 2–3 extensions long, so most calls never merge. Equal elements
   are identical substitutions here, so stability does not matter. *)
let sort_range ord aux lo hi cmp =
  let block = 8 in
  let b = ref lo in
  while !b < hi do
    let e = min hi (!b + block) in
    for i = !b + 1 to e - 1 do
      let x = ord.(i) in
      let k = ref (i - 1) in
      while !k >= !b && cmp ord.(!k) x > 0 do
        ord.(!k + 1) <- ord.(!k);
        decr k
      done;
      ord.(!k + 1) <- x
    done;
    b := e
  done;
  let width = ref block in
  while !width < hi - lo do
    let l = ref lo in
    while !l < hi - !width do
      let mid = !l + !width in
      let h = min hi (mid + !width) in
      let i = ref !l and j = ref mid and k = ref !l in
      while !i < mid && !j < h do
        if cmp ord.(!i) ord.(!j) <= 0 then begin
          aux.(!k) <- ord.(!i);
          incr i
        end
        else begin
          aux.(!k) <- ord.(!j);
          incr j
        end;
        incr k
      done;
      while !i < mid do
        aux.(!k) <- ord.(!i);
        incr i;
        incr k
      done;
      while !j < h do
        aux.(!k) <- ord.(!j);
        incr j;
        incr k
      done;
      (* not [Array.blit]: see the frontier copy in [sweep] *)
      for i = !l to h - 1 do
        ord.(i) <- aux.(i)
      done;
      l := !l + (2 * !width)
    done;
    width := 2 * !width
  done

(* Lexicographic order of two substitutions over variables [from..nvars-1].
   Both bind the same variables (see the header), so [-1] meets [-1]; local
   ids are ranks by value, so comparing them agrees with
   [Substitution.compare]. *)
let compare_from (a : int array) (b : int array) from nvars =
  let r = ref 0 and v = ref from in
  while !r = 0 && !v < nvars do
    let x = a.(!v) and y = b.(!v) in
    if x <> y then r := if x < y then -1 else 1;
    incr v
  done;
  !r

(* How a frontier's logical order relates to its ascending order: sorted
   and stride-sampled, sorted and rotated left by one (the least entry
   last), or raw extensions (at most 8) in no useful order. *)
type order = Ascending | Rotated | Raw

let empty_bucket = [||]

(** {1 Evaluation} *)

type verdict = Covered of Substitution.t | Blocked of int

let default_frontier_cap = 24

(* Head binding (the compiled [Coverage.head_subst]) into [bank_a.(0)], the
   sweep's initial frontier: const head args compare by local id against
   the example, var args bind. *)
let bind_head scratch plan g ~cap =
  ensure_scratch scratch ~nvars:plan.p_nvars ~cap;
  Array.length plan.p_head = Array.length g.g_example
  && begin
       let buf = scratch.bank_a.(0) in
       Array.fill buf 0 plan.p_nvars (-1);
       let ok = ref true in
       Array.iteri
         (fun i a ->
           if !ok then
             if a >= 0 then begin
               if local_of g a <> g.g_example.(i) then ok := false
             end
             else begin
               let v = -a - 1 in
               if buf.(v) = -1 then buf.(v) <- g.g_example.(i)
               else if buf.(v) <> g.g_example.(i) then ok := false
             end)
         plan.p_head;
       !ok
     end

(* The left-to-right frontier sweep behind both {!eval} and {!generalize},
   from the head binding [bind_head] left in [bank_a.(0)]. A literal whose
   frontier dies either ends the sweep ([kept = None]: coverage's blocking
   atom) or, in drop-on-empty mode ([kept = Some k]: ARMG), is marked
   [k.(lit) <- false] while the previous frontier carries on to the next
   literal. Returns the 1-based blocking index (0 once every literal is
   swept) and the final frontier's first substitution. *)
let sweep ~cap ?budget ~kept scratch plan g =
  let nvars = plan.p_nvars in
  (* Frontier state: [cur_bank.(cur_idx.(0..n-1))] in logical order, which
     [order] relates to ascending order (the head binding is a singleton). *)
  let cur_bank = ref scratch.bank_a
  and nxt_bank = ref scratch.bank_b
  and cur_idx = ref scratch.idx_a
  and nxt_idx = ref scratch.idx_b in
  !cur_idx.(0) <- 0;
  let n = ref 1 in
  let order = ref Ascending in
  let first = scratch.first in
  let blocked = ref 0 in
  let nlits = Array.length plan.p_pred in
  let li = ref 0 in
  while !blocked = 0 && !li < nlits do
    let lit = !li in
    let pred = plan.p_pred.(lit) in
    let arity = Array.length plan.p_args.(lit) in
    if Array.length scratch.largs < arity then
      scratch.largs <- Array.make arity 0;
    (* The literal in local ids. A constant the ground lacks matches no
       ground literal, so no parent extends. *)
    let args = scratch.largs and matchable = ref true in
    Array.iteri
      (fun pos a ->
        if a >= 0 then begin
          let l = local_of g a in
          if l < 0 then matchable := false;
          args.(pos) <- l
        end
        else args.(pos) <- a)
      plan.p_args.(lit);
    let per_subst = max 2 (3 * cap / max 1 !n) in
    let out_n = ref 0 in
    (* Expansion: for each frontier substitution, probe the smallest
       bound-position bucket (earliest position wins ties — the reference
       tie rule) and keep the first [per_subst] successful extensions in
       bucket order. Each parent's extensions are contiguous from
       [first.(fi)]. *)
    for fi = 0 to (if !matchable then !n else 0) - 1 do
      first.(fi) <- !out_n;
      let s = !cur_bank.(!cur_idx.(fi)) in
      let best = ref empty_bucket and best_len = ref (-1) in
      for pos = 0 to arity - 1 do
        let a = args.(pos) in
        let bound = if a >= 0 then a else s.(-a - 1) in
        if bound >= 0 then begin
          let bucket =
            if pos >= g.g_width then empty_bucket
            else
              try Packed_tbl.find g.g_adj (adj_key g ~pred ~pos bound)
              with Not_found -> empty_bucket
          in
          let len = Array.length bucket in
          if !best_len < 0 || len < !best_len then begin
            best := bucket;
            best_len := len
          end
        end
      done;
      let bucket =
        if !best_len >= 0 then !best
        else
          try Int_tbl.find g.g_by_pred pred with Not_found -> empty_bucket
      in
      let matched = ref 0 and k = ref 0 in
      let blen = Array.length bucket in
      while !matched < per_subst && !k < blen do
        let gl = bucket.(!k) in
        incr k;
        let goff = g.g_off.(gl) in
        if g.g_off.(gl + 1) - goff = arity then begin
          (* Constants and variables [s] already binds are checked before
             [s] is copied: a copy costs [nvars] words, and bottom clauses
             (ARMG's input) bind hundreds of variables. *)
          let ok = ref true and pos = ref 0 in
          while !ok && !pos < arity do
            let a = args.(!pos) in
            let gv = g.g_args.(goff + !pos) in
            if a >= 0 then begin
              if a <> gv then ok := false
            end
            else begin
              let b = s.(-a - 1) in
              if b >= 0 && b <> gv then ok := false
            end;
            incr pos
          done;
          if !ok then begin
            let buf = !nxt_bank.(!out_n) in
            (* A typed loop, not [Array.blit]: into a major-heap array (the
               arenas live there) [Array.blit] copies through the write
               barrier, about twice the cost per word. *)
            for i = 0 to nvars - 1 do
              buf.(i) <- s.(i)
            done;
            (* Bind the rest; a variable the literal repeats must bind one
               value. *)
            pos := 0;
            while !ok && !pos < arity do
              let a = args.(!pos) in
              if a < 0 then begin
                let v = -a - 1 and gv = g.g_args.(goff + !pos) in
                if buf.(v) = -1 then buf.(v) <- gv
                else if buf.(v) <> gv then ok := false
              end;
              incr pos
            done;
            if !ok then begin
              incr out_n;
              incr matched
            end
          end
        end
      done
    done;
    first.(!n) <- !out_n;
    if !out_n = 0 then begin
      match kept with
      | None -> blocked := lit + 1
      | Some k ->
          (* Dropping the literal leaves the surviving prefix's frontier
             untouched: only [nxt_bank] was written. *)
          k.(lit) <- false;
          incr li
    end
    else begin
      let out_n = !out_n in
      let ord = scratch.ord in
      (* Logical order of the raw extensions: the reference engine builds
         its list by prepending, so generation order reversed; steps over 8
         are put in ascending order and deduplicated instead, run by run. *)
      let m =
        if out_n <= 8 then begin
          for i = 0 to out_n - 1 do
            ord.(i) <- out_n - 1 - i
          done;
          out_n
        end
        else begin
          (* Sorting by parent runs. Let [j] be the literal's lowest newly
             bound variable. An extension repeats its parent on every
             variable below [j], so in ascending order the extensions
             follow their parents' order on that prefix: the sorted step is
             the runs of parents agreeing below [j], in ascending parent
             order, each run's extensions sorted and deduplicated from [j]
             on. Extensions of different runs differ below [j], so they are
             never duplicates. With first-appearance variable ids (bottom
             clauses) each run is one parent; with [j] below every bound
             variable the one run is the whole step. *)
          let cur = !cur_bank and ci = !cur_idx and nn = !n in
          let j = ref nvars in
          let s0 = cur.(ci.(0)) in
          for pos = 0 to arity - 1 do
            let a = args.(pos) in
            if a < 0 && -a - 1 < !j && s0.(-a - 1) = -1 then j := -a - 1
          done;
          let j = !j in
          let par = scratch.par in
          let shift = if !order = Rotated then nn - 1 else 0 in
          for r = 0 to nn - 1 do
            par.(r) <- (r + shift) mod nn
          done;
          if !order = Raw then
            sort_range par scratch.aux 0 nn (fun p q ->
                compare_from cur.(ci.(p)) cur.(ci.(q)) 0 nvars);
          let bank = !nxt_bank in
          let cmp x y = compare_from bank.(x) bank.(y) j nvars in
          let m = ref 0 and r = ref 0 in
          while !r < nn do
            let lead = cur.(ci.(par.(!r))) in
            let e = ref (!r + 1) and same = ref true in
            while !same && !e < nn do
              let s = cur.(ci.(par.(!e))) and v = ref 0 in
              while !v < j && lead.(!v) = s.(!v) do
                incr v
              done;
              if !v = j then incr e else same := false
            done;
            let lo = !m and hi = ref !m in
            for q = !r to !e - 1 do
              let p = par.(q) in
              for x = first.(p) to first.(p + 1) - 1 do
                ord.(!hi) <- x;
                incr hi
              done
            done;
            if !hi > lo then begin
              sort_range ord scratch.aux lo !hi cmp;
              m := lo + 1;
              for i = lo + 1 to !hi - 1 do
                if cmp ord.(!m - 1) ord.(i) <> 0 then begin
                  ord.(!m) <- ord.(i);
                  incr m
                end
              done
            end;
            r := !e
          done;
          !m
        end
      in
      (* Rotation (≤ cap) or stride truncation (> cap). *)
      if m <= cap then begin
        for i = 1 to m - 1 do
          !nxt_idx.(i - 1) <- ord.(i)
        done;
        !nxt_idx.(m - 1) <- ord.(0);
        n := m
      end
      else begin
        Budget.hit_opt budget Budget.Coverage_truncated;
        for i = 0 to cap - 1 do
          !nxt_idx.(i) <- ord.(i * m / cap)
        done;
        n := cap
      end;
      order :=
        if out_n <= 8 then Raw else if m <= cap then Rotated else Ascending;
      let b = !cur_bank and ix = !cur_idx in
      cur_bank := !nxt_bank;
      cur_idx := !nxt_idx;
      nxt_bank := b;
      nxt_idx := ix;
      incr li
    end
  done;
  (!blocked, !cur_bank.(!cur_idx.(0)))

(** [eval ?cap ?budget scratch tab plan g] — the sweep in blocking mode:
    [Covered w] with the final frontier's first substitution as witness, or
    [Blocked i] at the first literal whose frontier dies ([Blocked 0] when
    the head cannot bind to the ground's example tuple). *)
let eval ?(cap = default_frontier_cap) ?budget scratch _tab plan g =
  Obs.Trace.span ~cat:"subsumption" "eval_compiled" @@ fun () ->
  if not (bind_head scratch plan g ~cap) then Blocked 0
  else begin
    match sweep ~cap ?budget ~kept:None scratch plan g with
    | 0, s ->
        (* Witness: decoded back to original variable ids, and through
           the ground's value array to values. Every clause variable occurs
           in the head or a matched body literal, so all dense slots are
           bound. *)
        let w = ref Substitution.empty in
        for v = 0 to plan.p_nvars - 1 do
          if s.(v) >= 0 then
            w := Substitution.bind plan.p_var_ids.(v) g.g_vals.(s.(v)) !w
        done;
        Covered !w
    | blocked, _ ->
        Obs.Trace.arg "blocked_at" (string_of_int blocked);
        Blocked blocked
  end

(** [generalize ?cap scratch tab plan g] — the sweep in drop-on-empty mode
    (ARMG's blocking-atom removal): the kept-literal mask over [plan]'s
    body, or [None] when the head cannot bind. No budget: ARMG's frontier
    truncations are not coverage degradation. *)
let generalize ?(cap = default_frontier_cap) scratch _tab plan g =
  if not (bind_head scratch plan g ~cap) then None
  else begin
    let kept = Array.make (n_body plan) true in
    ignore (sweep ~cap ~kept:(Some kept) scratch plan g);
    Some kept
  end
