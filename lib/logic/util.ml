(** Small shared helpers for the logic library and its clients. *)

(** [take n l] is the first [n] elements of [l] (all of [l] when it is
    shorter). [n <= 0] yields the empty list. *)
let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(** [sample rng n l]: at most [n] elements of [l], uniformly, without
    replacement. *)
let sample rng n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  if len <= n then l
  else begin
    for i = len - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list (Array.sub arr 0 n)
  end
