(** Versioned learner checkpoints. See checkpoint.mli for the contract.

    A checkpoint captures the covering loop's complete state at a clause
    boundary: the definition so far, which original positives remain
    uncovered (as indices, so the snapshot is small and re-anchors against
    the caller's example list on resume), the skip counters, and the
    learner RNG — the one piece that makes resumption {e bit-identical}:
    every random draw the continuation will make is determined by it.

    Serialization is an {!Obs.Json} object. The two stateful payloads —
    the [Random.State.t] and the learned clauses — ride inside it as
    hex-encoded [Marshal] blobs: JSON for everything a human or CI smoke
    wants to read (the clauses also appear as printed strings), Marshal
    where bit-exactness matters (re-parsing a printed clause only
    guarantees alpha-equivalence; resuming must restore the {e same}
    term structure the uninterrupted run holds). The [version] field
    gates the Marshal payloads: a checkpoint from a different format
    version is rejected before any unmarshalling. *)

module Json = Obs.Json

type t = {
  version : int;
  fingerprint : string;
  boundary : int;
  definition : Logic.Clause.definition;
  uncovered : int list;
  seeds_skipped : int;
  consecutive_skips : int;
  candidates_evaluated : int;
  rng : Random.State.t;
  counters : (string * int) list;
}

(* Any other version is refused by the gate in [of_json], never
   reinterpreted. *)
let version = 3

let fingerprint_of_strings parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* {2 hex-encoded Marshal blobs} *)

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[b lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[b land 15]
  done;
  Bytes.unsafe_to_string out

(* Digit value of every byte, -1 for anything [hex_encode] never writes. *)
let hex_value =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | _ -> -1)

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then failwith "odd-length hex string"
  else begin
    let out = Bytes.create (n / 2) in
    for i = 0 to (n / 2) - 1 do
      let hi = hex_value.(Char.code s.[2 * i])
      and lo = hex_value.(Char.code s.[(2 * i) + 1]) in
      if hi < 0 || lo < 0 then failwith "non-hex digit";
      Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
    done;
    Bytes.unsafe_to_string out
  end

let marshal_hex v = hex_encode (Marshal.to_string v [])

let unmarshal_hex s = Marshal.from_string (hex_decode s) 0

(* {2 JSON} *)

let to_json t =
  Json.Obj
    [
      ("version", Json.Int t.version);
      ("fingerprint", Json.Str t.fingerprint);
      ("boundary", Json.Int t.boundary);
      (* human-readable view; restore uses the marshal blob below *)
      ( "definition",
        Json.List
          (List.map (fun c -> Json.Str (Logic.Clause.to_string c)) t.definition)
      );
      ("definition_bin", Json.Str (marshal_hex t.definition));
      ("uncovered", Json.List (List.map (fun i -> Json.Int i) t.uncovered));
      ("seeds_skipped", Json.Int t.seeds_skipped);
      ("consecutive_skips", Json.Int t.consecutive_skips);
      ("candidates_evaluated", Json.Int t.candidates_evaluated);
      ("rng", Json.Str (marshal_hex t.rng));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
    ]

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing field %S" name)

let int_field name j =
  match field name j with
  | Ok (Json.Int i) -> Ok i
  | Ok _ -> Error (Printf.sprintf "checkpoint: field %S is not an int" name)
  | Error _ as e -> e

let str_field name j =
  match field name j with
  | Ok (Json.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "checkpoint: field %S is not a string" name)
  | Error _ as e -> e

let ( let* ) = Result.bind

let of_json j =
  let* v = int_field "version" j in
  if v <> version then
    Error
      (Printf.sprintf
         "checkpoint version mismatch: file has v%d, this binary reads v%d" v
         version)
  else
    let* fingerprint = str_field "fingerprint" j in
    let* boundary = int_field "boundary" j in
    let* def_bin = str_field "definition_bin" j in
    let* uncovered =
      match field "uncovered" j with
      | Ok (Json.List l) ->
          List.fold_left
            (fun acc x ->
              match (acc, x) with
              | Ok is, Json.Int i -> Ok (i :: is)
              | Ok _, _ -> Error "checkpoint: non-int uncovered index"
              | (Error _ as e), _ -> e)
            (Ok []) l
          |> Result.map List.rev
      | Ok _ -> Error "checkpoint: field \"uncovered\" is not a list"
      | Error _ as e -> e
    in
    let* seeds_skipped = int_field "seeds_skipped" j in
    let* consecutive_skips = int_field "consecutive_skips" j in
    let* candidates_evaluated = int_field "candidates_evaluated" j in
    let* rng_hex = str_field "rng" j in
    let* counters =
      match field "counters" j with
      | Ok (Json.Obj kvs) ->
          List.fold_left
            (fun acc (k, x) ->
              match (acc, x) with
              | Ok l, Json.Int i -> Ok ((k, i) :: l)
              | Ok _, _ -> Error "checkpoint: non-int counter"
              | (Error _ as e), _ -> e)
            (Ok []) kvs
          |> Result.map List.rev
      | Ok _ -> Error "checkpoint: field \"counters\" is not an object"
      | Error _ as e -> e
    in
    match
      ( (unmarshal_hex def_bin : Logic.Clause.definition),
        (unmarshal_hex rng_hex : Random.State.t) )
    with
    | definition, rng ->
        Ok
          {
            version = v;
            fingerprint;
            boundary;
            definition;
            uncovered;
            seeds_skipped;
            consecutive_skips;
            candidates_evaluated;
            rng;
            counters;
          }
    | exception e ->
        Error ("checkpoint: corrupt marshal payload: " ^ Printexc.to_string e)

let validate ~fingerprint t =
  if fingerprint = "" || t.fingerprint = "" || String.equal fingerprint t.fingerprint
  then Ok ()
  else
    Error
      (Printf.sprintf
         "checkpoint fingerprint mismatch: file was written by a run \
          configured as %s, this run is %s — refusing to resume"
         t.fingerprint fingerprint)

(* Atomic write (tmp + rename in the target directory), so a crash or an
   injected fault mid-write can never leave a torn checkpoint where a good
   one stood. The "checkpoint" chaos layer gates the whole write: an
   injected fault skips this snapshot — the learner counts it and keeps
   going; the previous checkpoint file survives untouched. *)
let save t path =
  if Chaos.fires "checkpoint" then `Skipped
  else
    match
      let dir = Filename.dirname path in
      let tmp = Filename.temp_file ~temp_dir:dir "checkpoint" ".tmp" in
      Json.write tmp (to_json t);
      Sys.rename tmp path
    with
    | () -> `Written
    | exception _ -> `Skipped

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    contents
  with
  | exception Sys_error msg -> Error ("checkpoint: cannot read: " ^ msg)
  | contents -> (
      match Json.parse contents with
      | Error msg -> Error ("checkpoint: not valid JSON: " ^ msg)
      | Ok j -> of_json j)
