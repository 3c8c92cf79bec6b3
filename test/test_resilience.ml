(* The resilient-runtime layer: checkpoint snapshots (JSON round-trip,
   version gating, fingerprint validation, atomic save under chaos), the
   supervision policy's deterministic backoff, the layer-tagged chaos
   registry, CSV skip accounting, and the headline property — killing a
   run at any clause boundary and resuming from its snapshot reproduces
   the uninterrupted definition bit-for-bit, sequentially and under a
   pool. *)

module Checkpoint = Resilience.Checkpoint
module Policy = Resilience.Policy
module Pool = Parallel.Pool
module Coverage = Learning.Coverage
module Learn = Learning.Learn
module Json = Obs.Json

let render def = Logic.Clause.definition_to_string def

(* a hand-built snapshot exercising every field *)
let sample_checkpoint () =
  {
    Checkpoint.version = Checkpoint.version;
    fingerprint = "fp-test";
    boundary = 2;
    definition = [];
    uncovered = [ 1; 3; 4 ];
    seeds_skipped = 1;
    consecutive_skips = 1;
    candidates_evaluated = 9;
    rng = Random.State.make [| 42 |];
    counters = [ ("worker_faults", 3); ("jobs_skipped", 1) ];
  }

(* offset of the first [needle] in [haystack] *)
let find haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains haystack needle = Option.is_some (find haystack needle)

(* every byte value, in order *)
let all_bytes = String.init 256 Char.chr

(* a snapshot whose one clause holds [all_bytes] as a constant: Marshal
   copies string bytes verbatim, so all 256 pass through the hex codec *)
let all_bytes_checkpoint () =
  let clause =
    Logic.Clause.make
      (Logic.Literal.make "t" [| Logic.Term.Var 0 |])
      [
        Logic.Literal.make "r"
          [| Logic.Term.Var 0; Logic.Term.Const (Relational.Value.str all_bytes) |];
      ]
  in
  { (sample_checkpoint ()) with Checkpoint.definition = [ clause ] }

let rng_stream st =
  let st = Random.State.copy st in
  List.init 16 (fun _ -> Random.State.int st 1_000_000)

let with_temp_file f =
  let path = Filename.temp_file "autobias_resilience" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------------- checkpoint snapshots ---------------- *)

let checkpoint_tests =
  [
    Alcotest.test_case "save/load round-trips every field" `Quick (fun () ->
        with_temp_file (fun path ->
            let ck = sample_checkpoint () in
            (match Checkpoint.save ck path with
            | `Written -> ()
            | `Skipped -> Alcotest.fail "save skipped without chaos");
            match Checkpoint.load path with
            | Error e -> Alcotest.failf "load failed: %s" e
            | Ok got ->
                Alcotest.(check int) "version" ck.Checkpoint.version
                  got.Checkpoint.version;
                Alcotest.(check string) "fingerprint" ck.Checkpoint.fingerprint
                  got.Checkpoint.fingerprint;
                Alcotest.(check int) "boundary" ck.Checkpoint.boundary
                  got.Checkpoint.boundary;
                Alcotest.(check (list int)) "uncovered"
                  ck.Checkpoint.uncovered got.Checkpoint.uncovered;
                Alcotest.(check int) "seeds_skipped"
                  ck.Checkpoint.seeds_skipped got.Checkpoint.seeds_skipped;
                Alcotest.(check int) "consecutive_skips"
                  ck.Checkpoint.consecutive_skips
                  got.Checkpoint.consecutive_skips;
                Alcotest.(check int) "candidates_evaluated"
                  ck.Checkpoint.candidates_evaluated
                  got.Checkpoint.candidates_evaluated;
                Alcotest.(check (list (pair string int))) "counters"
                  ck.Checkpoint.counters got.Checkpoint.counters;
                Alcotest.(check string) "definition"
                  (render ck.Checkpoint.definition)
                  (render got.Checkpoint.definition);
                (* the restored RNG must replay the exact stream *)
                Alcotest.(check (list int)) "rng stream"
                  (rng_stream ck.Checkpoint.rng)
                  (rng_stream got.Checkpoint.rng)));
    Alcotest.test_case "version mismatch is refused before any payload"
      `Quick (fun () ->
        with_temp_file (fun path ->
            let ck = sample_checkpoint () in
            ignore (Checkpoint.save ck path);
            let ic = open_in path in
            let raw = In_channel.input_all ic in
            close_in ic;
            let tampered =
              match Json.parse raw with
              | Ok (Json.Obj fields) ->
                  Json.Obj
                    (List.map
                       (function
                         | "version", Json.Int v ->
                             ("version", Json.Int (v + 1))
                         | kv -> kv)
                       fields)
              | _ -> Alcotest.fail "saved checkpoint is not a JSON object"
            in
            Json.write path tampered;
            match Checkpoint.load path with
            | Ok _ -> Alcotest.fail "future-version snapshot was accepted"
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "error names the version (%s)" e)
                  true
                  (contains (String.lowercase_ascii e) "version")));
    Alcotest.test_case
      "v1 snapshot (pre constraint store) is refused, and so is v2 (with \
       it), naming both versions"
      `Quick (fun () ->
        let restamp v extra =
          match Checkpoint.to_json (sample_checkpoint ()) with
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (function
                     | "version", Json.Int _ -> ("version", Json.Int v)
                     | kv -> kv)
                   fields
                @ extra)
          | _ -> Alcotest.fail "checkpoint JSON is not an object"
        in
        List.iter
          (fun (v, snapshot) ->
            with_temp_file (fun path ->
                Json.write path snapshot;
                match Checkpoint.load path with
                | Ok _ -> Alcotest.failf "v%d snapshot was accepted" v
                | Error e ->
                    Alcotest.(check bool)
                      (Printf.sprintf "error names the file's version (%s)" e)
                      true
                      (contains e (Printf.sprintf "v%d" v));
                    Alcotest.(check bool)
                      "error names the version this binary reads" true
                      (contains e (Printf.sprintf "v%d" Checkpoint.version))))
          [
            (* what a pre-v2 binary wrote: no constraint store *)
            (1, restamp 1 []);
            (* what a v2 binary wrote: the hex-encoded store and a clock *)
            ( 2,
              restamp 2
                [
                  ("elapsed_s", Json.Float 0.25);
                  ("constraints", Json.Str "6f70617175650062797465");
                ] );
          ]);
    Alcotest.test_case "load reports unreadable and torn files as Error"
      `Quick (fun () ->
        (match Checkpoint.load "/nonexistent/autobias.ck" with
        | Ok _ -> Alcotest.fail "loaded a nonexistent file"
        | Error _ -> ());
        with_temp_file (fun path ->
            let oc = open_out path in
            output_string oc "{ torn";
            close_out oc;
            match Checkpoint.load path with
            | Ok _ -> Alcotest.fail "loaded torn JSON"
            | Error _ -> ()));
    Alcotest.test_case "hex payloads round-trip all 256 byte values" `Quick
      (fun () ->
        let ck = all_bytes_checkpoint () in
        let definition_bin = Marshal.to_string ck.Checkpoint.definition [] in
        Alcotest.(check bool) "payload holds every byte value" true
          (contains definition_bin all_bytes);
        let j = Checkpoint.to_json ck in
        (* the text older binaries wrote: two lower-case digits a byte *)
        let reference s =
          String.concat ""
            (List.init (String.length s) (fun i ->
                 Printf.sprintf "%02x" (Char.code s.[i])))
        in
        List.iter
          (fun (field, payload) ->
            Alcotest.(check (option string)) (field ^ ": lower-case hex text")
              (Some (reference payload))
              (match Json.member field j with
              | Some (Json.Str s) -> Some s
              | _ -> None))
          [
            ("definition_bin", definition_bin);
            ("rng", Marshal.to_string ck.Checkpoint.rng []);
          ];
        match Checkpoint.of_json j with
        | Error e -> Alcotest.failf "round trip failed: %s" e
        | Ok got -> (
            Alcotest.(check (list int)) "rng stream"
              (rng_stream ck.Checkpoint.rng)
              (rng_stream got.Checkpoint.rng);
            match got.Checkpoint.definition with
            | [ c ] -> (
                match
                  List.concat_map Logic.Literal.constants (Logic.Clause.body c)
                with
                | [ Relational.Value.Str s ] ->
                    Alcotest.(check string) "bytes" all_bytes s
                | _ -> Alcotest.fail "the constant did not survive")
            | _ -> Alcotest.fail "the clause did not survive"));
    Alcotest.test_case "a non-hex digit loads as Error, never an exception"
      `Quick (fun () ->
        (* Each bad digit pair overwrites one byte of an otherwise valid
           payload, at a byte where any value still unmarshals: a decoder
           that let the pair through would load the snapshot. *)
        let ck = all_bytes_checkpoint () in
        let j = Checkpoint.to_json ck in
        let with_field field hex =
          match j with
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (function k, _ when k = field -> (k, Json.Str hex) | kv -> kv)
                   fields)
          | _ -> Alcotest.fail "checkpoint JSON is not an object"
        in
        let hex_of field =
          match Json.member field j with
          | Some (Json.Str s) -> s
          | _ -> Alcotest.failf "%s is not a string" field
        in
        (* a byte in the middle of the all-bytes constant; the last byte
           of the RNG blob, which is state data *)
        let constant_byte =
          match
            find (Marshal.to_string ck.Checkpoint.definition []) all_bytes
          with
          | Some i -> i + 128
          | None -> Alcotest.fail "the constant is not in the payload"
        in
        let rng_byte = (String.length (hex_of "rng") / 2) - 1 in
        List.iter
          (fun (field, byte) ->
            let hex = hex_of field in
            let set_byte digits =
              String.sub hex 0 (2 * byte)
              ^ digits
              ^ String.sub hex ((2 * byte) + 2)
                  (String.length hex - (2 * byte) - 2)
            in
            (* every valid pair at that byte loads, so only the decoder's
               strictness can refuse the bad ones below *)
            for b = 0 to 255 do
              let valid = set_byte (Printf.sprintf "%02x" b) in
              match Checkpoint.of_json (with_field field valid) with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "%s with byte %d = %02x refused: %s" field
                    byte b e
            done;
            List.iter
              (fun bad ->
                with_temp_file (fun path ->
                    Json.write path (with_field field bad);
                    match Checkpoint.load path with
                    | Ok _ -> Alcotest.failf "loaded %s %S" field bad
                    | Error _ -> ()))
              ((hex ^ "0")
              :: List.map set_byte [ "zz"; "0g"; "g0"; "_1"; "1_"; "+1"; " 1" ]))
          [ ("definition_bin", constant_byte); ("rng", rng_byte) ]);
    Alcotest.test_case "validate gates on the config fingerprint" `Quick
      (fun () ->
        let ck = sample_checkpoint () in
        (match Checkpoint.validate ~fingerprint:"fp-test" ck with
        | Ok () -> ()
        | Error e -> Alcotest.failf "matching fingerprint refused: %s" e);
        (match Checkpoint.validate ~fingerprint:"other" ck with
        | Ok () -> Alcotest.fail "mismatched fingerprint accepted"
        | Error _ -> ());
        (* the empty fingerprint is the escape hatch on either side *)
        (match Checkpoint.validate ~fingerprint:"" ck with
        | Ok () -> ()
        | Error e -> Alcotest.failf "empty run fingerprint refused: %s" e);
        match
          Checkpoint.validate ~fingerprint:"anything"
            { ck with Checkpoint.fingerprint = "" }
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "empty snapshot fingerprint refused: %s" e);
    Alcotest.test_case "fingerprint digest is stable and input-sensitive"
      `Quick (fun () ->
        let a = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "42" ] in
        let b = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "42" ] in
        let c = Checkpoint.fingerprint_of_strings [ "uw"; "seq"; "43" ] in
        Alcotest.(check string) "stable" a b;
        Alcotest.(check bool) "seed-sensitive" true (a <> c));
    Alcotest.test_case "chaos on the checkpoint layer skips, never tears"
      `Quick (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "checkpoint" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            let path =
              Filename.concat
                (Filename.get_temp_dir_name ())
                "autobias_ck_chaos.json"
            in
            if Sys.file_exists path then Sys.remove path;
            match Checkpoint.save (sample_checkpoint ()) path with
            | `Written -> Alcotest.fail "p_fault=1 chaos did not skip"
            | `Skipped ->
                Alcotest.(check bool) "target untouched" false
                  (Sys.file_exists path)));
    Alcotest.test_case "a snapshot of another scale is refused" `Quick
      (fun () ->
        let fingerprint scale =
          Autobias.fingerprint ~dataset:"uw" ~scale
            ~method_:Autobias.Auto_bias Autobias.default_config ~seed:11
        in
        let half = fingerprint 0.5 and third = fingerprint 0.3 in
        Alcotest.(check bool) "scale-sensitive" true (half <> third);
        let ck =
          { (sample_checkpoint ()) with Checkpoint.fingerprint = half }
        in
        (match Checkpoint.validate ~fingerprint:half ck with
        | Ok () -> ()
        | Error e -> Alcotest.failf "same scale refused: %s" e);
        match Checkpoint.validate ~fingerprint:third ck with
        | Ok () -> Alcotest.fail "a --scale 0.5 snapshot resumed at 0.3"
        | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "names the mismatch (%s)" e)
              true
              (contains e "fingerprint mismatch"));
  ]

(* ---------------- supervision policy ---------------- *)

let policy_tests =
  [
    Alcotest.test_case "backoff is exponential, capped and deterministic"
      `Quick (fun () ->
        let p = Policy.default in
        let d1 = Policy.backoff p ~attempt:1 ~salt:0 in
        let d2 = Policy.backoff p ~attempt:2 ~salt:0 in
        let dcap = Policy.backoff p ~attempt:1000 ~salt:0 in
        let lo = 1. -. (p.Policy.jitter /. 2.)
        and hi = 1. +. (p.Policy.jitter /. 2.) in
        Alcotest.(check bool) "first delay near base" true
          (d1 >= p.Policy.backoff_base_s *. lo
          && d1 <= p.Policy.backoff_base_s *. hi);
        Alcotest.(check bool) "grows" true (d2 > d1);
        Alcotest.(check bool) "capped" true
          (dcap <= p.Policy.backoff_max_s *. hi);
        Alcotest.(check (float 0.)) "deterministic" d1
          (Policy.backoff p ~attempt:1 ~salt:0);
        Alcotest.(check bool) "salts decorrelate" true
          (Policy.backoff p ~attempt:4 ~salt:1
          <> Policy.backoff p ~attempt:4 ~salt:2));
  ]

(* ---------------- the chaos registry ---------------- *)

let chaos_tests =
  [
    Alcotest.test_case "layers are gated independently" `Quick (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "memo" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            Alcotest.(check bool) "configured layer fires" true
              (Chaos.fires "memo");
            Alcotest.(check bool) "unconfigured layer never fires" false
              (Chaos.fires "csv");
            Alcotest.(check (list string)) "active" [ "memo" ]
              (Chaos.active ());
            match Chaos.snapshot () with
            | [ ("memo", c) ] ->
                Alcotest.(check bool) "faults counted" true
                  (c.Chaos.n_injected > 0)
            | s ->
                Alcotest.failf "expected one memo entry, got %d"
                  (List.length s)));
    Alcotest.test_case "\"all\" arms every known layer; clear disarms" `Quick
      (fun () ->
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "all" ];
        Fun.protect ~finally:Chaos.clear (fun () ->
            Alcotest.(check (list string)) "all layers active"
              (List.sort compare Chaos.known_layers)
              (List.sort compare (Chaos.active ())));
        Chaos.clear ();
        Alcotest.(check (list string)) "cleared" [] (Chaos.active ());
        Alcotest.(check bool) "nothing fires after clear" false
          (Chaos.fires "memo"));
    Alcotest.test_case "unknown layer names are refused" `Quick (fun () ->
        match Chaos.configure ~p_fault:0.5 ~seed:0 [ "warp-drive" ] with
        | () -> Alcotest.fail "unknown layer accepted"
        | exception Invalid_argument _ -> ());
  ]

(* ---------------- CSV skip accounting ---------------- *)

let csv_tests =
  [
    Alcotest.test_case "Skip-policy drops are tallied with their first cause"
      `Quick (fun () ->
        Relational.Csv.reset_skip_stats ();
        let rs = Relational.Schema.relation "r" [| "a"; "b" |] in
        let r =
          Relational.Csv.parse_string ~on_error:`Skip ~schema:rs
            "x,1\nbad\ny,2\ntoo,many,fields\n"
        in
        Alcotest.(check int) "good rows kept" 2
          (Relational.Relation.cardinality r);
        (match Relational.Csv.skip_stats () with
        | [ ("<string>", s) ] ->
            Alcotest.(check int) "two rows dropped" 2
              s.Relational.Csv.rows_skipped;
            (match s.Relational.Csv.first_bad with
            | Some (line, _) -> Alcotest.(check int) "first bad line" 2 line
            | None -> Alcotest.fail "first_bad not recorded")
        | s -> Alcotest.failf "expected one entry, got %d" (List.length s));
        Relational.Csv.reset_skip_stats ();
        Alcotest.(check int) "reset clears the registry" 0
          (List.length (Relational.Csv.skip_stats ())));
    Alcotest.test_case "csv chaos drops rows as recorded skips" `Quick
      (fun () ->
        Relational.Csv.reset_skip_stats ();
        Chaos.configure ~p_fault:1.0 ~seed:0 [ "csv" ];
        Fun.protect
          ~finally:(fun () ->
            Chaos.clear ();
            Relational.Csv.reset_skip_stats ())
          (fun () ->
            let rs = Relational.Schema.relation "r" [| "a" |] in
            let r =
              Relational.Csv.parse_string ~on_error:`Skip ~file:"chaos.csv"
                ~schema:rs "x\ny\nz\n"
            in
            Alcotest.(check int) "every row dropped by chaos" 0
              (Relational.Relation.cardinality r);
            match Relational.Csv.skip_stats () with
            | [ ("chaos.csv", s) ] ->
                Alcotest.(check int) "drops tallied" 3
                  s.Relational.Csv.rows_skipped
            | s ->
                Alcotest.failf "expected one entry, got %d" (List.length s)));
  ]

(* ---------------- kill + resume bit-identity ---------------- *)

let run_uw ?pool ?checkpoint ?resume ~seed () =
  let d = Datasets.Uw.generate ~seed ~scale:0.25 () in
  let rng = Random.State.make [| seed |] in
  let cov =
    Coverage.create d.Datasets.Dataset.db d.Datasets.Dataset.manual_bias ~rng
  in
  let config =
    {
      Learn.default_config with
      max_clauses = 2;
      timeout = None;
      clause_timeout = None;
      pool;
      checkpoint;
      resume;
    }
  in
  Learn.learn ~config cov ~rng ~positives:d.Datasets.Dataset.positives
    ~negatives:d.Datasets.Dataset.negatives

let resume_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "kill at any clause boundary + resume is bit-identical (seq and \
            pool)"
         ~count:3
         QCheck.(int_range 1 40)
         (fun seed ->
           (* Run once with a collecting sink: the snapshots it hands out
              are exactly what --checkpoint writes at each boundary, and
              because the sink gets copies it cannot perturb the run — so
              this run doubles as the uninterrupted reference. *)
           let collected = ref [] in
           let sink ck =
             collected := ck :: !collected;
             `Written
           in
           let reference = run_uw ~checkpoint:sink ~seed () in
           let want = render reference.Learn.definition in
           let plain = run_uw ~seed () in
           if render plain.Learn.definition <> want then
             QCheck.Test.fail_report "checkpoint sink perturbed the run";
           if !collected = [] then
             QCheck.Test.fail_report "no checkpoint was emitted";
           (* resuming from EVERY boundary must replay the same tail *)
           List.iter
             (fun ck ->
               let resumed = run_uw ~resume:ck ~seed () in
               if render resumed.Learn.definition <> want then
                 QCheck.Test.fail_reportf
                   "sequential resume from boundary %d diverged"
                   ck.Checkpoint.boundary)
             !collected;
           (* and a pooled resume from the earliest boundary agrees too *)
           let earliest = List.hd (List.rev !collected) in
           Pool.with_pool ~size:2 (fun p ->
               let resumed = run_uw ~pool:p ~resume:earliest ~seed () in
               if render resumed.Learn.definition <> want then
                 QCheck.Test.fail_reportf
                   "pooled resume from boundary %d diverged"
                   earliest.Checkpoint.boundary);
           true));
    Alcotest.test_case "resume restores progress counters and boundary"
      `Slow (fun () ->
        let collected = ref [] in
        let sink ck =
          collected := ck :: !collected;
          `Written
        in
        let reference = run_uw ~checkpoint:sink ~seed:7 () in
        match List.rev !collected with
        | [] -> Alcotest.fail "no checkpoint emitted"
        | first :: _ ->
            let resumed = run_uw ~resume:first ~seed:7 () in
            Alcotest.(check string) "same definition"
              (render reference.Learn.definition)
              (render resumed.Learn.definition);
            Alcotest.(check int) "same clause count"
              reference.Learn.stats.Learn.clauses
              resumed.Learn.stats.Learn.clauses;
            (* counters restore from the snapshot, so the resumed total
               matches the uninterrupted run exactly *)
            Alcotest.(check int) "candidate count restored + tail"
              reference.Learn.stats.Learn.candidates_evaluated
              resumed.Learn.stats.Learn.candidates_evaluated;
            (* a snapshot from a build that still counted backtracking
               restarts and give-ups: the names it no longer knows are
               ignored, everything else resumes as before *)
            let legacy =
              {
                first with
                Checkpoint.counters =
                  first.Checkpoint.counters
                  @ [ ("subsumption_restarts", 4); ("subsumption_exhausted", 1) ];
              }
            in
            let resumed_legacy = run_uw ~resume:legacy ~seed:7 () in
            Alcotest.(check string) "legacy counters: same definition"
              (render reference.Learn.definition)
              (render resumed_legacy.Learn.definition);
            Alcotest.(check (list (pair string int)))
              "legacy counters: same restored counters"
              (Budget.counters_to_assoc resumed.Learn.degradation.Budget.counters)
              (Budget.counters_to_assoc
                 resumed_legacy.Learn.degradation.Budget.counters));
  ]

let suite =
  checkpoint_tests @ policy_tests @ chaos_tests @ csv_tests @ resume_tests
