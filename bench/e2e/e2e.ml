(* End-to-end and per-layer benchmark of the AutoBias pipeline.

     e2e.exe --workload W --seed S --seconds T --trace 0|1 [--dir D]
         one workload in this process; prints "W metric value unit" lines,
         then one JSON result line
     e2e.exe run --seed S [--seconds T] [--out FILE]
         every workload, each in a fresh child process; writes a summary
     e2e.exe trace --seed S [--dir D] [--seconds T]
         every workload traced: Chrome traces and per-layer JSON in D
     e2e.exe compare A.json... -- B.json... [--bench BENCHMARK.json]
         parent runs A against change runs B, per metric and workload
     e2e.exe validate BENCHMARK.json
         the file lists exactly the workloads and metrics this binary makes

   See README.md for the workloads, the metrics and the comparison rule. *)

let default_dir = "bench/e2e/out"
let default_seconds = 20.

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let int_arg name s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> die "%s: not an integer: %S" name s

let float_arg name s =
  match float_of_string_opt s with
  | Some f when f > 0. -> f
  | _ -> die "%s: not a positive number: %S" name s

(* "--key value" pairs; positional arguments are refused. *)
let options args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let opt opts k = List.assoc_opt k opts

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)
(* ------------------------------------------------------------------ *)

let single ~workload ~seed ~seconds ~trace ~dir =
  if not (List.mem workload Registry.workloads) then
    die "unknown workload %S" workload;
  let r, names =
    if trace then begin
      mkdir_p dir;
      ( Workload.trace workload ~seed ~dir,
        List.map (fun (l : Registry.layer) -> l.name) Registry.per_layer )
    end
    else (Workload.run workload ~seed ~seconds, List.map fst Registry.end_to_end)
  in
  let metrics =
    List.map
      (fun name ->
        let v =
          match List.assoc_opt name r.Workload.metrics with
          | Some v -> v
          | None -> failwith ("workload did not measure " ^ name)
        in
        let unit_ = Registry.unit_of name in
        Printf.printf "%s %s %.12g %s\n" workload name v unit_;
        let j = [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit_) ] in
        (name, Obs.Json.Obj j))
      names
  in
  List.iter
    (fun p -> prerr_endline ("e2e: " ^ workload ^ ": " ^ p))
    r.Workload.problems;
  let correct = r.Workload.problems = [] in
  let result =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int r.Workload.attempted);
        ("failed", Obs.Json.Int r.Workload.failed);
        ("metrics", Obs.Json.Obj metrics);
      ]
  in
  if trace then
    Obs.Json.write (Filename.concat dir (workload ^ ".layers.json")) result;
  print_endline (Obs.Json.to_string result);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                              *)
(* ------------------------------------------------------------------ *)

(* Runs [prog args] to completion; its stdout as lines, and whether it
   exited 0. Its stderr is ours, or discarded when [quiet]. *)
let capture ?(quiet = false) prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) null w
          (if quiet then null else Unix.stderr))
  in
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (List.filter (( <> ) "") (String.split_on_char '\n' out), status = Unix.WEXITED 0)

let git_commit () =
  match capture ~quiet:true "git" [ "rev-parse"; "HEAD" ] with
  | [ c ], true -> c
  | _ | (exception Unix.Unix_error _) -> "unknown"

let provenance ~seed =
  Obs.Json.Obj
    [
      ("git_commit", Obs.Json.Str (git_commit ()));
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ("seed", Obs.Json.Int seed);
    ]

let all ~seed ~seconds ~trace ~dir ~out =
  let ok = ref true in
  let results =
    List.map
      (fun w ->
        let args =
          [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--dir"; dir ]
        in
        let lines, exited_ok = capture Sys.executable_name args in
        let rec split = function
          | [] -> ([], None)
          | [ last ] -> ([], Result.to_option (Obs.Json.parse last))
          | l :: tl -> let body, last = split tl in (l :: body, last)
        in
        let body, result = split lines in
        List.iter print_endline body;
        let correct =
          match Option.bind result (Obs.Json.member "correct") with
          | Some (Obs.Json.Bool b) -> b
          | _ -> false
        in
        if not (exited_ok && correct) then begin
          ok := false;
          Printf.eprintf "e2e: workload %s failed its checks\n%!" w
        end;
        (w, Option.value result ~default:Obs.Json.Null))
      Registry.workloads
  in
  mkdir_p (Filename.dirname out);
  Obs.Json.write out
    (Obs.Json.Obj
       [
         ("provenance", provenance ~seed);
         ("seconds", Obs.Json.Float seconds);
         ("trace", Obs.Json.Bool trace);
         ("correct", Obs.Json.Bool !ok);
         ("workloads", Obs.Json.Obj results);
       ]);
  Printf.printf "summary written to %s\n" out;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* validate and compare read BENCHMARK.json                             *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let list_member key j =
  match Obs.Json.member key j with Some (Obs.Json.List l) -> l | _ -> []

let str_member key j =
  match Obs.Json.member key j with Some (Obs.Json.Str s) -> s | _ -> ""

let num_member key j =
  match Obs.Json.member key j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let validate path =
  let j = read_json path in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let listed key = List.map (str_member "name") (list_member key j) in
  let same what listed produced =
    List.iter
      (fun n ->
        if not (List.mem n produced) then
          bad "%s %S is not produced by e2e.exe" what n;
        if not (Registry.valid_name n) then
          bad "%s name %S is not [A-Za-z0-9_.-]+" what n)
      listed;
    List.iter
      (fun n ->
        if not (List.mem n listed) then bad "%s %S is missing from %s" what n path)
      produced
  in
  let workloads = listed "workloads" and e2e = listed "end_to_end" in
  same "workload" workloads Registry.workloads;
  same "end-to-end metric" e2e (List.map fst Registry.end_to_end);
  same "per-layer metric" (listed "per_layer")
    (List.map (fun (l : Registry.layer) -> l.name) Registry.per_layer);
  List.iter
    (fun m ->
      let n = str_member "name" m and u = str_member "unit" m in
      match List.assoc_opt n Registry.units with
      | Some u' when u <> u' -> bad "metric %S: unit %S, e2e.exe reports %S" n u u'
      | _ -> ())
    (list_member "end_to_end" j @ list_member "per_layer" j);
  List.iter
    (fun (l : Registry.layer) ->
      List.iter
        (fun (metric, ws) ->
          if not (List.mem metric e2e) then
            bad "layer %s moves unknown metric %S" l.name metric;
          List.iter
            (fun w ->
              if not (List.mem w workloads) then
                bad "layer %s names unknown workload %S" l.name w)
            ws)
        l.moves)
    Registry.per_layer;
  match List.rev !problems with
  | [] ->
      Printf.printf "%s: %d workloads, %d end-to-end and %d per-layer metrics \
                     match e2e.exe\n"
        path (List.length workloads) (List.length e2e)
        (List.length (listed "per_layer"))
  | ps ->
      List.iter (fun p -> prerr_endline ("e2e: " ^ p)) ps;
      exit 1

(* Values of [metric] on [workload] across summaries, in file order. *)
let values summaries ~workload ~metric =
  List.filter_map
    (fun s ->
      Option.bind (Obs.Json.member "workloads" s) (Obs.Json.member workload)
      |> Fun.flip Option.bind (Obs.Json.member "metrics")
      |> Fun.flip Option.bind (Obs.Json.member metric)
      |> Fun.flip Option.bind (num_member "value"))
    summaries
  |> Array.of_list

let compare_runs ~bench parent change =
  let b = read_json bench in
  let parent = List.map read_json parent
  and change = List.map read_json change in
  if parent = [] || change = [] then die "compare: need runs on both sides of --";
  Printf.printf "%-10s %-14s %5s %11s %11s %11s %11s %11s %11s %s\n" "workload"
    "metric" "pairs" "parent_q1" "parent_med" "parent_q3" "change_q1"
    "change_med" "change_q3" "verdict";
  let regressed = ref false in
  List.iter
    (fun m ->
      let metric = str_member "name" m in
      let higher_better = str_member "better" m = "higher" in
      let bound = Option.value (num_member "bound" m) ~default:0. in
      List.iter
        (fun workload ->
          let p = values parent ~workload ~metric
          and c = values change ~workload ~metric in
          if Array.length p > 0 && Array.length c > 0 then begin
            let v = Stats.verdict ~higher_better ~bound ~parent:p ~change:c in
            if v = Stats.Regressed then regressed := true;
            let p1, p2, p3 = Stats.quartiles p and c1, c2, c3 = Stats.quartiles c in
            Printf.printf
              "%-10s %-14s %5d %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %s\n"
              workload metric
              (min (Array.length p) (Array.length c))
              p1 p2 p3 c1 c2 c3 (Stats.verdict_to_string v)
          end)
        Registry.workloads)
    (list_member "end_to_end" b);
  exit (if !regressed then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "validate"; path ] -> validate path
  | "compare" :: rest ->
      let rec split acc = function
        | "--" :: tl -> (List.rev acc, tl)
        | x :: tl -> split (x :: acc) tl
        | [] -> die "usage: compare A.json... -- B.json... [--bench FILE]"
      in
      let parent, change = split [] rest in
      let change, bench =
        match List.rev change with
        | f :: "--bench" :: rev -> (List.rev rev, f)
        | _ -> (change, "BENCHMARK.json")
      in
      compare_runs ~bench parent change
  | (("run" | "trace") as mode) :: rest ->
      let o = options rest in
      let get k default = Option.value (opt o k) ~default in
      let seed = int_arg "--seed" (get "seed" "42") in
      let seconds =
        float_arg "--seconds" (get "seconds" (string_of_float default_seconds))
      in
      let dir = get "dir" default_dir in
      let out =
        get "out" (Filename.concat dir (Printf.sprintf "%s-%d.json" mode seed))
      in
      all ~seed ~seconds ~trace:(mode = "trace") ~dir ~out
  | args ->
      let o = options args in
      let get k = match opt o k with Some v -> v | None -> die "missing --%s" k in
      let trace =
        match get "trace" with
        | "0" -> false
        | "1" -> true
        | t -> die "--trace: expected 0 or 1, got %S" t
      in
      single ~workload:(get "workload") ~seed:(int_arg "--seed" (get "seed"))
        ~seconds:(float_arg "--seconds" (get "seconds"))
        ~trace ~dir:(Option.value (opt o "dir") ~default:default_dir)
