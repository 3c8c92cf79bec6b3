(* Offline observability analyzer.

     autobias_obs trace FILE [--job ID]    per-phase breakdown of a Chrome
                                           trace export; slice by job id
     autobias_obs report FILE [FILE2]      print (or diff) Obs run reports

   Everything here is read-only over artifacts the instrumented binaries
   already write: the trace JSON from --trace and the run report from
   --metrics/--report. *)

open Cmdliner

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "cannot read %s: %s" path msg

let parse_file path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> die "%s: not valid JSON: %s" path msg

let member = Obs.Json.member

let str_of = function Obs.Json.Str s -> Some s | _ -> None

let num_of = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

(* {2 trace — reconstruct spans from the B/E event stream}

   The exporter emits properly nested begin/end pairs per tid track, so a
   per-track stack recovers every span: push on "B", pop on "E", duration
   is the ts delta, the path is the names of the enclosing frames. Each
   "B" carries the owning job id (when any) under args.job. *)

type frame = { f_name : string; f_ts : float; f_job : string option }

let analyze_trace ~job_filter json =
  let events =
    match member "traceEvents" json with
    | Some (Obs.Json.List l) -> l
    | _ -> die "input has no traceEvents array — not a trace export?"
  in
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  (* path -> (calls, total_us) *)
  let agg : (string, int * float) Hashtbl.t = Hashtbl.create 64 in
  (* job -> (spans, outermost-span total_us) *)
  let jobs : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let field name ev = member name ev in
  List.iter
    (fun ev ->
      let ph = Option.bind (field "ph" ev) str_of in
      let tid =
        match field "tid" ev with Some (Obs.Json.Int i) -> i | _ -> 0
      in
      let ts = Option.bind (field "ts" ev) num_of in
      (match ts with
      | Some t ->
          if t < !t_min then t_min := t;
          if t > !t_max then t_max := t
      | None -> ());
      match (ph, ts) with
      | Some "B", Some ts ->
          let name =
            Option.value ~default:"?" (Option.bind (field "name" ev) str_of)
          in
          let job =
            Option.bind (field "args" ev) (fun a ->
                Option.bind (member "job" a) str_of)
          in
          let s = stack tid in
          s := { f_name = name; f_ts = ts; f_job = job } :: !s
      | Some "E", Some ts -> (
          let s = stack tid in
          match !s with
          | [] -> ()
          | f :: parents ->
              s := parents;
              let dur = ts -. f.f_ts in
              let path =
                String.concat "/"
                  (List.rev_map (fun p -> p.f_name) parents @ [ f.f_name ])
              in
              (match f.f_job with
              | Some j ->
                  let outermost =
                    match parents with
                    | [] -> true
                    | p :: _ -> p.f_job <> f.f_job
                  in
                  let n, tot =
                    Option.value ~default:(0, 0.) (Hashtbl.find_opt jobs j)
                  in
                  Hashtbl.replace jobs j
                    (n + 1, if outermost then tot +. dur else tot)
              | None -> ());
              let keep =
                match job_filter with None -> true | Some j -> f.f_job = Some j
              in
              if keep then
                let n, tot =
                  Option.value ~default:(0, 0.) (Hashtbl.find_opt agg path)
                in
                Hashtbl.replace agg path (n + 1, tot +. dur))
      | _ -> ())
    events;
  let wall_us = if !t_max > !t_min then !t_max -. !t_min else 0. in
  (agg, jobs, wall_us)

let trace_cmd file job =
  let json = parse_file file in
  let agg, jobs, wall_us = analyze_trace ~job_filter:job json in
  (match job with
  | Some j -> Printf.printf "trace %s (job %s)\n" file j
  | None -> Printf.printf "trace %s\n" file);
  Printf.printf "wall clock: %.3f s\n\n" (wall_us /. 1e6);
  let rows =
    Hashtbl.fold (fun path (n, tot) acc -> (path, n, tot) :: acc) agg []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  if rows = [] then print_endline "no spans matched."
  else begin
    Printf.printf "%-52s %8s %12s %7s\n" "phase" "calls" "total_ms" "%wall";
    List.iter
      (fun (path, n, tot) ->
        Printf.printf "%-52s %8d %12.3f %6.1f%%\n" path n (tot /. 1e3)
          (if wall_us > 0. then 100. *. tot /. wall_us else 0.))
      rows
  end;
  if job = None && Hashtbl.length jobs > 0 then begin
    Printf.printf "\njobs seen (slice with --job):\n";
    Hashtbl.fold (fun j v acc -> (j, v) :: acc) jobs []
    |> List.sort compare
    |> List.iter (fun (j, (n, tot)) ->
           Printf.printf "  %-16s %6d spans  %10.3f ms\n" j n (tot /. 1e3))
  end

(* {2 report — print or diff Obs run reports} *)

let phases_of json =
  match member "phases" json with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun p ->
          match
            ( Option.bind (member "path" p) str_of,
              Option.bind (member "total_s" p) num_of,
              Option.bind (member "calls" p) num_of )
          with
          | Some path, Some t, Some c -> Some (path, int_of_float c, t)
          | _ -> None)
        l
  | _ -> []

let funnel_of json =
  match member "funnel" json with
  | Some (Obs.Json.List l) -> l
  | _ -> []

let int_field name j =
  match Option.bind (member name j) num_of with
  | Some f -> int_of_float f
  | None -> 0

let print_funnel rows =
  if rows <> [] then begin
    Printf.printf "\nsearch funnel:\n%-6s %10s %10s %9s %10s %10s %9s\n" "step"
      "generated" "prune_hit" "memo_hit" "inherited" "evaluated" "accepted";
    List.iter
      (fun r ->
        Printf.printf "%-6d %10d %10d %9d %10d %10d %9d\n" (int_field "step" r)
          (int_field "generated" r) (int_field "prune_hit" r)
          (int_field "memo_hit" r) (int_field "inherited" r)
          (int_field "evaluated" r) (int_field "accepted" r))
      rows
  end

let print_report file json =
  let name =
    Option.value ~default:"?" (Option.bind (member "name" json) str_of)
  in
  Printf.printf "run report %s (%s)\n" file name;
  (match member "degradation" json with
  | Some (Obs.Json.Obj _ as d) ->
      Printf.printf "degradation: %s\n"
        (Option.value ~default:"?"
           (Option.bind (member "status" d) str_of))
  | _ -> ());
  let phases = phases_of json in
  if phases <> [] then begin
    Printf.printf "\n%-52s %8s %12s\n" "phase" "calls" "total_ms";
    List.iter
      (fun (path, calls, t) ->
        Printf.printf "%-52s %8d %12.3f\n" path calls (t *. 1e3))
      phases
  end;
  print_funnel (funnel_of json)

let diff_reports file_a a file_b b =
  Printf.printf "diff %s -> %s\n\n" file_a file_b;
  let pa = phases_of a and pb = phases_of b in
  let paths =
    List.sort_uniq compare
      (List.map (fun (p, _, _) -> p) pa @ List.map (fun (p, _, _) -> p) pb)
  in
  let lookup l p =
    List.find_map (fun (p', _, t) -> if p' = p then Some t else None) l
  in
  Printf.printf "%-52s %12s %12s %9s\n" "phase" "a_ms" "b_ms" "ratio";
  List.iter
    (fun p ->
      let ta = lookup pa p and tb = lookup pb p in
      let show = function
        | Some t -> Printf.sprintf "%12.3f" (t *. 1e3)
        | None -> Printf.sprintf "%12s" "-"
      in
      let ratio =
        match (ta, tb) with
        | Some ta, Some tb when ta > 0. -> Printf.sprintf "%8.2fx" (tb /. ta)
        | _ -> Printf.sprintf "%9s" "-"
      in
      Printf.printf "%-52s %s %s %s\n" p (show ta) (show tb) ratio)
    paths;
  let total rows = List.fold_left (fun acc r -> acc + int_field "generated" r) 0 rows in
  let ga = total (funnel_of a) and gb = total (funnel_of b) in
  if ga > 0 || gb > 0 then
    Printf.printf "\nfunnel generated: %d -> %d\n" ga gb

let report_cmd file file2 =
  let a = parse_file file in
  match file2 with
  | None -> print_report file a
  | Some f2 -> diff_reports file a f2 (parse_file f2)

(* {2 cmdliner wiring} *)

let trace_term =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace JSON (from --trace).")
  in
  let job =
    Arg.(
      value
      & opt (some string) None
      & info [ "job" ] ~docv:"ID"
          ~doc:"Only count spans tagged with this job id (e.g. job-3).")
  in
  Term.(const trace_cmd $ file $ job)

let report_term =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Obs run report JSON.")
  in
  let file2 =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE2" ~doc:"Second report to diff against.")
  in
  Term.(const report_cmd $ file $ file2)

let () =
  let sub name doc term = Cmd.v (Cmd.info name ~doc) term in
  let doc = "offline trace and run-report analyzer" in
  let info = Cmd.info "autobias_obs" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sub "trace" "per-phase breakdown of a trace export" trace_term;
            sub "report" "print or diff Obs run reports" report_term;
          ]))
