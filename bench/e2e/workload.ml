(* The four workloads: how each sets up, what one job is, how a run is
   measured, and which outputs are checked. See README.md for why each
   workload exists and what it should and should not move. *)

type result = {
  metrics : (string * float) list;
  attempted : int;  (** jobs run, repeats included *)
  failed : int;  (** jobs that failed or ended degraded *)
  problems : string list;  (** failed correctness checks; empty = correct *)
}

let render = Logic.Clause.definition_to_string
let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))
let ratio a b = if b = 0. then 0. else a /. b

(* VmHWM, the process's peak resident set, in MB. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> float_of_int kb /. 1024.
              | None -> find ())
        in
        find ())
  with Sys_error _ -> nan

(* [with_setup setup teardown f] times the set-up, then runs [f] on a
   fresh one and returns the set-up time with [f]'s result. The set-up is
   timed in [blocks] blocks, each repeating set-up and teardown until it
   has lasted [block_s] (at least once) and giving the mean; the median
   block is reported. A set-up of a few microseconds timed once would be
   decided by the cache and heap state of that moment. The garbage of the
   repeats is collected before [f] runs. *)
let setup_blocks = 11
let block_s = 0.01

let with_setup ?(blocks = setup_blocks) setup teardown f =
  let kept = ref None in
  let block () =
    let t0 = Budget.now () and n = ref 0 and spent = ref 0. in
    while !n = 0 || Budget.now () -. t0 < block_s do
      Option.iter teardown !kept;
      let x, t = Obs.Trace.time setup in
      kept := Some x;
      spent := !spent +. t;
      incr n
    done;
    !spent /. float_of_int !n
  in
  let times = Array.init blocks (fun _ -> block ()) in
  Gc.full_major ();
  let x = Option.get !kept in
  (Stats.median times, Fun.protect ~finally:(fun () -> teardown x) (fun () -> f x))

(* ------------------------------------------------------------------ *)
(* Checks and per-layer metrics shared by the workloads                *)
(* ------------------------------------------------------------------ *)

let problem problems fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let check_funnel problems =
  if not (List.for_all Obs.Funnel.invariant_holds (Obs.Funnel.snapshot ())) then
    problem problems "funnel partition invariant violated"

let check_degradation problems ~what (d : Budget.degradation) =
  if not (Budget.equal_status d.status Budget.Completed) then
    problem problems "%s ended %s" what (Budget.status_to_string d.status)
  else if d.counters.beam_rounds_cut > 0 then
    (* a clause search cut by its wall-clock clause timeout makes the
       definition depend on machine speed *)
    problem problems "%s had a beam search cut by its clock" what

type counters = { metrics : Obs.Metrics.snapshot; gc : Gc.stat }

let read_counters () =
  { metrics = Obs.Metrics.snapshot (); gc = Gc.quick_stat () }

(* The C-sourced per-layer metrics of one untraced pass, from counters read
   before and after it and the learner runs' degradation records. Pool
   times come from the sums of the pool's histograms, which are exact (their
   percentiles are bucket bounds). *)
let counter_metrics ~before ~after ~degradations ~pool_size ~wall =
  let sum f =
    float_of_int
      (List.fold_left (fun n (d : Budget.degradation) -> n + f d.counters) 0
         degradations)
  in
  let hits = sum (fun c -> c.coverage_memo_hits) in
  let lookups = hits +. sum (fun c -> c.coverage_memo_misses) in
  let delta name =
    let get c = Option.value ~default:0 (List.assoc_opt name c.metrics.counters) in
    float_of_int (get after - get before)
  in
  let hist_sum name =
    let get c =
      match List.assoc_opt name c.metrics.Obs.Metrics.histograms with
      | Some h -> h.sum
      | None -> 0.
    in
    get after -. get before
  in
  let wait = hist_sum "pool.queue_wait_s" and run = hist_sum "pool.task_run_s" in
  let funnel = Obs.Funnel.total (Obs.Funnel.snapshot ()) in
  let gc f = float_of_int (f after.gc - f before.gc) in
  [
    ("coverage.tries", sum (fun c -> c.subsumption_tries));
    ("coverage.inherited", sum (fun c -> c.coverage_inherited));
    ("coverage.memo_lookups", lookups);
    ("coverage.memo_hit_rate", ratio hits lookups);
    ("coverage.prune_probes", delta "prune.probes");
    ("coverage.prune_hit_rate", ratio (delta "prune.hits") (delta "prune.probes"));
    ("learn.clauses", delta "learn.clauses_accepted");
    ("learn.candidates_generated", float_of_int funnel.generated);
    ("learn.candidates_evaluated", delta "learn.candidates_evaluated");
    ( "learn.accepted_ratio",
      ratio (float_of_int funnel.accepted) (float_of_int funnel.generated) );
    ("pool.tasks_run", delta "pool.tasks_run");
    ("pool.queue_wait_share", ratio wait (wait +. run));
    ("pool.busy_share", ratio run (float_of_int pool_size *. wall));
    ("gc.minor_words", after.gc.minor_words -. before.gc.minor_words);
    ("gc.minor_collections", gc (fun g -> g.minor_collections));
    ("gc.major_collections", gc (fun g -> g.major_collections));
  ]

(* The T- and B-sourced metrics: spans summed over every path that ends in
   the named span. A row's self time is its total minus its direct
   children's (Obs.Trace.summary_rows). *)
let span_metrics () =
  let bias_for =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.name = "bias_for" then Some ((e.t_end_us -. e.t_start_us) /. 1e6)
        else None)
      (Obs.Trace.events ())
  in
  let rows = Obs.Trace.summary_rows () in
  let sum field leaf =
    List.fold_left
      (fun acc (r : Obs.Trace.summary_row) ->
        match List.rev r.row_path with
        | l :: _ when l = leaf -> acc +. field r
        | _ -> acc)
      0. rows
  in
  let total = sum (fun r -> r.total_s) and self = sum (fun r -> r.self_s) in
  [
    ("learn.beam_self_s", self "beam_step");
    ("coverage.eval_self_s", self "eval_compiled");
    ("sampling.sample_s", total "sample");
    ("discovery.bias_for_s", total "bias_for");
    ("discovery.bias_latency_s_p50", Stats.median (Array.of_list bias_for));
    ("learn.learn_s", total "learn");
    ("learn.reduce_s", total "reduce");
    ("coverage.warm_s", total "ground_bc");
    ("evaluation.score_s", total "e2e.evaluate");
  ]

(* Runs [pass] untraced and then traced, each once: the counters of the
   first, the spans of the second, the Chrome trace in [file], and the
   tracing overhead. A wrapped span ring would understate every layer, so
   it fails the run. *)
let traced_passes problems ~file ~degradations ~pool_size pass =
  Obs.Funnel.reset ();
  let before = read_counters () in
  let plain, wall = Obs.Trace.time pass in
  let after = read_counters () in
  let counters =
    counter_metrics ~before ~after ~degradations:(degradations plain) ~pool_size
      ~wall
  in
  Obs.Funnel.reset ();
  Obs.Trace.enable ~capacity:(1 lsl 21) ();
  let traced, traced_wall = Obs.Trace.time pass in
  Obs.Trace.export_json file;
  let spans = span_metrics () in
  if Obs.Trace.dropped () > 0 then problem problems "trace ring wrapped";
  Obs.Trace.disable ();
  ( plain,
    traced,
    counters @ spans
    @ [ ("trace.overhead_pct", 100. *. ((traced_wall /. wall) -. 1.)) ] )

let auto_bias (d : Datasets.Dataset.t) =
  (Autobias.bias_for Autobias.Auto_bias Autobias.default_config d
     ~train_pos:d.positives)
    .bias

(* ------------------------------------------------------------------ *)
(* Batch workloads: one job is the public-call chain on one dataset     *)
(* ------------------------------------------------------------------ *)

type batch = {
  dataset : unit -> Datasets.Dataset.t;
  jobs : int;  (** the job list: learner seeds [[| seed; j |]], j < jobs *)
  pool_size : int;  (** 0 = sequential learner *)
}

(* The datasets are generated from a fixed seed, like the paper's fixed
   datasets; [--seed] drives each job's learner RNG (sampling, ranking
   subsamples, ARMG targets). Regenerating the data per seed makes one
   job's cost vary so much that no useful bound holds over ten seeds.

   One pass over a list takes about two thirds of a 20 s run on a 2-core
   host, so a slower host still ends near the window. uw-pooled is
   uw-learn with the learner on a pool: the two differ only by the pool. *)
let data_seed = 42

let batch_spec = function
  | "uw-learn" ->
      { dataset = (fun () -> Datasets.Uw.generate ~seed:data_seed ~scale:0.3 ());
        jobs = 44;
        pool_size = 0 }
  | "sys-learn" ->
      { dataset =
          (fun () -> Datasets.Sys_data.generate ~seed:data_seed ~scale:0.05 ());
        jobs = 44;
        pool_size = 0 }
  | "uw-pooled" ->
      { dataset = (fun () -> Datasets.Uw.generate ~seed:data_seed ~scale:0.3 ());
        jobs = 40;
        pool_size = 1 }
  | w -> invalid_arg ("unknown batch workload " ^ w)

let job_rng ~seed j = Random.State.make [| seed; j |]

type job_out = {
  definition : Logic.Clause.definition;
  f1 : float;
  degradation : Budget.degradation;
}

(* The timed chain. Coverage.warm is hoisted out of the learner so the
   ground-BC cost shows as a call of its own; Autobias.learn_once builds
   the same ground BCs lazily, with the same per-example RNG, so the
   definition is the same either way (checked in the traced run). *)
let run_job ?pool (d : Datasets.Dataset.t) ~rng =
  let config = { Autobias.default_config with pool } in
  let pos = d.positives and neg = d.negatives in
  let span name f = Obs.Trace.span ~cat:"e2e" name f in
  let bias =
    span "e2e.bias_for" (fun () ->
        (Autobias.bias_for Autobias.Auto_bias config d ~train_pos:pos).bias)
  in
  let cov =
    span "e2e.coverage_context" (fun () ->
        Autobias.coverage_context config d bias ~rng)
  in
  span "e2e.warm" (fun () -> Learning.Coverage.warm ?pool cov (pos @ neg));
  let r =
    span "e2e.learn" (fun () ->
        Learning.Learn.learn ~config:(Autobias.learn_config config) cov ~rng
          ~positives:pos ~negatives:neg)
  in
  let m =
    span "e2e.evaluate" (fun () ->
        Evaluation.Metrics.evaluate cov r.definition ~positives:pos
          ~negatives:neg)
  in
  { definition = r.definition; f1 = m.f_measure; degradation = r.degradation }

let with_batch_setup ?blocks spec f =
  let setup () =
    let pool =
      if spec.pool_size = 0 then None
      else Some (Parallel.Pool.create ~size:spec.pool_size ())
    in
    (spec.dataset (), pool)
  in
  let teardown (_, pool) = Option.iter Parallel.Pool.shutdown pool in
  with_setup ?blocks setup teardown (fun (d, pool) -> f d pool)

let timed_job ?pool d ~seed j =
  Obs.Trace.time (fun () -> run_job ?pool d ~rng:(job_rng ~seed j))

(* One pass over the job list, with the checks every pass gets. *)
let batch_pass problems ?pool spec d ~seed =
  Obs.Funnel.reset ();
  let runs = Array.init spec.jobs (timed_job ?pool d ~seed) in
  Array.iteri
    (fun j (o, _) ->
      check_degradation problems ~what:(Printf.sprintf "job %d" j) o.degradation)
    runs;
  check_funnel problems;
  (Array.map fst runs, Array.map snd runs)

let with_setup_s (setup_s, (r : result)) =
  { r with metrics = ("setup_s", setup_s) :: r.metrics }

let batch_measure spec ~seed ~seconds d pool =
  let problems = ref [] in
  let t0 = Budget.now () in
  let outs, first = batch_pass problems ?pool spec d ~seed in
  (* Read after the one pass every run makes, so the peak does not grow
     with the repeats a faster build fits into the window. *)
  let rss = peak_rss_mb () in
  (* The rest of the window repeats jobs in list order. A job's latency is
     the mean of its samples, so a repeat sharpens the jobs it reaches
     without favouring them. *)
  let samples = Array.map (fun t -> [ t ]) first in
  let repeats = ref 0 in
  while Budget.now () -. t0 < seconds do
    let j = !repeats mod spec.jobs in
    let o, t = timed_job ?pool d ~seed j in
    if render o.definition <> render outs.(j).definition then
      problem problems "job %d learned another definition on repeat" j;
    samples.(j) <- t :: samples.(j);
    incr repeats
  done;
  (* The pool must not change what is learned: job 0 again without it. *)
  if pool <> None
     && render (run_job d ~rng:(job_rng ~seed 0)).definition
        <> render outs.(0).definition
  then problem problems "job 0: pooled and sequential definitions differ";
  let latencies = Array.map (fun l -> mean (Array.of_list l)) samples in
  let failed =
    Array.fold_left
      (fun n o ->
        if Budget.equal_status o.degradation.status Budget.Completed then n
        else n + 1)
      0 outs
  in
  {
    metrics =
      [
        ("jobs_per_s", 1. /. mean latencies);
        ("latency_p50_s", Obs.Metrics.percentile latencies 0.5);
        ("latency_p75_s", Obs.Metrics.percentile latencies 0.75);
        ("f1", mean (Array.map (fun o -> o.f1) outs));
        ("peak_rss_mb", rss);
      ];
    attempted = spec.jobs + !repeats;
    failed;
    problems = List.rev !problems;
  }

let batch_run name ~seed ~seconds =
  let spec = batch_spec name in
  with_setup_s (with_batch_setup spec (batch_measure spec ~seed ~seconds))

let batch_trace name ~seed ~dir =
  let spec = batch_spec name in
  snd @@ with_batch_setup ~blocks:1 spec @@ fun d pool ->
  let problems = ref [] in
  let (outs, times), (traced, _), metrics =
    traced_passes problems
      ~file:(Filename.concat dir (name ^ ".trace.json"))
      ~degradations:(fun (outs, _) ->
        Array.fold_left (fun l o -> o.degradation :: l) [] outs)
      ~pool_size:spec.pool_size
      (fun () -> batch_pass problems ?pool spec d ~seed)
  in
  Array.iteri
    (fun j o ->
      if render o.definition <> render outs.(j).definition then
        problem problems "job %d: traced and untraced definitions differ" j)
    traced;
  let direct =
    Autobias.learn_once Autobias.Auto_bias d ~rng:(job_rng ~seed 0)
      ~train_pos:d.positives ~train_neg:d.negatives
  in
  if render direct.definition <> render outs.(0).definition then
    problem problems "job 0 differs from Autobias.learn_once";
  {
    metrics =
      metrics
      @ [ ("job.service_s_p50", Stats.median times);
          ("server.queue_wait_share", 0.) ]
      @ Replay.run d (auto_bias d) ~seed;
    attempted = 2 * spec.jobs;
    failed = 0;
    problems = List.rev !problems;
  }

(* ------------------------------------------------------------------ *)
(* serve-mix: a daemon serving a closed loop of two clients             *)
(* ------------------------------------------------------------------ *)

(* The request list, cycled: one job in four asks for a bias only
   (discovery on HIV), the others learn on small SYS datasets, each on its
   own dataset seed drawn from [--seed]. Many distinct learn requests keep
   the mean job cost steady from seed to seed; cycling the list makes
   later jobs repeat earlier requests exactly. *)
let learn_requests = 48
let bias_requests = 8
let list_length = 4 * learn_requests / 3
let clients = 2
let learner_timeout = 120.

(* Every run answers at least the first [scored] requests, and its f1 is
   the mean over the learn requests among them, so f1 is exact per seed
   however far a run gets. The traced run serves [traced_requests]
   requests per pass. *)
let scored = 32
let traced_requests = 32

let request ~seed i =
  let i = i mod list_length in
  let common dataset scale k =
    { (Server.Protocol.default_common dataset) with
      scale; seed = seed + k; timeout = learner_timeout }
  in
  if i mod 4 = 2 then
    Server.Protocol.Induce_bias (common "hiv" 1.0 (i / 4 mod bias_requests))
  else Server.Protocol.Learn (common "sys" 0.05 (i - ((i + 1) / 4)))

type served = {
  index : int;
  outcome : Server.Protocol.outcome;
  latency_s : float;  (** submission to response *)
  service_s : float;  (** inside the handler *)
}

type server = {
  catalog : Server.Catalog.t;
  pool : Parallel.Pool.t;
  daemon : Server.Daemon.t;
  lock : Mutex.t;
  service : (string, float) Hashtbl.t;  (** job label -> handler seconds *)
  degradations : Budget.degradation list ref;  (** of learn jobs *)
}

(* Every dataset the list asks for is loaded into the catalog at set-up,
   so served latency is serving, not generation. *)
let serve_setup ~seed () =
  let catalog = Server.Catalog.create () in
  for i = 0 to list_length - 1 do
    let c = Server.Protocol.common_of_request (request ~seed i) in
    ignore (Server.Catalog.load catalog ~name:c.dataset ~scale:c.scale ~seed:c.seed)
  done;
  let pool = Parallel.Pool.create ~size:clients () in
  let lock = Mutex.create () and service = Hashtbl.create 256 in
  let degradations = ref [] in
  let handler ~budget req =
    let ((_, degradation) as r), t =
      Obs.Trace.time (fun () -> Server.Handler.default catalog ~budget req)
    in
    Mutex.protect lock (fun () ->
        Hashtbl.replace service (Option.value ~default:"" (Budget.job budget)) t;
        Option.iter (fun d -> degradations := d :: !degradations) degradation);
    r
  in
  let config =
    { Server.Daemon.default_config with
      max_in_flight = 2; max_queue = 2; default_deadline = None }
  in
  { catalog; pool; lock; service; degradations;
    daemon = Server.Daemon.create ~pool ~config handler }

let serve_teardown s =
  Server.Daemon.drain s.daemon;
  Parallel.Pool.shutdown s.pool

let with_server ?blocks ~seed f =
  with_setup ?blocks (serve_setup ~seed) serve_teardown f

(* [clients] threads each take the next index, submit it and wait for the
   reply before taking another, until [stop index elapsed]. [stop] grows
   with both arguments, so the answered indices are exactly [0, n).
   [after_scored] runs once, when [scored] requests have been answered.
   Clients are threads of the main domain, not domains of their own: they
   only wait, and two extra domains would join every stop-the-world minor
   collection (measured on 2 cores: 2.8 against 4.6 jobs/s). *)
let serve_loop ?(after_scored = ignore) s ~seed ~stop =
  let next = Atomic.make 0 and out = ref [] in
  let t0 = Budget.now () in
  let record r =
    let n = Mutex.protect s.lock (fun () -> out := r :: !out; List.length !out) in
    if n = scored then after_scored ()
  in
  let rec client () =
    let i = Atomic.fetch_and_add next 1 in
    if not (stop i (Budget.now () -. t0)) then begin
      (match Server.Daemon.submit_and_wait s.daemon (request ~seed i) with
      | Ok r ->
          let label = Printf.sprintf "job-%d" r.id in
          let service_s =
            Mutex.protect s.lock (fun () ->
                Option.value ~default:nan (Hashtbl.find_opt s.service label))
          in
          record
            { index = i; outcome = r.outcome; latency_s = r.latency_s; service_s }
      | Error rej ->
          record
            { index = i;
              outcome = Failed (Server.Protocol.rejection_to_string rej);
              latency_s = nan;
              service_s = nan });
      client ()
    end
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  let wall = Budget.now () -. t0 in
  (List.sort (fun a b -> compare a.index b.index) !out, wall)

let answer r =
  match r.outcome with
  | Completed p -> (
      match (List.assoc_opt "definition" p, List.assoc_opt "bias" p) with
      | Some (Obs.Json.Str s), _ | None, Some (Obs.Json.Str s) -> Some s
      | _ -> None)
  | _ -> None

let is_completed r = match r.outcome with Completed _ -> true | _ -> false

(* The answered indices are exactly 0..n-1, every response completed, and
   repeats of one request gave byte-identical answers. *)
let check_served problems s served =
  if List.exists (fun (i, r) -> i <> r.index) (List.mapi (fun i r -> (i, r)) served)
  then problem problems "responses do not account for every job";
  List.iter
    (fun r ->
      if not (is_completed r) then
        problem problems "job %d ended %s" r.index
          (Server.Protocol.status_of_outcome r.outcome))
    served;
  let first = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = r.index mod list_length in
      match Hashtbl.find_opt first k with
      | None -> Hashtbl.replace first k (answer r)
      | Some a ->
          if a <> answer r then
            problem problems "repeat of request %d answered differently" k)
    served;
  List.iter (check_degradation problems ~what:"a served learn") !(s.degradations);
  check_funnel problems

let dataset_of s ~seed i =
  let c = Server.Protocol.common_of_request (request ~seed i) in
  Result.get_ok
    (Server.Catalog.load s.catalog ~name:c.dataset ~scale:c.scale ~seed:c.seed)

(* The served learn path is the CLI path: request 0 (a learn), learned
   directly, must give the served definition byte for byte. *)
let check_direct problems s served ~seed =
  let d = dataset_of s ~seed 0 in
  let direct =
    Autobias.learn_once
      ~config:{ Autobias.default_config with timeout = Some learner_timeout }
      Autobias.Auto_bias d ~rng:(Random.State.make [| seed |])
      ~train_pos:d.positives ~train_neg:d.negatives
  in
  match served with
  | r :: _ when answer r = Some (render direct.definition) -> ()
  | _ -> problem problems "served request 0 differs from Autobias.learn_once"

(* Training-set F-measure of the served definitions of the learn requests
   below [scored], each scored on its own dataset as the batch workloads
   score theirs. *)
let served_f1 s served ~seed =
  List.filter_map
    (fun r ->
      match (request ~seed r.index, answer r) with
      | Learn c, Some text when r.index < scored ->
          let d = dataset_of s ~seed r.index in
          let cov =
            Autobias.coverage_context Autobias.default_config d (auto_bias d)
              ~rng:(Random.State.make [| c.seed |])
          in
          Obs.Trace.span ~cat:"e2e" "e2e.evaluate" @@ fun () ->
          Some
            (Evaluation.Metrics.evaluate cov (Logic.Parser.definition text)
               ~positives:d.positives ~negatives:d.negatives)
              .f_measure
      | _ -> None)
    served
  |> Array.of_list |> mean

let serve_measure ~seed ~seconds s =
  let problems = ref [] in
  Obs.Funnel.reset ();
  let rss = ref nan in
  let served, wall =
    serve_loop s ~seed
      ~after_scored:(fun () -> rss := peak_rss_mb ())
      ~stop:(fun i elapsed -> i >= scored && elapsed >= seconds)
  in
  check_served problems s served;
  check_direct problems s served ~seed;
  let completed = List.length (List.filter is_completed served) in
  let lat = Array.of_list (List.map (fun r -> r.latency_s) served) in
  {
    metrics =
      [
        ("jobs_per_s", float_of_int completed /. wall);
        ("latency_p50_s", Obs.Metrics.percentile lat 0.5);
        ("latency_p75_s", Obs.Metrics.percentile lat 0.75);
        ("f1", served_f1 s served ~seed);
        ("peak_rss_mb", !rss);
      ];
    attempted = List.length served;
    failed = List.length served - completed;
    problems = List.rev !problems;
  }

let serve_run ~seed ~seconds =
  with_setup_s (with_server ~seed (serve_measure ~seed ~seconds))

let serve_trace ~seed ~dir =
  snd @@ with_server ~blocks:1 ~seed @@ fun s ->
  let problems = ref [] in
  (* A pass serves the requests, then scores what it served. *)
  let pass () =
    s.degradations := [];
    let served, _ = serve_loop s ~seed ~stop:(fun i _ -> i >= traced_requests) in
    check_served problems s served;
    ignore (served_f1 s served ~seed);
    served
  in
  let served, traced, metrics =
    traced_passes problems
      ~file:(Filename.concat dir "serve-mix.trace.json")
      ~degradations:(fun _ -> !(s.degradations))
      ~pool_size:clients pass
  in
  if List.map answer served <> List.map answer traced then
    problem problems "traced and untraced answers differ";
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. served in
  let service = Array.of_list (List.map (fun r -> r.service_s) served) in
  let d = dataset_of s ~seed 0 in
  {
    metrics =
      metrics
      @ [
          ("job.service_s_p50", Stats.median service);
          ( "server.queue_wait_share",
            ratio
              (sum (fun r -> r.latency_s -. r.service_s))
              (sum (fun r -> r.latency_s)) );
        ]
      @ Replay.run d (auto_bias d) ~seed;
    attempted = 2 * traced_requests;
    failed = 0;
    problems = List.rev !problems;
  }

let run name ~seed ~seconds =
  if name = "serve-mix" then serve_run ~seed ~seconds
  else batch_run name ~seed ~seconds

let trace name ~seed ~dir =
  if name = "serve-mix" then serve_trace ~seed ~dir
  else batch_trace name ~seed ~dir
