(* Replay: the per-call latency of the three kernels a beam step leans on
   ([Bottom_clause.build], [Armg.generalize], [Coverage.eval]), each call
   timed on its own, on the workload's data. The candidate set is the one
   bench/main.ml's scaling experiment evaluates: for each of up to three
   seed positives, its bottom clause and the chain of ARMG generalizations
   against every third positive. The coverage context is uncached and
   unpruned, so every timed eval is a real subsumption test. *)

let max_seeds = 3

(* Caps the eval pass well inside the 5 s the replay may take on a 2-core
   host; the time limit only guards a much slower machine, and the sample
   counts are reported so a capped replay shows. *)
let max_evals = 6000
let time_limit_s = 5.

(* [layer ^ unit_suffix ^ "_p50"] (and "_p95"), plus the sample count
   [layer ^ "_n"] next to them. *)
let summary ~layer ~unit_suffix ~scale ~p95 samples =
  let a = Array.of_list samples in
  let pct q = scale *. Obs.Metrics.percentile a q in
  let name q = layer ^ unit_suffix ^ q in
  ((name "_p50", pct 0.5) :: (if p95 then [ (name "_p95", pct 0.95) ] else []))
  @ [ (layer ^ "_n", float_of_int (Array.length a)) ]

let run (d : Datasets.Dataset.t) bias ~seed =
  let t_end = Budget.now () +. time_limit_s in
  let config =
    { Autobias.default_config with coverage_cache = false; pruning = false }
  in
  let rng = Random.State.make [| seed; 3 |] in
  let cov = Autobias.coverage_context config d bias ~rng in
  let examples = d.positives @ d.negatives in
  Learning.Coverage.warm cov examples;
  let builds = ref [] and armgs = ref [] and candidates = ref [] in
  List.iter
    (fun seed_example ->
      let bottom, t =
        Obs.Trace.time (fun () ->
            Learning.Bottom_clause.build ~config:(Autobias.bc_config config) d.db
              bias ~rng ~example:seed_example)
      in
      builds := t :: !builds;
      candidates := bottom :: !candidates;
      let c = ref bottom in
      List.iteri
        (fun i e ->
          if i mod 3 = 0 && Budget.now () < t_end then begin
            let g, t =
              Obs.Trace.time (fun () -> Learning.Armg.generalize cov !c ~example:e)
            in
            armgs := t :: !armgs;
            Option.iter
              (fun c' ->
                c := c';
                candidates := c' :: !candidates)
              g
          end)
        d.positives)
    (Logic.Util.take max_seeds d.positives);
  let evals = ref [] and n = ref 0 in
  (try
     List.iter
       (fun c ->
         List.iter
           (fun e ->
             if !n >= max_evals || Budget.now () > t_end then raise Exit;
             incr n;
             let _, t = Obs.Trace.time (fun () -> Learning.Coverage.eval cov c e) in
             evals := t :: !evals)
           examples)
       (List.rev !candidates)
   with Exit -> ());
  summary ~layer:"bottom_clause.build" ~unit_suffix:"_ms" ~scale:1e3 ~p95:false
    !builds
  @ summary ~layer:"armg.generalize" ~unit_suffix:"_us" ~scale:1e6 ~p95:true
      !armgs
  @ summary ~layer:"coverage.eval" ~unit_suffix:"_us" ~scale:1e6 ~p95:true !evals
