(* The names this binary produces. BENCHMARK.json at the repository root
   must list exactly these workloads and metrics with the same units;
   [e2e.exe validate] checks that, so the two cannot drift apart. *)

let workloads = [ "uw-learn"; "sys-learn"; "uw-pooled"; "serve-mix" ]

(* End-to-end metrics: every workload reports every one of them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("jobs_per_s", "jobs/s");
    ("latency_p50_s", "s");
    ("latency_p75_s", "s");
    ("f1", "1");
    ("peak_rss_mb", "MB");
  ]

(* A per-layer metric and the end-to-end metrics it should move, each on
   the workloads named with it. Times are measured on every workload; a
   layer a workload does not exercise (no pool in a sequential run, no
   queue in a batch run) reports 0 only as a count or a share. *)
type layer = {
  name : string;
  unit_ : string;
  moves : (string * string list) list;
}

let batch = [ "uw-learn"; "sys-learn"; "uw-pooled" ]

let layer ?(moves = []) name unit_ = { name; unit_; moves }

let per_layer =
  let armg = [ ("jobs_per_s", [ "uw-learn"; "uw-pooled" ]) ] in
  let coverage = [ ("jobs_per_s", [ "sys-learn" ]) ] in
  let ground =
    [ ("jobs_per_s", [ "sys-learn" ]); ("latency_p50_s", [ "serve-mix" ]) ]
  in
  let discovery = [ ("latency_p50_s", [ "serve-mix" ]) ] in
  let learner = [ ("jobs_per_s", batch) ] in
  let pool = [ ("jobs_per_s", [ "uw-pooled"; "serve-mix" ]) ] in
  let server =
    [ ("latency_p50_s", [ "serve-mix" ]); ("latency_p75_s", [ "serve-mix" ]) ]
  in
  let gc = [ ("jobs_per_s", [ "uw-learn"; "serve-mix" ]) ] in
  [
    layer "armg.generalize_us_p50" "us" ~moves:armg;
    layer "armg.generalize_us_p95" "us" ~moves:armg;
    layer "armg.generalize_n" "count";
    layer "learn.beam_self_s" "s" ~moves:armg;
    layer "coverage.eval_us_p50" "us" ~moves:coverage;
    layer "coverage.eval_us_p95" "us" ~moves:coverage;
    layer "coverage.eval_n" "count";
    layer "coverage.eval_self_s" "s" ~moves:coverage;
    layer "coverage.tries" "count" ~moves:coverage;
    layer "coverage.inherited" "count" ~moves:coverage;
    layer "coverage.memo_hit_rate" "1" ~moves:coverage;
    layer "coverage.memo_lookups" "count";
    layer "coverage.prune_hit_rate" "1" ~moves:coverage;
    layer "coverage.prune_probes" "count";
    layer "coverage.warm_s" "s" ~moves:ground;
    layer "bottom_clause.build_ms_p50" "ms" ~moves:ground;
    layer "bottom_clause.build_n" "count";
    layer "sampling.sample_s" "s" ~moves:ground;
    layer "discovery.bias_for_s" "s" ~moves:discovery;
    layer "discovery.bias_latency_s_p50" "s" ~moves:discovery;
    layer "learn.learn_s" "s" ~moves:learner;
    layer "learn.reduce_s" "s" ~moves:learner;
    layer "learn.clauses" "count" ~moves:learner;
    layer "learn.candidates_generated" "count" ~moves:learner;
    layer "learn.candidates_evaluated" "count" ~moves:learner;
    layer "learn.accepted_ratio" "1" ~moves:learner;
    layer "evaluation.score_s" "s" ~moves:learner;
    layer "pool.tasks_run" "count" ~moves:pool;
    layer "pool.queue_wait_share" "1" ~moves:pool;
    layer "pool.busy_share" "1" ~moves:pool;
    layer "job.service_s_p50" "s" ~moves:server;
    layer "server.queue_wait_share" "1" ~moves:server;
    layer "gc.minor_words" "count" ~moves:gc;
    layer "gc.minor_collections" "count" ~moves:gc;
    layer "gc.major_collections" "count" ~moves:gc;
    layer "trace.overhead_pct" "%";
  ]

(* Every metric with its unit. *)
let units = end_to_end @ List.map (fun l -> (l.name, l.unit_)) per_layer

let unit_of name = List.assoc name units

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
