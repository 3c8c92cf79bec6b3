(* Request execution. See handler.mli.

   One invariant matters above all: the served learn path is the CLI learn
   path — same config defaults, same [Random.State.make [| seed |]], same
   full-training-set call — so a fixed-seed request through the daemon is
   bit-identical to the same run via [autobias learn]. Handlers therefore
   run with [pool = None]: the daemon parallelizes across jobs, not inside
   them, which is both the serving-throughput shape and the only shape
   whose determinism is already pinned by the existing test suite. *)

exception Bad_request of string

let method_of_string m =
  try Autobias.method_of_string m
  with Invalid_argument msg -> raise (Bad_request msg)

let strategy_of_string s =
  try Sampling.Strategy.of_string s
  with Invalid_argument msg | Failure msg -> raise (Bad_request msg)

let dataset_of catalog (c : Protocol.common) =
  match
    Catalog.load catalog ~name:c.Protocol.dataset ~scale:c.Protocol.scale
      ~seed:c.Protocol.seed
  with
  | Ok d -> d
  | Error e -> raise (Bad_request (Catalog.error_to_string e))

let config_of ~budget (c : Protocol.common) =
  {
    Autobias.default_config with
    strategy = strategy_of_string c.Protocol.strategy;
    timeout = Some c.Protocol.timeout;
    budget = Some budget;
    pool = None;
  }

(* The CLI learn path, verbatim: full training split, seed-derived RNG. *)
let learn ~budget catalog (c : Protocol.common) =
  let dataset = dataset_of catalog c in
  let method_ = method_of_string c.Protocol.method_ in
  let config = config_of ~budget c in
  let rng = Random.State.make [| c.Protocol.seed |] in
  let r =
    Autobias.learn_once ~config method_ dataset ~rng
      ~train_pos:dataset.Datasets.Dataset.positives
      ~train_neg:dataset.Datasets.Dataset.negatives
  in
  (dataset, config, rng, r)

let learn_payload (r : Autobias.run_result) =
  [
    ( "definition",
      Obs.Json.Str (Logic.Clause.definition_to_string r.Autobias.definition) );
    ("clauses", Obs.Json.Int (List.length r.Autobias.definition));
    ("learn_time_s", Obs.Json.Float r.Autobias.learn_time);
    ( "timed_out",
      Obs.Json.Bool (r.Autobias.degradation.Budget.status <> Budget.Completed) );
    ( "bias_size",
      Obs.Json.Int (Bias.Language.size r.Autobias.bias_info.Autobias.bias) );
  ]

let default catalog ~budget request =
  match request with
  | Protocol.Induce_bias c ->
      let dataset = dataset_of catalog c in
      let method_ = method_of_string c.Protocol.method_ in
      let config = config_of ~budget c in
      let bi =
        Autobias.bias_for method_ config dataset
          ~train_pos:dataset.Datasets.Dataset.positives
      in
      ( [
          ("method", Obs.Json.Str c.Protocol.method_);
          ("bias_size", Obs.Json.Int (Bias.Language.size bi.Autobias.bias));
          ("bias_time_s", Obs.Json.Float bi.Autobias.bias_time);
          ("bias", Obs.Json.Str (Fmt.str "%a" Bias.Language.pp bi.Autobias.bias));
        ],
        None )
  | Protocol.Learn c ->
      let _, _, _, r = learn ~budget catalog c in
      (learn_payload r, Some r.Autobias.degradation)
  | Protocol.Infer (c, limit) ->
      let dataset, _, _, r = learn ~budget catalog c in
      let derived =
        Learning.Inference.derive_definition dataset.Datasets.Dataset.db
          r.Autobias.definition
      in
      let tuples =
        List.filteri (fun i _ -> i < limit) derived
        |> List.map (fun t ->
               Obs.Json.Str (Relational.Relation.tuple_to_string t))
      in
      ( learn_payload r
        @ [
            ("derived", Obs.Json.Int (List.length derived));
            ("tuples", Obs.Json.List tuples);
          ],
        Some r.Autobias.degradation )
  | Protocol.Explain (c, limit) ->
      let dataset, config, rng, r = learn ~budget catalog c in
      let cov =
        Autobias.coverage_context config dataset
          r.Autobias.bias_info.Autobias.bias ~rng
      in
      let explain_some examples =
        List.filteri (fun i _ -> i < limit) examples
        |> List.map (fun e ->
               Obs.Json.Obj
                 [
                   ( "example",
                     Obs.Json.Str (Relational.Relation.tuple_to_string e) );
                   ( "explanation",
                     Obs.Json.Str
                       (Fmt.str "%a" Learning.Explain.pp_definition_result
                          (Learning.Explain.explain_definition cov
                             r.Autobias.definition e)) );
                 ])
      in
      ( learn_payload r
        @ [
            ( "positives",
              Obs.Json.List (explain_some dataset.Datasets.Dataset.positives) );
            ( "negatives",
              Obs.Json.List (explain_some dataset.Datasets.Dataset.negatives) );
          ],
        Some r.Autobias.degradation )
