(* The daemon's line protocol. See protocol.mli for the contract.

   One request per line, one JSON response per line: the simplest shape a
   load generator, a shell pipe and a CI smoke test can all speak. Parsing
   is total — every malformed line becomes a typed [Error], never an
   exception — because the daemon must stay up whatever a client sends. *)

type common = {
  dataset : string;
  method_ : string;
  strategy : string;
  scale : float;
  seed : int;
  timeout : float;
  deadline : float option;
}

type request =
  | Induce_bias of common
  | Learn of common
  | Infer of common * int
  | Explain of common * int

type rejection = Overloaded of { retry_after : float } | Draining

type payload = (string * Obs.Json.t) list

type outcome =
  | Completed of payload
  | Degraded of payload * Budget.degradation
  | Quarantined of { attempts : int; exn : string; backtrace : string }
  | Failed of string

type response = {
  id : int;
  outcome : outcome;
  latency_s : float;
  attempts : int;
}

let default_timeout =
  Option.value Autobias.default_config.Autobias.timeout ~default:Float.infinity

let default_common dataset =
  {
    dataset;
    method_ = "autobias";
    strategy = "naive";
    scale = 1.0;
    seed = 42;
    timeout = default_timeout;
    deadline = None;
  }

let common_of_request = function
  | Induce_bias c | Learn c | Infer (c, _) | Explain (c, _) -> c

let verb_of_request = function
  | Induce_bias _ -> "bias"
  | Learn _ -> "learn"
  | Infer _ -> "infer"
  | Explain _ -> "explain"

(* ---------------- parsing ---------------- *)

let ( let* ) = Result.bind

(* NaN and infinity parse as floats, but no option means anything by them:
   a NaN timeout or deadline would never expire. *)
let parse_float key v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "%s: not a finite number: %S" key v)

let parse_int key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not an integer: %S" key v)

let parse_request line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match words with
  | [] -> Error "empty request"
  | verb :: rest ->
      let* dataset, opts =
        match rest with
        | [] -> Error (verb ^ ": missing dataset name")
        | d :: opts when not (String.contains d '=') -> Ok (d, opts)
        | _ -> Error (verb ^ ": missing dataset name")
      in
      let* kvs =
        List.fold_left
          (fun acc opt ->
            let* acc = acc in
            match String.index_opt opt '=' with
            | Some i when i > 0 ->
                Ok
                  (( String.sub opt 0 i,
                     String.sub opt (i + 1) (String.length opt - i - 1) )
                  :: acc)
            | _ -> Error (Printf.sprintf "malformed option %S (want key=value)" opt))
          (Ok []) opts
      in
      let* limit, common =
        List.fold_left
          (fun acc (k, v) ->
            let* limit, c = acc in
            match k with
            | "method" -> Ok (limit, { c with method_ = v })
            | "strategy" -> Ok (limit, { c with strategy = v })
            | "scale" ->
                let* f = parse_float k v in
                Ok (limit, { c with scale = f })
            | "seed" ->
                let* i = parse_int k v in
                Ok (limit, { c with seed = i })
            | "timeout" ->
                let* f = parse_float k v in
                Ok (limit, { c with timeout = f })
            | "deadline" ->
                let* f = parse_float k v in
                Ok (limit, { c with deadline = Some f })
            | "limit" ->
                let* i = parse_int k v in
                if i < 0 then Error (Printf.sprintf "limit: negative: %d" i)
                else Ok (i, c)
            | _ -> Error (Printf.sprintf "unknown option %S" k))
          (Ok (10, default_common dataset))
          kvs
      in
      (match verb with
      | "bias" -> Ok (Induce_bias common)
      | "learn" -> Ok (Learn common)
      | "infer" -> Ok (Infer (common, limit))
      | "explain" -> Ok (Explain (common, limit))
      | v -> Error (Printf.sprintf "unknown verb %S (want bias|learn|infer|explain)" v))

(* ---------------- rendering ---------------- *)

let request_to_string r =
  let c = common_of_request r in
  let limit =
    match r with
    | Infer (_, n) | Explain (_, n) -> Printf.sprintf " limit=%d" n
    | _ -> ""
  in
  Printf.sprintf "%s %s method=%s strategy=%s scale=%g seed=%d timeout=%g%s%s"
    (verb_of_request r) c.dataset c.method_ c.strategy c.scale c.seed c.timeout
    (match c.deadline with
    | Some d -> Printf.sprintf " deadline=%g" d
    | None -> "")
    limit

let degradation_to_json (d : Budget.degradation) =
  Obs.Json.Obj
    [
      ("status", Obs.Json.Str (Budget.status_to_string d.Budget.status));
      ( "counters",
        Obs.Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if v = 0 then None else Some (k, Obs.Json.Int v))
             (Budget.counters_to_assoc d.Budget.counters)) );
    ]

let status_of_outcome = function
  | Completed _ -> "completed"
  | Degraded _ -> "degraded"
  | Quarantined _ -> "quarantined"
  | Failed _ -> "failed"

let response_to_json r =
  let base =
    [
      ("id", Obs.Json.Int r.id);
      ("status", Obs.Json.Str (status_of_outcome r.outcome));
      ("latency_s", Obs.Json.Float r.latency_s);
      ("attempts", Obs.Json.Int r.attempts);
    ]
  in
  let rest =
    match r.outcome with
    | Completed payload -> [ ("result", Obs.Json.Obj payload) ]
    | Degraded (payload, d) ->
        [
          ("result", Obs.Json.Obj payload);
          ("degradation", degradation_to_json d);
        ]
    | Quarantined { attempts = _; exn; backtrace } ->
        [ ("exn", Obs.Json.Str exn); ("backtrace", Obs.Json.Str backtrace) ]
    | Failed msg -> [ ("error", Obs.Json.Str msg) ]
  in
  Obs.Json.Obj (base @ rest)

let rejection_to_json = function
  | Overloaded { retry_after } ->
      Obs.Json.Obj
        [
          ("status", Obs.Json.Str "rejected");
          ("reason", Obs.Json.Str "overloaded");
          ("retry_after_s", Obs.Json.Float retry_after);
        ]
  | Draining ->
      Obs.Json.Obj
        [
          ("status", Obs.Json.Str "rejected");
          ("reason", Obs.Json.Str "draining");
        ]

let rejection_to_string = function
  | Overloaded { retry_after } ->
      Printf.sprintf "overloaded (retry after %.3fs)" retry_after
  | Draining -> "draining"
