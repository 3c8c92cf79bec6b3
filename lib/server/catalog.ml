(* Shared read-mostly catalog of loaded databases. See catalog.mli.

   Reads are one atomic load plus an assoc walk — the hot path, since every
   job resolves its dataset here. Loads (rare: first request for a
   (dataset, scale, seed) triple) serialize on a mutex and double-check the
   map under it, so concurrent first requests generate the dataset once.
   Entries are immutable once published; jobs on other domains can hold a
   dataset across the whole run without further coordination. *)

type key = { name : string; scale : float; seed : int }

type error =
  | Unknown_dataset of string
  | Invalid_scale of float
  | Generation_failed of { dataset : string; message : string }

let error_to_string = function
  | Unknown_dataset d ->
      Printf.sprintf "unknown dataset %S (known: uw, imdb, hiv, flt, sys)" d
  | Invalid_scale s ->
      Printf.sprintf "scale must be a positive finite number, not %g" s
  | Generation_failed { dataset; message } ->
      Printf.sprintf "generating %S failed: %s" dataset message

type t = {
  entries : (key * Datasets.Dataset.t) list Atomic.t;
  load_lock : Mutex.t;
}

let create () = { entries = Atomic.make []; load_lock = Mutex.create () }

let generate ~name ~scale ~seed =
  match name with
  | _ when not (Float.is_finite scale && scale > 0.) ->
      Error (Invalid_scale scale)
  | "uw" -> Ok (Datasets.Uw.generate ~seed ~scale ())
  | "imdb" -> Ok (Datasets.Imdb.generate ~seed ~scale ())
  | "hiv" -> Ok (Datasets.Hiv.generate ~seed ~scale ())
  | "flt" -> Ok (Datasets.Flt.generate ~seed ~scale ())
  | "sys" -> Ok (Datasets.Sys_data.generate ~seed ~scale ())
  | _ -> Error (Unknown_dataset name)

let find t key = List.assoc_opt key (Atomic.get t.entries)

let load t ~name ~scale ~seed =
  let key = { name; scale; seed } in
  match find t key with
  | Some d -> Ok d
  | None ->
      Mutex.lock t.load_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.load_lock)
        (fun () ->
          (* double-check: another domain may have published it while we
             waited for the load lock *)
          match find t key with
          | Some d -> Ok d
          | None -> (
              match
                try generate ~name ~scale ~seed
                with e ->
                  Error
                    (Generation_failed
                       { dataset = name; message = Printexc.to_string e })
              with
              | Error _ as e -> e
              | Ok d ->
                  (* the load lock is held: a plain read-modify-write
                     cannot race another publisher *)
                  Atomic.set t.entries ((key, d) :: Atomic.get t.entries);
                  Ok d))

let loaded t =
  List.map
    (fun ({ name; scale; seed }, _) -> (name, scale, seed))
    (Atomic.get t.entries)
  |> List.sort compare
