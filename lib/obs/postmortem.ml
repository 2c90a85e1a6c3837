(* Postmortem dumps: ring tail + metrics snapshot + GC +
   budget state + registered subsystem censuses, as one self-contained
   JSON document written atomically.  See the interface. *)

let schema_version = "ctwsdd-postmortem/v1"

(* Census providers are registered once per subsystem at link time (and
   occasionally from tests), so a plain mutable list behind a mutex is
   enough; the snapshot is taken outside the lock. *)
let providers : (unit -> (string * Obs.Json.t) list) list ref = ref []
let providers_mu = Mutex.create ()

let add_census_provider f =
  Mutex.lock providers_mu;
  providers := f :: !providers;
  Mutex.unlock providers_mu

let default_path_ref = ref "ctwsdd-postmortem.json"
let default_path () = !default_path_ref
let set_default_path p = default_path_ref := p

let flight_to_json () =
  Obs.Json.Obj
    [
      ("capacity", Obs.Json.Int (Obs.Ring.capacity ()));
      ("recorded", Obs.Json.Int (Obs.Ring.recorded ()));
      ("overwritten", Obs.Json.Int (Obs.Ring.overwritten ()));
      ( "entries",
        Obs.Json.List (List.map Obs.Ring.entry_to_json (Obs.Ring.tail ())) );
    ]

let budget_to_json = function
  | None -> Obs.Json.Null
  | Some (b : Budget.t) ->
    let opt_int v = if v = max_int then Obs.Json.Null else Obs.Json.Int v in
    Obs.Json.Obj
      [
        ("active", Obs.Json.Bool b.Budget.active);
        ( "deadline_in_s",
          if b.Budget.deadline = infinity then Obs.Json.Null
          else Obs.Json.Float (b.Budget.deadline -. Unix.gettimeofday ()) );
        ("max_nodes", opt_int b.Budget.max_nodes);
        ("max_memory_words", opt_int b.Budget.max_memory_words);
        ("cancelled", Obs.Json.Bool (Budget.cancelled b));
        ("poll_interval", Obs.Json.Int b.Budget.interval);
      ]

(* The full (not quick) Gc.stat: a postmortem is exactly the place to
   pay for the major-heap walk. *)
let gc_to_json () =
  let g = Gc.stat () in
  Obs.Json.Obj
    [
      ("minor_words", Obs.Json.Float g.Gc.minor_words);
      ("major_words", Obs.Json.Float g.Gc.major_words);
      ("promoted_words", Obs.Json.Float g.Gc.promoted_words);
      ("minor_collections", Obs.Json.Int g.Gc.minor_collections);
      ("major_collections", Obs.Json.Int g.Gc.major_collections);
      ("compactions", Obs.Json.Int g.Gc.compactions);
      ("heap_words", Obs.Json.Int g.Gc.heap_words);
      ("heap_chunks", Obs.Json.Int g.Gc.heap_chunks);
      ("top_heap_words", Obs.Json.Int g.Gc.top_heap_words);
      ("live_words", Obs.Json.Int g.Gc.live_words);
      ("live_blocks", Obs.Json.Int g.Gc.live_blocks);
      ("free_words", Obs.Json.Int g.Gc.free_words);
      ("fragments", Obs.Json.Int g.Gc.fragments);
    ]

let censuses () =
  let fs = Mutex.protect providers_mu (fun () -> !providers) in
  List.concat_map
    (fun f ->
      match f () with
      | fields -> fields
      | exception e ->
        [ ("census_provider_error", Obs.Json.String (Printexc.to_string e)) ])
    (List.rev fs)

let json ?budget ?(detail = "") ~reason () =
  let budget =
    match budget with Some b -> Some b | None -> Budget.current ()
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema_version);
      ("run_id", Obs.Json.String (Obs.run_id ()));
      ("reason", Obs.Json.String reason);
      ("detail", Obs.Json.String detail);
      ("time_unix_s", Obs.Json.Float (Unix.gettimeofday ()));
      ("pid", Obs.Json.Int (Unix.getpid ()));
      ("budget", budget_to_json budget);
      ("flight_recorder", flight_to_json ());
      ("gc", gc_to_json ());
      ("managers", Obs.Json.Obj (censuses ()));
      ("attribution", Obs.attribution_section ());
      ("metrics", Obs.snapshot ());
    ]

let write ?budget ?path ?detail ~reason () =
  let path = Option.value path ~default:!default_path_ref in
  (try
     let doc = Obs.Json.to_string (json ?budget ?detail ~reason ()) in
     let dir = Filename.dirname path in
     let tmp =
       Filename.concat dir
         (Printf.sprintf ".%s.%d.tmp" (Filename.basename path) (Unix.getpid ()))
     in
     let oc = open_out tmp in
     (match
        output_string oc doc;
        output_char oc '\n';
        close_out oc
      with
     | () -> ()
     | exception e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
     Sys.rename tmp path
   with e ->
     (* A failing postmortem must not mask the failure being reported. *)
     Printf.eprintf "ctwsdd: postmortem write to %s failed: %s\n%!" path
       (Printexc.to_string e));
  path

let sigusr1_installed = ref false

let install_sigusr1 () =
  if not !sigusr1_installed then begin
    sigusr1_installed := true;
    try
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle
           (fun _ -> ignore (write ~reason:"sigusr1" ())))
    with Invalid_argument _ | Sys_error _ ->
      (* Platform without SIGUSR1: postmortems stay trip-driven. *)
      ()
  end
