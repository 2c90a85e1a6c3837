(* The ctwsdd-run/v1 run record: assembled once from the Obs sections,
   the attribution rows, the backend selection, the budget and the
   manager censuses, and rendered as the --stats text report.  See the
   interface for the layout. *)

module J = Obs.Json

let schema_version = "ctwsdd-run/v1"

let sum_f f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sum_i f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let row_json (r : Attribution.row) =
  J.Obj
    [
      ("kind", J.String r.Attribution.kind);
      ("label", J.String r.Attribution.label);
      ("time_s", J.Float r.Attribution.time_s);
      ("root_s", J.Float r.Attribution.root_s);
      ("nodes", J.Int r.Attribution.nodes);
      ("elements", J.Int r.Attribution.elements);
      ("apply_misses", J.Int r.Attribution.apply_misses);
      ("compaction_pause_us", J.Int r.Attribution.compaction_pause_us);
      ("enters", J.Int r.Attribution.enters);
      ("width", J.Int r.Attribution.width);
    ]

(* All span nodes named [name], anywhere in the recorded forest. *)
let find_spans name =
  let rec go acc (t : Obs.span_tree) =
    let acc = if t.Obs.span = name then t :: acc else acc in
    List.fold_left go acc t.Obs.children
  in
  List.fold_left go [] (Obs.span_roots ())

(* Parallel regions are the [worker.parallel_map] spans: their total is
   spawn-to-join wall clock, their children the per-item work. *)
let parallelism_json () =
  match find_spans "worker.parallel_map" with
  | [] -> J.Obj [ ("regions", J.Int 0) ]
  | regions ->
    let region_s = sum_f (fun t -> t.Obs.total_s) regions in
    let busy_s =
      sum_f (fun t -> sum_f (fun c -> c.Obs.total_s) t.Obs.children) regions
    in
    let domains =
      match Obs.gauge_value "worker.parallel_map.domains" with
      | Some d when d >= 1 -> d
      | _ -> 1
    in
    let total =
      List.fold_left
        (fun acc t -> Float.max acc t.Obs.total_s)
        0. (Obs.span_roots ())
    in
    let serial =
      if total <= 0. then 0.
      else Float.max 0. (Float.min 1. ((total -. region_s) /. total))
    in
    J.Obj
      [
        ("regions", J.Int (sum_i (fun t -> t.Obs.calls) regions));
        ("domains", J.Int domains);
        ("region_s", J.Float region_s);
        ("busy_s", J.Float busy_s);
        ( "achieved_speedup",
          J.Float (if region_s > 0. then busy_s /. region_s else 0.) );
        ("serial_fraction", J.Float serial);
        ( "amdahl_bound",
          J.Float (1. /. (serial +. ((1. -. serial) /. float_of_int domains)))
        );
        ("items", J.Int (Obs.counter_value "worker.items"));
        ("steals", J.Int (Obs.counter_value "worker.steals"));
      ]

(* Heaviest root, then repeatedly the heaviest child: the chain of spans
   an ideal parallelization cannot shorten below. *)
let critical_path_json () =
  let heaviest = function
    | [] -> None
    | t :: ts ->
      Some
        (List.fold_left
           (fun best (t : Obs.span_tree) ->
             if t.Obs.total_s > best.Obs.total_s then t else best)
           t ts)
  in
  let rec down acc (t : Obs.span_tree) =
    let acc =
      J.Obj
        [
          ("span", J.String t.Obs.span);
          ("total_s", J.Float t.Obs.total_s);
          ("calls", J.Int t.Obs.calls);
        ]
      :: acc
    in
    match heaviest t.Obs.children with
    | None -> List.rev acc
    | Some c -> down acc c
  in
  J.List
    (match heaviest (Obs.span_roots ()) with None -> [] | Some t -> down [] t)

let explain_json rows censuses =
  let root_s (r : Attribution.row) = r.Attribution.root_s in
  let of_kind k = List.filter (fun r -> r.Attribution.kind = k) rows in
  let pipeline_s = sum_f root_s (of_kind "pipeline") in
  let bag_nodes = sum_i (fun r -> r.Attribution.nodes) (of_kind "bag") in
  let allocated = sum_i (fun c -> c.Sdd.allocated) censuses in
  J.Obj
    [
      ( "wall_s",
        J.Float (if pipeline_s > 0. then pipeline_s else sum_f root_s rows) );
      ("attributed_s", J.Float (sum_f (fun r -> r.Attribution.time_s) rows));
      ( "bags",
        J.Obj
          [
            ("bag_nodes", J.Int bag_nodes);
            ("census_allocated", J.Int allocated);
            ( "coverage",
              J.Float
                (if allocated = 0 then 0.
                 else float_of_int bag_nodes /. float_of_int allocated) );
          ] );
      ("parallelism", parallelism_json ());
      ("critical_path", critical_path_json ());
    ]

let backend_json () =
  match Backend.last_selection () with
  | None -> J.Null
  | Some (requested, chosen, reason) ->
    J.Obj
      [
        ("requested", J.String requested);
        ("chosen", J.String chosen);
        ("reason", J.String reason);
      ]

let budget_json = function
  | None -> J.Null
  | Some (b : Budget.t) ->
    let cap v = if v = max_int then J.Null else J.Int v in
    J.Obj
      [
        ("active", J.Bool b.Budget.active);
        ( "deadline_in_s",
          if b.Budget.deadline = infinity then J.Null
          else J.Float (b.Budget.deadline -. Unix.gettimeofday ()) );
        ("max_nodes", cap b.Budget.max_nodes);
        ("max_memory_words", cap b.Budget.max_memory_words);
        ("cancelled", J.Bool (Budget.cancelled b));
        ("poll_interval", J.Int b.Budget.interval);
      ]

let json ?(extra = []) ?censuses ?budget ?reason ?detail () =
  let censuses =
    match censuses with Some cs -> cs | None -> Sdd.census_all ()
  in
  let budget = match budget with Some _ -> budget | None -> Budget.current () in
  let rows = Attribution.rows () in
  let opt = function Some s -> J.String s | None -> J.Null in
  J.Obj
    ((("schema", J.String schema_version) :: ("run_id", J.String (Obs.run_id ()))
      :: extra)
    @ [ ("reason", opt reason); ("detail", opt detail); ("backend", backend_json ()) ]
    @ Obs.sections ~dump:(reason <> None) ()
    @ [
        ("attribution", J.List (List.map row_json rows));
        ("explain", explain_json rows censuses);
        ("budget", budget_json budget);
        ("managers", J.List (List.map Sdd.census_to_json censuses));
      ])

let write path j = Obs.write_atomic path (J.to_string j ^ "\n")

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

let dump_path_ref = ref "ctwsdd-postmortem.json"
let dump_path () = !dump_path_ref
let set_dump_path p = dump_path_ref := p

let dump ?detail ~reason () =
  match json ?detail ~reason () with
  | j -> write !dump_path_ref j
  | exception e -> Error (Printexc.to_string e)

let install_sigusr1 () =
  let on_signal _ =
    match dump ~reason:"sigusr1" () with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "ctwsdd: cannot write %s: %s\n%!" !dump_path_ref msg
  in
  try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle on_signal)
  with Invalid_argument _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The text report                                                     *)
(* ------------------------------------------------------------------ *)

let get path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let num path j =
  match get path j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.

let int path j = match get path j with Some (J.Int i) -> i | _ -> 0
let str path j = match get path j with Some (J.String s) -> s | _ -> ""
let list path j = match get path j with Some (J.List l) -> l | _ -> []
let log2_nodes n = if n <= 0 then 0. else log (float_of_int n) /. log 2.
let take l = List.filteri (fun i _ -> i < 10) l

let words w =
  if w >= 1e9 then Printf.sprintf "%.1fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let pp ppf r =
  let open Format in
  (* A titled table; [empty] stands in for it when there are no rows. *)
  let section title ~empty ?(header = ignore) rows row =
    fprintf ppf "@.%s@." title;
    if rows = [] then fprintf ppf "  (%s)@." empty
    else begin
      header ();
      List.iter row rows
    end
  in
  let wall = num [ "explain"; "wall_s" ] r in
  let attributed = num [ "explain"; "attributed_s" ] r in
  fprintf ppf "run report (%s)  run %s@." (str [ "schema" ] r)
    (str [ "run_id" ] r);
  fprintf ppf "wall %.4fs  attributed %.4fs (%.1f%%)@." wall attributed
    (if wall > 0. then 100. *. attributed /. wall else 0.);
  (match get [ "backend" ] r with
  | Some (J.Obj _ as b) ->
    let chosen = str [ "chosen" ] b and requested = str [ "requested" ] b in
    if requested = chosen then
      fprintf ppf "backend: %s (%s)@." chosen (str [ "reason" ] b)
    else
      fprintf ppf "backend: %s (requested %s: %s)@." chosen requested
        (str [ "reason" ] b)
  | _ -> fprintf ppf "backend: (no backend resolution recorded)@.");
  let rows = list [ "attribution" ] r in
  section "top cost centers (self time)" ~empty:"no cost centers recorded"
    ~header:(fun () ->
      fprintf ppf "  %-10s %-14s %10s %10s %10s %8s@." "kind" "label"
        "time_ms" "nodes" "misses" "enters")
    (take rows)
    (fun c ->
      fprintf ppf "  %-10s %-14s %10.2f %10d %10d %8d@." (str [ "kind" ] c)
        (str [ "label" ] c)
        (1e3 *. num [ "time_s" ] c)
        (int [ "nodes" ] c) (int [ "apply_misses" ] c) (int [ "enters" ] c));
  (* Top bags: the treewidth bound, empirically. *)
  let bags =
    List.filter (fun c -> str [ "kind" ] c = "bag") rows
    |> List.stable_sort (fun a b ->
           compare (int [ "nodes" ] b) (int [ "nodes" ] a))
  in
  section "top bags by node growth (width vs log2 nodes)"
    ~empty:"no bag centers: not a CNF compile"
    ~header:(fun () ->
      fprintf ppf "  %-12s %6s %10s %12s %10s@." "bag" "width" "nodes"
        "log2(nodes)" "time_ms")
    (take bags)
    (fun c ->
      fprintf ppf "  %-12s %6d %10d %12.2f %10.2f@." (str [ "label" ] c)
        (int [ "width" ] c) (int [ "nodes" ] c)
        (log2_nodes (int [ "nodes" ] c))
        (1e3 *. num [ "time_s" ] c));
  if bags <> [] then begin
    let b = [ "explain"; "bags" ] in
    fprintf ppf "  bag nodes %d vs census allocated %d (coverage %.1f%%)@."
      (int (b @ [ "bag_nodes" ]) r)
      (int (b @ [ "census_allocated" ]) r)
      (100. *. num (b @ [ "coverage" ]) r)
  end;
  let p = Option.value (get [ "explain"; "parallelism" ] r) ~default:J.Null in
  section "parallelism" ~empty:"no parallel_map regions recorded"
    (if int [ "regions" ] p = 0 then [] else [ p ])
    (fun p ->
      fprintf ppf "  %d region(s) over %d domain(s): region %.4fs, busy %.4fs@."
        (int [ "regions" ] p) (int [ "domains" ] p) (num [ "region_s" ] p)
        (num [ "busy_s" ] p);
      fprintf ppf
        "  achieved speedup %.2fx vs Amdahl bound %.2fx (serial fraction \
         %.1f%%)@."
        (num [ "achieved_speedup" ] p)
        (num [ "amdahl_bound" ] p)
        (100. *. num [ "serial_fraction" ] p);
      fprintf ppf "  items %d, stolen by workers %d@." (int [ "items" ] p)
        (int [ "steals" ] p));
  section "critical path (heaviest span chain)" ~empty:"no spans recorded"
    (List.mapi (fun i c -> (i, c)) (list [ "explain"; "critical_path" ] r))
    (fun (i, c) ->
      fprintf ppf "  %s%-28s %10.2fms  x%d@."
        (String.make (2 * i) ' ')
        (str [ "span" ] c)
        (1e3 *. num [ "total_s" ] c)
        (int [ "calls" ] c));
  let rec span indent s =
    fprintf ppf "  %-40s %8d %10.3fms %10s@."
      (String.make indent ' ' ^ str [ "name" ] s)
      (int [ "calls" ] s)
      (1e3 *. num [ "total_s" ] s)
      (words (num [ "gc"; "minor_words" ] s +. num [ "gc"; "major_words" ] s));
    List.iter (span (indent + 2)) (list [ "children" ] s)
  in
  section "spans (calls, total time, allocation)" ~empty:"no spans recorded"
    ~header:(fun () ->
      fprintf ppf "  %-40s %8s %12s %10s@." "name" "calls" "total" "alloc")
    (list [ "spans" ] r) (span 0);
  section "caches" ~empty:"no caches registered"
    ~header:(fun () ->
      fprintf ppf "  %-24s %10s %10s %10s %8s %10s@." "name" "lookups" "hits"
        "misses" "hit%" "entries")
    (list [ "caches" ] r)
    (fun c ->
      let lookups = int [ "lookups" ] c in
      fprintf ppf "  %-24s %10d %10d %10d %7.1f%% %10d@." (str [ "name" ] c)
        lookups (int [ "hits" ] c) (int [ "misses" ] c)
        (if lookups = 0 then 0.
         else 100. *. num [ "hits" ] c /. float_of_int lookups)
        (int [ "entries" ] c));
  section "histograms" ~empty:"no histograms recorded"
    ~header:(fun () ->
      fprintf ppf "  %-32s %10s %6s %8s %8s %8s %8s@." "name" "count" "min"
        "p50" "p90" "p99" "max")
    (list [ "histograms" ] r)
    (fun h ->
      fprintf ppf "  %-32s %10d %6d %8d %8d %8d %8d@." (str [ "name" ] h)
        (int [ "count" ] h) (int [ "min" ] h) (int [ "p50" ] h)
        (int [ "p90" ] h) (int [ "p99" ] h) (int [ "max" ] h));
  fprintf ppf
    "@.gc: minor %s, major %s, promoted %s, collections %d/%d, top heap %s@."
    (words (num [ "gc"; "minor_words" ] r))
    (words (num [ "gc"; "major_words" ] r))
    (words (num [ "gc"; "promoted_words" ] r))
    (int [ "gc"; "minor_collections" ] r)
    (int [ "gc"; "major_collections" ] r)
    (words (num [ "gc"; "top_heap_words" ] r));
  List.iter
    (fun name ->
      let fields = match get [ name ] r with Some (J.Obj l) -> l | _ -> [] in
      section name ~empty:("no " ^ name ^ " recorded") fields (fun (k, v) ->
          fprintf ppf "  %-40s %12d@." k (int [] v)))
    [ "counters"; "gauges" ]

