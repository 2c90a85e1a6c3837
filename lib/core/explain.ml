(* The [ctwsdd explain] report: a pure read of the ambient Obs /
   Attribution state after a compile, structured once ([collect]) and
   rendered as human text ([pp]) or ctwsdd-explain/v2 JSON ([to_json]).
   See the interface for the section inventory. *)

let schema_version = "ctwsdd-explain/v2"

type parallelism = {
  par_regions : int;  (* worker.parallel_map span calls *)
  par_domains : int;
  par_region_s : float;  (* spawn-to-join wall clock, summed *)
  par_busy_s : float;  (* per-item child spans, summed *)
  par_achieved : float;  (* busy / region *)
  par_serial : float;  (* (T - region) / T against the heaviest root *)
  par_amdahl : float;  (* 1 / (s + (1-s)/d) *)
  par_items : int;
  par_steals : int;
}

type crit_step = { cs_span : string; cs_total_s : float; cs_calls : int }

type t = {
  run : string;
  top : int;
  wall_s : float;
  attributed_s : float;
  rows : Attribution.row list;  (* all rows, sorted by self time desc *)
  bags : Attribution.row list;  (* top-k bag rows by nodes desc *)
  bag_nodes : int;  (* over ALL bag rows, not just top-k *)
  census_allocated : int;
  par : parallelism option;
  critical_path : crit_step list;
  backend_sel : (string * string * string) option;
      (* (requested, chosen, reason) of the last backend resolution *)
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let sum_f f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sum_i f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* All span nodes named [name], anywhere in the recorded forest. *)
let find_spans name =
  let rec go acc (t : Obs.span_tree) =
    let acc = if t.Obs.span = name then t :: acc else acc in
    List.fold_left go acc t.Obs.children
  in
  List.fold_left go [] (Obs.span_roots ())

let collect_parallelism () =
  match find_spans "worker.parallel_map" with
  | [] -> None
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
    let roots = Obs.span_roots () in
    let total =
      List.fold_left (fun acc t -> Float.max acc t.Obs.total_s) 0. roots
    in
    let serial =
      if total <= 0. then 0.
      else Float.max 0. (Float.min 1. ((total -. region_s) /. total))
    in
    let amdahl =
      1. /. (serial +. ((1. -. serial) /. float_of_int domains))
    in
    Some
      {
        par_regions = sum_i (fun t -> t.Obs.calls) regions;
        par_domains = domains;
        par_region_s = region_s;
        par_busy_s = busy_s;
        par_achieved = (if region_s > 0. then busy_s /. region_s else 0.);
        par_serial = serial;
        par_amdahl = amdahl;
        par_items = Obs.counter_value "worker.items";
        par_steals = Obs.counter_value "worker.steals";
      }

(* Heaviest root, then repeatedly the heaviest child: the chain of spans
   an ideal parallelization cannot shorten below. *)
let collect_critical_path () =
  let heaviest = function
    | [] -> None
    | ts ->
      Some
        (List.fold_left
           (fun best (t : Obs.span_tree) ->
             if t.Obs.total_s > best.Obs.total_s then t else best)
           (List.hd ts) ts)
  in
  let rec down acc t =
    let acc =
      { cs_span = t.Obs.span; cs_total_s = t.Obs.total_s; cs_calls = t.Obs.calls }
      :: acc
    in
    match heaviest t.Obs.children with None -> List.rev acc | Some c -> down acc c
  in
  match heaviest (Obs.span_roots ()) with None -> [] | Some t -> down [] t

let collect ?(top = 10) ?censuses () =
  let rows = Attribution.rows () in
  let pipeline_root_s =
    sum_f
      (fun (r : Attribution.row) -> r.Attribution.root_s)
      (List.filter (fun r -> r.Attribution.kind = "pipeline") rows)
  in
  let wall_s =
    if pipeline_root_s > 0. then pipeline_root_s
    else sum_f (fun (r : Attribution.row) -> r.Attribution.root_s) rows
  in
  let bag_rows = List.filter (fun r -> r.Attribution.kind = "bag") rows in
  let bags =
    List.sort
      (fun (a : Attribution.row) b ->
        compare b.Attribution.nodes a.Attribution.nodes)
      bag_rows
  in
  let bags_top = List.filteri (fun i _ -> i < top) bags in
  let censuses = match censuses with Some cs -> cs | None -> Sdd.census_all () in
  {
    run = Obs.run_id ();
    top;
    wall_s;
    attributed_s = sum_f (fun (r : Attribution.row) -> r.Attribution.time_s) rows;
    rows;
    bags = bags_top;
    bag_nodes = sum_i (fun (r : Attribution.row) -> r.Attribution.nodes) bag_rows;
    census_allocated = sum_i (fun c -> c.Sdd.allocated) censuses;
    par = collect_parallelism ();
    critical_path = collect_critical_path ();
    backend_sel = Backend.last_selection ();
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let row_json (r : Attribution.row) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String r.Attribution.kind);
      ("label", Obs.Json.String r.Attribution.label);
      ("time_s", Obs.Json.Float r.Attribution.time_s);
      ("root_s", Obs.Json.Float r.Attribution.root_s);
      ("nodes", Obs.Json.Int r.Attribution.nodes);
      ("elements", Obs.Json.Int r.Attribution.elements);
      ("apply_misses", Obs.Json.Int r.Attribution.apply_misses);
      ("compaction_pause_us", Obs.Json.Int r.Attribution.compaction_pause_us);
      ("enters", Obs.Json.Int r.Attribution.enters);
      ("width", Obs.Json.Int r.Attribution.width);
    ]

let log2_nodes n = if n <= 0 then 0. else log (float_of_int n) /. log 2.

let bag_json (r : Attribution.row) =
  Obs.Json.Obj
    [
      ("bag", Obs.Json.String r.Attribution.label);
      ("width", Obs.Json.Int r.Attribution.width);
      ("nodes", Obs.Json.Int r.Attribution.nodes);
      ("log2_nodes", Obs.Json.Float (log2_nodes r.Attribution.nodes));
      ("elements", Obs.Json.Int r.Attribution.elements);
      ("apply_misses", Obs.Json.Int r.Attribution.apply_misses);
      ("time_s", Obs.Json.Float r.Attribution.time_s);
    ]

let to_json t =
  let parallelism =
    match t.par with
    | None -> Obs.Json.Obj [ ("regions", Obs.Json.Int 0) ]
    | Some p ->
      Obs.Json.Obj
        [
          ("regions", Obs.Json.Int p.par_regions);
          ("domains", Obs.Json.Int p.par_domains);
          ("region_s", Obs.Json.Float p.par_region_s);
          ("busy_s", Obs.Json.Float p.par_busy_s);
          ("achieved_speedup", Obs.Json.Float p.par_achieved);
          ("serial_fraction", Obs.Json.Float p.par_serial);
          ("amdahl_bound", Obs.Json.Float p.par_amdahl);
          ("items", Obs.Json.Int p.par_items);
          ("steals", Obs.Json.Int p.par_steals);
        ]
  in
  let backend =
    match t.backend_sel with
    | None -> Obs.Json.Null
    | Some (requested, chosen, reason) ->
      Obs.Json.Obj
        [
          ("requested", Obs.Json.String requested);
          ("chosen", Obs.Json.String chosen);
          ("reason", Obs.Json.String reason);
        ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema_version);
      ("run_id", Obs.Json.String t.run);
      ("backend", backend);
      ("wall_s", Obs.Json.Float t.wall_s);
      ("attributed_s", Obs.Json.Float t.attributed_s);
      ("cost_centers", Obs.Json.List (List.map row_json t.rows));
      ( "bags",
        Obs.Json.Obj
          [
            ("top", Obs.Json.List (List.map bag_json t.bags));
            ("bag_nodes", Obs.Json.Int t.bag_nodes);
            ("census_allocated", Obs.Json.Int t.census_allocated);
            ( "coverage",
              Obs.Json.Float
                (if t.census_allocated = 0 then 0.
                 else float_of_int t.bag_nodes /. float_of_int t.census_allocated)
            );
          ] );
      ("parallelism", parallelism);
      ( "critical_path",
        Obs.Json.List
          (List.map
             (fun c ->
               Obs.Json.Obj
                 [
                   ("span", Obs.Json.String c.cs_span);
                   ("total_s", Obs.Json.Float c.cs_total_s);
                   ("calls", Obs.Json.Int c.cs_calls);
                 ])
             t.critical_path) );
    ]

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (to_json t));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Human rendering                                                     *)
(* ------------------------------------------------------------------ *)

let pp ppf t =
  let open Format in
  fprintf ppf "explain report (%s)  run %s@." schema_version t.run;
  fprintf ppf "wall %.4fs  attributed %.4fs (%.1f%%)@." t.wall_s
    t.attributed_s
    (if t.wall_s > 0. then 100. *. t.attributed_s /. t.wall_s else 0.);
  (match t.backend_sel with
  | None -> fprintf ppf "backend: (no backend resolution recorded)@.@."
  | Some (requested, chosen, reason) ->
    if requested = chosen then
      fprintf ppf "backend: %s (%s)@.@." chosen reason
    else fprintf ppf "backend: %s (requested %s: %s)@.@." chosen requested reason);
  (* Ranked cost centers. *)
  fprintf ppf "top cost centers (self time)@.";
  fprintf ppf "  %-10s %-14s %10s %10s %10s %8s@." "kind" "label" "time_ms"
    "nodes" "misses" "enters";
  let shown = List.filteri (fun i _ -> i < t.top) t.rows in
  if shown = [] then fprintf ppf "  (no cost centers recorded)@.";
  List.iter
    (fun (r : Attribution.row) ->
      fprintf ppf "  %-10s %-14s %10.2f %10d %10d %8d@." r.Attribution.kind
        r.Attribution.label
        (1e3 *. r.Attribution.time_s)
        r.Attribution.nodes r.Attribution.apply_misses r.Attribution.enters)
    shown;
  pp_print_newline ppf ();
  (* Top bags: the treewidth bound, empirically. *)
  fprintf ppf "top bags by node growth (width vs log2 nodes)@.";
  if t.bags = [] then
    fprintf ppf "  (no bag centers: not a bag-scheduled CNF compile)@."
  else begin
    fprintf ppf "  %-12s %6s %10s %12s %10s@." "bag" "width" "nodes"
      "log2(nodes)" "time_ms";
    List.iter
      (fun (r : Attribution.row) ->
        fprintf ppf "  %-12s %6d %10d %12.2f %10.2f@." r.Attribution.label
          r.Attribution.width r.Attribution.nodes
          (log2_nodes r.Attribution.nodes)
          (1e3 *. r.Attribution.time_s))
      t.bags;
    fprintf ppf "  bag nodes %d vs census allocated %d (coverage %.1f%%)@."
      t.bag_nodes t.census_allocated
      (if t.census_allocated = 0 then 0.
       else 100. *. float_of_int t.bag_nodes /. float_of_int t.census_allocated)
  end;
  pp_print_newline ppf ();
  (* Parallelism. *)
  fprintf ppf "parallelism@.";
  (match t.par with
  | None -> fprintf ppf "  (no parallel_map regions recorded)@."
  | Some p ->
    fprintf ppf
      "  %d region(s) over %d domain(s): region %.4fs, busy %.4fs@."
      p.par_regions p.par_domains p.par_region_s p.par_busy_s;
    fprintf ppf
      "  achieved speedup %.2fx vs Amdahl bound %.2fx (serial fraction %.1f%%)@."
      p.par_achieved p.par_amdahl (100. *. p.par_serial);
    fprintf ppf "  items %d, stolen by workers %d@." p.par_items p.par_steals);
  pp_print_newline ppf ();
  (* Critical path. *)
  fprintf ppf "critical path (heaviest span chain)@.";
  if t.critical_path = [] then fprintf ppf "  (no spans recorded)@."
  else
    List.iteri
      (fun i c ->
        fprintf ppf "  %s%-28s %10.2fms  x%d@."
          (String.make (2 * i) ' ')
          c.cs_span
          (1e3 *. c.cs_total_s)
          c.cs_calls)
      t.critical_path
