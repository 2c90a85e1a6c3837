(* OpenMetrics / Prometheus text rendering of the Obs state.  Fixed
   metric families, dynamic instrument names in labels, atomic file
   replacement.  See the interface for the exposition contract. *)

let escape_label s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* OpenMetrics wants full-precision decimal floats; %.17g round-trips
   every finite double and integers print without an exponent. *)
let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let sample buf family labels value =
  Buffer.add_string buf family;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}')
  ;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let meta buf family kind help =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind);
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" family help)

let render () =
  let buf = Buffer.create 4096 in
  let int_sample family labels v = sample buf family labels (string_of_int v) in
  (* Run attribution: one info-style gauge carries the run ID, keeping
     the per-sample label sets small. *)
  meta buf "ctwsdd_run_info" "gauge" "Run attribution (run_id label).";
  int_sample "ctwsdd_run_info" [ ("run_id", Obs.run_id ()) ] 1;
  (* Counters. *)
  let counters = Obs.counters () in
  if counters <> [] then begin
    meta buf "ctwsdd_counter" "counter" "Monotonic Obs counters by name.";
    List.iter
      (fun (k, v) -> int_sample "ctwsdd_counter_total" [ ("name", k) ] v)
      counters
  end;
  (* Gauges. *)
  let gauges = Obs.gauges () in
  if gauges <> [] then begin
    meta buf "ctwsdd_gauge" "gauge" "Obs gauges by name.";
    List.iter
      (fun (k, v) -> int_sample "ctwsdd_gauge" [ ("name", k) ] v)
      gauges
  end;
  (* Caches. *)
  let caches = Obs.caches () in
  if caches <> [] then begin
    meta buf "ctwsdd_cache_lookups" "counter" "Cache lookups by cache.";
    List.iter
      (fun s ->
        int_sample "ctwsdd_cache_lookups_total"
          [ ("cache", s.Obs.Cache.cache) ]
          s.Obs.Cache.lookups)
      caches;
    meta buf "ctwsdd_cache_hits" "counter" "Cache hits by cache.";
    List.iter
      (fun s ->
        int_sample "ctwsdd_cache_hits_total"
          [ ("cache", s.Obs.Cache.cache) ]
          s.Obs.Cache.hits)
      caches;
    meta buf "ctwsdd_cache_entries" "gauge" "Current cache entries by cache.";
    List.iter
      (fun s ->
        int_sample "ctwsdd_cache_entries"
          [ ("cache", s.Obs.Cache.cache) ]
          s.Obs.Cache.entries)
      caches
  end;
  (* Histograms, in the classic cumulative-bucket exposition. *)
  let hists = Obs.histograms () in
  if hists <> [] then begin
    meta buf "ctwsdd_histogram" "histogram"
      "Log2-bucket Obs histograms by name.";
    List.iter
      (fun (s : Obs.Histogram.snapshot) ->
        let name = s.Obs.Histogram.hist in
        let cum = ref 0 in
        List.iter
          (fun (le, c) ->
            cum := !cum + c;
            int_sample "ctwsdd_histogram_bucket"
              [ ("name", name); ("le", string_of_int le) ]
              !cum)
          s.Obs.Histogram.buckets;
        int_sample "ctwsdd_histogram_bucket"
          [ ("name", name); ("le", "+Inf") ]
          s.Obs.Histogram.count;
        int_sample "ctwsdd_histogram_sum" [ ("name", name) ]
          s.Obs.Histogram.sum;
        int_sample "ctwsdd_histogram_count" [ ("name", name) ]
          s.Obs.Histogram.count)
      hists
  end;
  (* GC: absolute quick-stat values (a scraper diffs them itself). *)
  let g = Gc.quick_stat () in
  meta buf "ctwsdd_gc" "gauge" "OCaml GC quick_stat fields.";
  let gc_sample stat v = sample buf "ctwsdd_gc" [ ("stat", stat) ] v in
  gc_sample "minor_words" (fmt_float g.Gc.minor_words);
  gc_sample "major_words" (fmt_float g.Gc.major_words);
  gc_sample "promoted_words" (fmt_float g.Gc.promoted_words);
  gc_sample "minor_collections" (string_of_int g.Gc.minor_collections);
  gc_sample "major_collections" (string_of_int g.Gc.major_collections);
  gc_sample "compactions" (string_of_int g.Gc.compactions);
  gc_sample "heap_words" (string_of_int g.Gc.heap_words);
  gc_sample "top_heap_words" (string_of_int g.Gc.top_heap_words);
  (* Flight recorder. *)
  meta buf "ctwsdd_flight_recorded" "counter"
    "Flight-recorder entries recorded since the last clear.";
  int_sample "ctwsdd_flight_recorded_total" [] (Obs.Ring.recorded ());
  meta buf "ctwsdd_flight_capacity" "gauge" "Flight-recorder ring capacity.";
  int_sample "ctwsdd_flight_capacity" [] (Obs.Ring.capacity ());
  (* Attribution cost centers, labelled by (kind, label).  Self time is
     exposed in seconds as a float; the integer charges as counters. *)
  let attrs = Attribution.rows () in
  if attrs <> [] then begin
    let lbl (r : Attribution.row) =
      [ ("kind", r.Attribution.kind); ("center", r.Attribution.label) ]
    in
    meta buf "ctwsdd_attr_self_seconds" "counter"
      "Exclusive (self) seconds charged to each cost center.";
    List.iter
      (fun (r : Attribution.row) ->
        sample buf "ctwsdd_attr_self_seconds_total" (lbl r)
          (fmt_float r.Attribution.time_s))
      attrs;
    meta buf "ctwsdd_attr_nodes" "counter"
      "SDD nodes allocated while each cost center was active.";
    List.iter
      (fun (r : Attribution.row) ->
        int_sample "ctwsdd_attr_nodes_total" (lbl r) r.Attribution.nodes)
      attrs;
    meta buf "ctwsdd_attr_apply_misses" "counter"
      "Apply-cache misses charged to each cost center.";
    List.iter
      (fun (r : Attribution.row) ->
        int_sample "ctwsdd_attr_apply_misses_total" (lbl r)
          r.Attribution.apply_misses)
      attrs;
    meta buf "ctwsdd_attr_compaction_pause_us" "counter"
      "Compaction pause microseconds charged to each cost center.";
    List.iter
      (fun (r : Attribution.row) ->
        int_sample "ctwsdd_attr_compaction_pause_us_total" (lbl r)
          r.Attribution.compaction_pause_us)
      attrs
  end;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write path =
  if path = "-" then begin
    (* Snapshot to stdout: no temp file, just flush so interleaving with
       the CLI's own output stays ordered. *)
    print_string (render ());
    flush stdout
  end
  else begin
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.%d.tmp" (Filename.basename path) (Unix.getpid ()))
  in
  let oc = open_out tmp in
  (match
     output_string oc (render ());
     close_out oc
   with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path
  end
