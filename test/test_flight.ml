(* Flight-recorder ring, postmortem dumps and the OpenMetrics exporter.

   The ring and run-ID state are process-global, so cases that resize
   or clear the ring restore the default capacity afterwards. *)

open Test_util

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let with_fresh_ring ?(capacity = 4096) f =
  Obs.Ring.set_capacity capacity;
  Fun.protect ~finally:(fun () -> Obs.Ring.set_capacity 4096) f

let entry_names () = List.map (fun e -> e.Obs.Ring.name) (Obs.Ring.tail ())

let recorder_suite =
  [
    case "tail returns entries oldest first" (fun () ->
        with_fresh_ring (fun () ->
            List.iter
              (fun n -> Obs.Ring.record Obs.Ring.Note n)
              [ "a"; "b"; "c" ];
            checkb "names in order" true (entry_names () = [ "a"; "b"; "c" ]);
            checki "recorded" 3 (Obs.Ring.recorded ());
            checki "overwritten" 0 (Obs.Ring.overwritten ())));
    case "wraparound keeps the newest capacity entries" (fun () ->
        with_fresh_ring ~capacity:16 (fun () ->
            checki "capacity rounded" 16 (Obs.Ring.capacity ());
            for i = 1 to 40 do
              Obs.Ring.record Obs.Ring.Note
                (Printf.sprintf "n%02d" i)
            done;
            checki "recorded counts everything" 40
              (Obs.Ring.recorded ());
            checki "overwritten" 24 (Obs.Ring.overwritten ());
            let names = entry_names () in
            checki "tail bounded by capacity" 16 (List.length names);
            checks "oldest retained" "n25" (List.hd names);
            checks "newest retained" "n40" (List.hd (List.rev names));
            (* ?max truncates to the newest entries. *)
            checkb "max keeps newest" true
              (List.map
                 (fun e -> e.Obs.Ring.name)
                 (Obs.Ring.tail ~max:2 ())
              = [ "n39"; "n40" ])));
    case "spans and events reach the ring with Obs aggregation off"
      (fun () ->
        with_fresh_ring (fun () ->
            Obs.set_enabled false;
            Obs.reset ();
            Obs.span "flight.stage" (fun () -> ignore (Sys.opaque_identity 1));
            Obs.event "flight.step" [ ("k", Obs.Json.String "v") ];
            let tl = Obs.Ring.tail () in
            let find name =
              List.find_opt (fun e -> e.Obs.Ring.name = name) tl
            in
            (match find "flight.stage" with
             | Some e ->
               checkb "span kind" true (e.Obs.Ring.kind = Obs.Ring.Span);
               checkb "span duration nonnegative" true
                 (e.Obs.Ring.dur_s >= 0.)
             | None -> Alcotest.fail "span completion not recorded");
            (match find "flight.step" with
             | Some e ->
               checkb "event kind" true
                 (e.Obs.Ring.kind = Obs.Ring.Event);
               checkb "event args typed" true
                 (List.assoc_opt "k" e.Obs.Ring.args
                 = Some (Obs.Json.String "v"))
             | None -> Alcotest.fail "event not recorded");
            (* But no aggregated state was touched. *)
            checki "no span tree" 0 (List.length (Obs.span_roots ()));
            checkb "no counters" true (Obs.counters () = [])));
    case "budget trip lands in the ring when aggregation is off" (fun () ->
        (* One [Budget_trip] entry whatever the collection switch. *)
        List.iter
          (fun collecting ->
            Obs.set_enabled collecting;
            Obs.reset ();
            Fun.protect
              ~finally:(fun () -> Obs.set_enabled false)
              (fun () ->
                with_fresh_ring (fun () ->
                    let b = Budget.create ~max_nodes:4 () in
                    (match Budget.check_nodes b 5 with
                     | () -> Alcotest.fail "expected Budget.Exhausted"
                     | exception Budget.Exhausted Budget.Node_limit -> ()
                     | exception Budget.Exhausted _ ->
                       Alcotest.fail "wrong reason");
                    match
                      List.filter
                        (fun e -> e.Obs.Ring.name = "budget.trip")
                        (Obs.Ring.tail ())
                    with
                    | [ e ] ->
                      checkb
                        (Printf.sprintf "trip kind (collecting=%b)" collecting)
                        true
                        (e.Obs.Ring.kind = Obs.Ring.Budget_trip);
                      checkb "trip reason arg" true
                        (List.assoc_opt "reason" e.Obs.Ring.args
                        = Some (Obs.Json.String "node_limit"))
                    | l ->
                      Alcotest.failf "expected one budget.trip, got %d"
                        (List.length l))))
          [ false; true ]);
    case "set_enabled sizes the ring: 2^18 collecting, 4096 otherwise"
      (fun () ->
        with_obs (fun () ->
            checki "collecting" (1 lsl 18) (Obs.Ring.capacity ());
            Obs.Ring.record Obs.Ring.Note "kept";
            (* Re-arming an armed switch keeps the ring and its entries. *)
            Obs.set_enabled true;
            checkb "entries kept" true (entry_names () = [ "kept" ]));
        checki "idle" 4096 (Obs.Ring.capacity ()));
    case "hard_reset clears the ring and mints a fresh run id" (fun () ->
        with_fresh_ring (fun () ->
            Obs.set_enabled true;
            Obs.reset ();
            Obs.incr "hr.counter";
            Obs.Ring.record Obs.Ring.Note "hr.before";
            let old_run = Obs.run_id () in
            Obs.hard_reset ();
            Fun.protect
              ~finally:(fun () -> Obs.set_enabled false)
              (fun () ->
                checki "ring cleared" 0 (Obs.Ring.recorded ());
                checki "counters cleared" 0 (Obs.counter_value "hr.counter");
                checki "events cleared" 0 (List.length (Obs.events ()));
                checkb "new run id" true (Obs.run_id () <> old_run))));
  ]

let run_id_suite =
  [
    case "fresh_run_id is unique and does not install itself" (fun () ->
        let a = Obs.fresh_run_id () in
        let b = Obs.fresh_run_id () in
        checkb "distinct" true (a <> b);
        checkb "not installed" true (Obs.run_id () <> b));
    case "with_run_id overrides, nests and restores" (fun () ->
        let outer = Obs.run_id () in
        let seen =
          Obs.with_run_id "r-outer" (fun () ->
              let o = Obs.run_id () in
              let i = Obs.with_run_id "r-inner" Obs.run_id in
              (o, i, Obs.run_id ()))
        in
        checkb "override seen" true (seen = ("r-outer", "r-inner", "r-outer"));
        checks "restored" outer (Obs.run_id ()));
    case "entries are stamped with the override" (fun () ->
        with_fresh_ring (fun () ->
            Obs.with_run_id "r-stamp" (fun () ->
                Obs.Ring.record Obs.Ring.Note "stamped");
            match Obs.Ring.tail () with
            | [ e ] -> checks "stamp" "r-stamp" e.Obs.Ring.run
            | _ -> Alcotest.fail "expected one entry"));
    case "run id is stable across Domain worker merges" (fun () ->
        with_fresh_ring (fun () ->
            with_obs (fun () ->
                let runs =
                  Obs.with_run_id "r-fleet" (fun () ->
                      Obs.Worker.parallel_map ~domains:4
                        (fun i ->
                          Obs.incr "fleet.item";
                          Obs.Ring.record Obs.Ring.Note
                            (Printf.sprintf "fleet%d" i);
                          Obs.run_id ())
                        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
                in
                checkb "every worker saw the parent run id" true
                  (List.for_all (String.equal "r-fleet") runs);
                (* Worker metrics were absorbed at the join... *)
                checki "merged counter" 8 (Obs.counter_value "fleet.item");
                (* ...and every ring entry carries the same run. *)
                let fleet =
                  List.filter
                    (fun e ->
                      String.length e.Obs.Ring.name >= 5
                      && String.sub e.Obs.Ring.name 0 5 = "fleet")
                    (Obs.Ring.tail ())
                in
                checki "all entries present" 8 (List.length fleet);
                checkb "all stamped" true
                  (List.for_all
                     (fun e -> e.Obs.Ring.run = "r-fleet")
                     fleet))));
  ]

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "field %s missing" name

let postmortem_suite =
  [
    case "dump follows the ctwsdd-postmortem/v1 schema and round-trips"
      (fun () ->
        with_fresh_ring (fun () ->
            Obs.with_run_id "r-pm" (fun () ->
                Obs.Ring.record Obs.Ring.Note "pm.marker";
                let j = Postmortem.json ~reason:"test" ~detail:"unit" () in
                (match Obs.Json.of_string (Obs.Json.to_string j) with
                 | Ok j' -> checkb "round-trip" true (j = j')
                 | Error e -> Alcotest.fail e);
                checkb "schema" true
                  (member_exn "schema" j
                  = Obs.Json.String "ctwsdd-postmortem/v1");
                checkb "reason" true
                  (member_exn "reason" j = Obs.Json.String "test");
                checkb "run id" true
                  (member_exn "run_id" j = Obs.Json.String "r-pm");
                checkb "pid" true
                  (member_exn "pid" j = Obs.Json.Int (Unix.getpid ()));
                (* Self-contained: GC stats, metrics snapshot and the
                   recorder tail all ride inside the one document. *)
                checkb "gc live_words" true
                  (Obs.Json.member "live_words" (member_exn "gc" j) <> None);
                checkb "metrics schema v4" true
                  (Obs.Json.member "schema" (member_exn "metrics" j)
                  = Some (Obs.Json.String "ctwsdd-metrics/v4"));
                checkb "top-level attribution" true
                  (match Obs.Json.member "attribution" j with
                   | Some (Obs.Json.List _) -> true
                   | _ -> false);
                match member_exn "entries" (member_exn "flight_recorder" j) with
                | Obs.Json.List entries ->
                  checkb "marker in tail" true
                    (List.exists
                       (fun e ->
                         Obs.Json.member "name" e
                         = Some (Obs.Json.String "pm.marker"))
                       entries)
                | _ -> Alcotest.fail "entries not a list")));
    case "unbudgeted dump shows an inactive budget, budgeted dump has caps"
      (fun () ->
        let j = Postmortem.json ~budget:Budget.unlimited ~reason:"t" () in
        checkb "inactive budget" true
          (member_exn "active" (member_exn "budget" j) = Obs.Json.Bool false);
        let b = Budget.create ~max_nodes:42 () in
        let j = Postmortem.json ~budget:b ~reason:"t" () in
        let bj = member_exn "budget" j in
        checkb "max_nodes" true (member_exn "max_nodes" bj = Obs.Json.Int 42);
        checkb "unlimited cap is null" true
          (member_exn "max_memory_words" bj = Obs.Json.Null));
    case "manager census appears in the dump" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "a"; "b"; "c" ]) in
        ignore (Sdd.compile_circuit m (Circuit.of_string "(or a (and b c))"));
        let j = Postmortem.json ~reason:"t" () in
        (match member_exn "managers" j with
         | Obs.Json.Obj fields ->
           checkb "a census registered" true
             (List.exists
                (fun (k, _) ->
                  String.length k >= 12 && String.sub k 0 12 = "sdd_manager_")
                fields)
         | _ -> Alcotest.fail "managers not an object");
        (* The direct census agrees with the manager. *)
        let c = Sdd.census m in
        checki "allocated" (Sdd.num_nodes_allocated m) c.Sdd.allocated;
        checkb "live nodes typed" true
          (c.Sdd.allocated
          = 2 + c.Sdd.decisions + c.Sdd.literals + c.Sdd.tombstones);
        checkb "bytes per node positive" true (c.Sdd.bytes_per_node > 0));
    case "write is atomic and the file parses" (fun () ->
        let path = Filename.temp_file "ctwsdd_pm" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let written = Postmortem.write ~path ~reason:"disk" () in
            checks "returns the path" path written;
            let ic = open_in_bin path in
            let s =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            match Obs.Json.of_string (String.trim s) with
            | Error e -> Alcotest.fail e
            | Ok j ->
              checkb "reason" true
                (member_exn "reason" j = Obs.Json.String "disk")));
    case "node-limit trip leaves budget.trip in the recorder tail"
      (fun () ->
        with_fresh_ring (fun () ->
            let c =
              Circuit.of_string
                "(or (and a b c d) (and b c d e) (and c d e f) (and d e f g))"
            in
            match
              Pipeline.compile ~budget:(Budget.create ~max_nodes:3 ())
                ~vtree_strategy:`Right c
            with
            | Ok _ -> Alcotest.fail "expected a node-limit trip"
            | Error e ->
              checkb "node limit" true (e = Ctwsdd_error.Node_limit);
              let j = Postmortem.json ~reason:"node_limit" () in
              (match member_exn "entries" (member_exn "flight_recorder" j) with
               | Obs.Json.List entries ->
                 checkb "budget.trip in postmortem tail" true
                   (List.exists
                      (fun e ->
                        Obs.Json.member "name" e
                        = Some (Obs.Json.String "budget.trip"))
                      entries)
               | _ -> Alcotest.fail "entries not a list")));
    case "a raising census provider is contained" (fun () ->
        Postmortem.add_census_provider (fun () -> failwith "boom");
        let j = Postmortem.json ~reason:"t" () in
        match member_exn "managers" j with
        | Obs.Json.Obj fields ->
          checkb "error embedded" true
            (List.exists
               (fun (k, _) -> k = "census_provider_error")
               fields)
        | _ -> Alcotest.fail "managers not an object");
  ]

(* A tiny line-level check of the Prometheus/OpenMetrics text format:
   every non-comment line is `name[{labels}] value` with a parseable
   value and balanced quotes. *)
let check_exposition_line line =
  if line = "" || line.[0] = '#' then ()
  else
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "no value separator in %S" line
    | Some i ->
      let value = String.sub line (i + 1) (String.length line - i - 1) in
      (match float_of_string_opt value with
       | Some _ -> ()
       | None ->
         if value <> "+Inf" then Alcotest.failf "bad value in %S" line);
      let quotes =
        String.fold_left
          (fun (n, esc) c ->
            if esc then (n, false)
            else if c = '\\' then (n, true)
            else if c = '"' then (n + 1, false)
            else (n, false))
          (0, false) (String.sub line 0 i)
      in
      if fst quotes mod 2 <> 0 then Alcotest.failf "unbalanced quotes in %S" line

let openmetrics_suite =
  [
    case "label escaping" (fun () ->
        checks "backslash" "a\\\\b" (Openmetrics.escape_label "a\\b");
        checks "quote" "a\\\"b" (Openmetrics.escape_label "a\"b");
        checks "newline" "a\\nb" (Openmetrics.escape_label "a\nb");
        checks "plain" "plain" (Openmetrics.escape_label "plain"));
    case "render is well-formed and ends with EOF" (fun () ->
        with_obs (fun () ->
            Obs.incr ~by:7 "om.counter";
            Obs.gauge_set "om.gauge" 3;
            Obs.hist_record "om.hist" 5;
            Obs.hist_record "om.hist" 900;
            let text = Openmetrics.render () in
            let lines = String.split_on_char '\n' text in
            List.iter check_exposition_line lines;
            checkb "ends with EOF" true
              (match List.rev lines with
               | "" :: "# EOF" :: _ -> true
               | _ -> false);
            checkb "counter exported" true
              (List.mem "ctwsdd_counter_total{name=\"om.counter\"} 7" lines);
            checkb "gauge exported" true
              (List.mem "ctwsdd_gauge{name=\"om.gauge\"} 3" lines);
            checkb "run info exported" true
              (List.mem
                 (Printf.sprintf "ctwsdd_run_info{run_id=\"%s\"} 1"
                    (Obs.run_id ()))
                 lines);
            (* Histogram buckets are cumulative and +Inf equals count. *)
            let bucket_counts =
              List.filter_map
                (fun l ->
                  let prefix = "ctwsdd_histogram_bucket{name=\"om.hist\"" in
                  if String.length l >= String.length prefix
                     && String.sub l 0 (String.length prefix) = prefix
                  then
                    String.rindex_opt l ' '
                    |> Option.map (fun i ->
                           int_of_string
                             (String.sub l (i + 1) (String.length l - i - 1)))
                  else None)
                lines
            in
            checkb "has buckets" true (bucket_counts <> []);
            checkb "cumulative" true
              (bucket_counts = List.sort compare bucket_counts);
            checki "+Inf equals count" 2
              (List.nth bucket_counts (List.length bucket_counts - 1))));
    case "labels with hostile characters stay parseable" (fun () ->
        with_obs (fun () ->
            Obs.with_run_id "r-\"quoted\\evil\"\n" (fun () ->
                let text = Openmetrics.render () in
                List.iter check_exposition_line
                  (String.split_on_char '\n' text))));
    case "write replaces the file atomically" (fun () ->
        let path = Filename.temp_file "ctwsdd_om" ".prom" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Openmetrics.write path;
            Openmetrics.write path;
            let ic = open_in_bin path in
            let s =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            checkb "nonempty" true (String.length s > 0);
            checkb "terminated" true
              (String.length s >= 6
              && String.sub s (String.length s - 6) 6 = "# EOF\n");
            checkb "no tmp litter" true
              (Sys.readdir (Filename.dirname path)
              |> Array.for_all (fun f ->
                     not
                       (String.length f > String.length ".ctwsdd_om"
                       && String.sub f 0 1 = "."
                       && Filename.check_suffix f ".tmp"
                       && String.length f >= 10
                       && String.sub f 1 9 = "ctwsdd_om")))));
  ]

let suites =
  [
    ("flight recorder", recorder_suite);
    ("run ids", run_id_suite);
    ("postmortem", postmortem_suite);
    ("openmetrics", openmetrics_suite);
  ]
