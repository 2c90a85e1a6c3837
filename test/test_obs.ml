(* Observability: counter/span invariants, JSON round-trips, and the
   SDD manager's cache statistics against structural measures.

   Obs state is global, so every case runs inside [with_obs], which
   resets before and disables after. *)

open Test_util

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let counters_suite =
  [
    case "disabled instruments are inert" (fun () ->
        Obs.set_enabled false;
        Obs.reset ();
        Obs.incr "c";
        Obs.gauge_max "g" 7;
        let r = Obs.span "s" (fun () -> 41 + 1) in
        checki "span passthrough" 42 r;
        checki "counter untouched" 0 (Obs.counter_value "c");
        checkb "no gauge" true (Obs.gauge_value "g" = None);
        checki "no spans" 0 (List.length (Obs.span_roots ())));
    case "counters accumulate and sort" (fun () ->
        with_obs (fun () ->
            Obs.incr "b";
            Obs.incr ~by:4 "a";
            Obs.incr "b";
            checki "a" 4 (Obs.counter_value "a");
            checki "b" 2 (Obs.counter_value "b");
            checkb "sorted" true (Obs.counters () = [ ("a", 4); ("b", 2) ])));
    case "gauge_max keeps the peak, gauge_set overwrites" (fun () ->
        with_obs (fun () ->
            Obs.gauge_max "g" 3;
            Obs.gauge_max "g" 1;
            checkb "peak" true (Obs.gauge_value "g" = Some 3);
            Obs.gauge_set "g" 1;
            checkb "set" true (Obs.gauge_value "g" = Some 1)));
    case "cache invariant hits + misses = lookups" (fun () ->
        with_obs (fun () ->
            let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
            ignore (Sdd.compile_circuit m (Circuit.of_string "(or x y)"));
            let u = List.hd (Sdd.stats m) in
            checks "unique first" "sdd.unique" u.Sdd.cache;
            checki "lookups" (u.Sdd.hits + u.Sdd.misses) u.Sdd.lookups;
            checki "one miss" 1 u.Sdd.misses;
            checki "entries" 1 u.Sdd.entries;
            (* Created while enabled, so visible to the exporter. *)
            checkb "exported" true
              (List.exists
                 (fun x -> x.Sdd.cache = "sdd.unique" && x.Sdd.lookups > 0)
                 (Sdd.caches ()))));
  ]

let spans_suite =
  [
    case "span nesting is well-formed" (fun () ->
        with_obs (fun () ->
            Obs.span "outer" (fun () ->
                checki "inside outer" 1 (Obs.span_depth ());
                Obs.span "inner" (fun () ->
                    checki "inside inner" 2 (Obs.span_depth ()));
                Obs.span "inner" (fun () -> ()));
            checki "closed" 0 (Obs.span_depth ());
            match Obs.span_roots () with
            | [ outer ] ->
              checks "outer name" "outer" outer.Obs.span;
              checki "outer calls" 1 outer.Obs.calls;
              (match outer.Obs.children with
               | [ inner ] ->
                 checks "inner name" "inner" inner.Obs.span;
                 checki "inner accumulates calls" 2 inner.Obs.calls;
                 checkb "child time within parent" true
                   (inner.Obs.total_s <= outer.Obs.total_s)
               | l -> Alcotest.failf "expected one child, got %d" (List.length l))
            | l -> Alcotest.failf "expected one root, got %d" (List.length l)));
    case "reset inside an open span keeps it as the parent" (fun () ->
        with_obs (fun () ->
            Obs.span "outer" (fun () ->
                Obs.reset ();
                checki "outer still open" 1 (Obs.span_depth ());
                Obs.span "inner" (fun () -> ()));
            checki "closed" 0 (Obs.span_depth ());
            match Obs.span_roots () with
            | [ outer ] ->
              checks "outer name" "outer" outer.Obs.span;
              checki "outer closed once" 1 outer.Obs.calls;
              (match outer.Obs.children with
               | [ inner ] -> checks "inner under outer" "inner" inner.Obs.span
               | l -> Alcotest.failf "expected one child, got %d" (List.length l))
            | l -> Alcotest.failf "expected one root, got %d" (List.length l)));
    case "span closes on exceptions" (fun () ->
        with_obs (fun () ->
            (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
            checki "popped" 0 (Obs.span_depth ());
            match Obs.span_roots () with
            | [ t ] -> checki "recorded" 1 t.Obs.calls
            | _ -> Alcotest.fail "span not recorded"));
    case "minor words include the live minor heap" (fun () ->
        (* 10,000 cons cells are 30,000 words, far below one minor heap,
           so no minor collection has to run inside the span. *)
        with_obs (fun () ->
            Obs.span "alloc" (fun () ->
                ignore (Sys.opaque_identity (List.init 10_000 Fun.id)));
            (match Obs.span_roots () with
             | [ t ] ->
               checkb "span minor words" true (t.Obs.gc_minor_words >= 30_000.)
             | _ -> Alcotest.fail "span not recorded");
            match List.assoc "gc" (Obs.sections ()) with
            | Obs.Json.Obj fields ->
              (match List.assoc "minor_words" fields with
               | Obs.Json.Float w -> checkb "run minor words" true (w >= 30_000.)
               | _ -> Alcotest.fail "minor_words is not a float")
            | _ -> Alcotest.fail "gc is not an object"));
  ]

let json_suite =
  let rt j =
    match Obs.Json.of_string (Obs.Json.to_string j) with
    | Ok j' -> checkb ("round-trip " ^ Obs.Json.to_string j) true (j = j')
    | Error e -> Alcotest.fail e
  in
  [
    case "values round-trip" (fun () ->
        rt Obs.Json.Null;
        rt (Obs.Json.Bool true);
        rt (Obs.Json.Int (-42));
        rt (Obs.Json.Float 0.25);
        rt (Obs.Json.Float 1.5e-6);
        rt (Obs.Json.String "line\n\"quoted\"\\tab\tend");
        rt (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.List []; Obs.Json.Obj [] ]);
        rt
          (Obs.Json.Obj
             [
               ("a", Obs.Json.List [ Obs.Json.Bool false ]);
               ("b", Obs.Json.String "");
             ]));
    case "parser rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ "{"; "[1,]"; "\"open"; "tru"; "{\"a\":1,}"; "1 2"; "" ]);
    case "snapshot follows the ctwsdd-run/v1 schema" (fun () ->
        with_obs (fun () ->
            Obs.incr ~by:3 "work.items";
            Obs.gauge_max "work.peak" 9;
            Obs.span "stage" (fun () -> ());
            Obs.hist_record "work.sizes" 5;
            Obs.event "work.step" [ ("n", Obs.Json.Int 1) ];
            let j = Run_record.json ~extra:[ ("run", Obs.Json.Int 1) ] () in
            (* The exporter's output must parse back to itself. *)
            (match Obs.Json.of_string (Obs.Json.to_string j) with
             | Ok j' -> checkb "export round-trip" true (j = j')
             | Error e -> Alcotest.fail e);
            checkb "schema field" true
              (Obs.Json.member "schema" j
              = Some (Obs.Json.String Run_record.schema_version));
            checks "schema is run/v1" "ctwsdd-run/v1" Run_record.schema_version;
            (* The attribution section (a list, empty when no cost
               center was ever entered). *)
            checkb "attribution section" true
              (match Obs.Json.member "attribution" j with
               | Some (Obs.Json.List _) -> true
               | _ -> false);
            checkb "extra field" true
              (Obs.Json.member "run" j = Some (Obs.Json.Int 1));
            checkb "run_id field" true
              (Obs.Json.member "run_id" j
              = Some (Obs.Json.String (Obs.run_id ())));
            (match Obs.Json.member "ring" j with
             | Some ring ->
               checkb "ring capacity" true
                 (match Obs.Json.member "capacity" ring with
                  | Some (Obs.Json.Int c) -> c > 0
                  | _ -> false);
               checkb "ring tids" true
                 (match Obs.Json.member "tids" ring with
                  | Some (Obs.Json.List _) -> true
                  | _ -> false)
             | None -> Alcotest.fail "ring missing");
            (match Obs.Json.member "counters" j with
             | Some (Obs.Json.Obj fields) ->
               checkb "counter exported" true
                 (List.assoc_opt "work.items" fields = Some (Obs.Json.Int 3))
             | _ -> Alcotest.fail "counters missing");
            (match Obs.Json.member "histograms" j with
             | Some (Obs.Json.List [ h ]) ->
               checkb "hist name" true
                 (Obs.Json.member "name" h
                 = Some (Obs.Json.String "work.sizes"));
               checkb "hist p50" true
                 (Obs.Json.member "p50" h = Some (Obs.Json.Int 5))
             | _ -> Alcotest.fail "histograms missing");
            (match Obs.Json.member "gc" j with
             | Some gc ->
               checkb "gc minor_words" true
                 (match Obs.Json.member "minor_words" gc with
                  | Some (Obs.Json.Float _) -> true
                  | _ -> false);
               checkb "gc top_heap_words" true
                 (Obs.Json.member "top_heap_words" gc <> None)
             | None -> Alcotest.fail "gc missing");
            (match Obs.Json.member "events" j with
             | Some (Obs.Json.List [ e ]) ->
               checkb "event name" true
                 (Obs.Json.member "name" e
                 = Some (Obs.Json.String "work.step"));
               checkb "event tid" true
                 (Obs.Json.member "tid" e = Some (Obs.Json.Int 0));
               checkb "event run" true
                 (Obs.Json.member "run" e
                 = Some (Obs.Json.String (Obs.run_id ())))
             | _ -> Alcotest.fail "events missing");
            match Obs.Json.member "spans" j with
            | Some (Obs.Json.List [ span ]) ->
              checkb "span name" true
                (Obs.Json.member "name" span
                = Some (Obs.Json.String "stage"));
              checkb "span gc sub-object" true
                (match Obs.Json.member "gc" span with
                 | Some gc -> Obs.Json.member "minor_words" gc <> None
                 | None -> false)
            | _ -> Alcotest.fail "spans missing"));
    case "record write output round-trips through the parser" (fun () ->
        with_obs (fun () ->
            let m = Sdd.manager (Vtree.balanced [ "a"; "b"; "c" ]) in
            ignore (Sdd.compile_circuit m (Circuit.of_string "(and a (or b c))"));
            let path = Filename.temp_file "ctwsdd_metrics" ".json" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                checkb "written" true
                  (Run_record.write path (Run_record.json ()) = Ok ());
                let ic = open_in_bin path in
                let s =
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                match Obs.Json.of_string (String.trim s) with
                | Error e -> Alcotest.fail e
                | Ok j ->
                  checkb "schema" true
                    (Obs.Json.member "schema" j
                    = Some (Obs.Json.String Run_record.schema_version));
                  (* hits + misses = lookups for every exported cache. *)
                  (match Obs.Json.member "caches" j with
                   | Some (Obs.Json.List caches) ->
                     checkb "has caches" true (caches <> []);
                     List.iter
                       (fun c ->
                         let geti k =
                           match Obs.Json.member k c with
                           | Some (Obs.Json.Int i) -> i
                           | _ -> Alcotest.failf "cache field %s missing" k
                         in
                         checki "hits+misses=lookups"
                           (geti "hits" + geti "misses")
                           (geti "lookups"))
                       caches
                   | _ -> Alcotest.fail "caches missing"))));
  ]

let hist_suite =
  [
    case "disabled hist_record is inert" (fun () ->
        Obs.set_enabled false;
        Obs.reset ();
        Obs.hist_record "h" 3;
        checkb "no histogram" true (Obs.hist_value "h" = None));
    case "record, count, sum, percentiles" (fun () ->
        with_obs (fun () ->
            (* 1..100: p50 is in the bucket holding 50 (33..64 -> ub 63),
               p99 in the bucket holding 99 (65..128 -> ub 127, clamped
               to the observed max 100). *)
            for v = 1 to 100 do
              Obs.hist_record "h" v
            done;
            match Obs.hist_value "h" with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
              checki "count" 100 s.Obs.Histogram.count;
              checki "sum" 5050 s.Obs.Histogram.sum;
              checki "min" 1 s.Obs.Histogram.min_value;
              checki "max" 100 s.Obs.Histogram.max_value;
              checki "p50" 63 s.Obs.Histogram.p50;
              checki "p99" 100 s.Obs.Histogram.p99;
              checkb "buckets cover the count" true
                (List.fold_left (fun a (_, c) -> a + c) 0 s.Obs.Histogram.buckets
                = 100)));
    case "weighted records and negative clamping" (fun () ->
        with_obs (fun () ->
            Obs.hist_record ~n:7 "w" 4;
            Obs.hist_record "w" (-3);
            match Obs.hist_value "w" with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
              checki "count" 8 s.Obs.Histogram.count;
              checki "sum" 28 s.Obs.Histogram.sum;
              checki "min clamps to 0" 0 s.Obs.Histogram.min_value));
    case "merge combines exactly" (fun () ->
        let a = Obs.Histogram.create "a" in
        let b = Obs.Histogram.create "b" in
        Obs.Histogram.record a 10;
        Obs.Histogram.record ~n:3 b 1000;
        Obs.Histogram.merge a b;
        let s = Obs.Histogram.snapshot a in
        checki "count" 4 s.Obs.Histogram.count;
        checki "sum" 3010 s.Obs.Histogram.sum;
        checki "min" 10 s.Obs.Histogram.min_value;
        checki "max" 1000 s.Obs.Histogram.max_value;
        checki "empty percentile" 0
          (Obs.Histogram.percentile (Obs.Histogram.create "e") 50.0));
    case "worker captures merge histograms and keep event tids" (fun () ->
        with_obs (fun () ->
            Obs.hist_record "shared" 2;
            Obs.event "main.ev" [];
            let d =
              Domain.spawn (fun () ->
                  Obs.Worker.capture (fun () ->
                      Obs.hist_record "shared" 200;
                      Obs.event "worker.ev" []))
            in
            let (), cap = Domain.join d in
            Obs.Worker.absorb cap;
            (match Obs.hist_value "shared" with
             | None -> Alcotest.fail "histogram missing"
             | Some s ->
               checki "merged count" 2 s.Obs.Histogram.count;
               checki "merged sum" 202 s.Obs.Histogram.sum);
            let evs = Obs.events () in
            checki "two events" 2 (List.length evs);
            let worker_ev =
              List.find (fun e -> e.Obs.Ring.name = "worker.ev") evs
            in
            let main_ev = List.find (fun e -> e.Obs.Ring.name = "main.ev") evs in
            checki "main tid" 0 main_ev.Obs.Ring.tid;
            checkb "worker tid distinct" true (worker_ev.Obs.Ring.tid <> 0)));
  ]

let trace_suite =
  [
    case "chrome trace export: X events, metadata, per-domain tracks"
      (fun () ->
        with_obs (fun () ->
          Obs.span "t.main" (fun () -> ());
          Obs.event "t.instant" [ ("k", Obs.Json.Int 7) ];
          let d =
            Domain.spawn (fun () ->
                Obs.Worker.capture (fun () ->
                    Obs.span "t.worker" (fun () -> ())))
          in
          let (), cap = Domain.join d in
          Obs.Worker.absorb cap;
          let path = Filename.temp_file "ctwsdd_trace" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              checkb "written" true (Obs.write_trace path = Ok ());
              let ic = open_in_bin path in
              let s =
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () ->
                    really_input_string ic (in_channel_length ic))
              in
              match Obs.Json.of_string (String.trim s) with
              | Error e -> Alcotest.fail e
              | Ok j ->
                let evs =
                  match Obs.Json.member "traceEvents" j with
                  | Some (Obs.Json.List l) -> l
                  | _ -> Alcotest.fail "traceEvents missing"
                in
                let named n e =
                  Obs.Json.member "name" e
                  = Some (Obs.Json.String n)
                in
                let phase p e =
                  Obs.Json.member "ph" e = Some (Obs.Json.String p)
                in
                let main_ev = List.find (named "t.main") evs in
                let worker_ev = List.find (named "t.worker") evs in
                checkb "complete events" true
                  (phase "X" main_ev && phase "X" worker_ev);
                checkb "instant event" true
                  (List.exists
                     (fun e -> named "t.instant" e && phase "i" e)
                     evs);
                checkb "has duration" true
                  (match Obs.Json.member "dur" main_ev with
                   | Some (Obs.Json.Float d) -> d >= 0.0
                   | _ -> false);
                let tid e =
                  match Obs.Json.member "tid" e with
                  | Some (Obs.Json.Int t) -> t
                  | _ -> Alcotest.fail "tid missing"
                in
                checki "main track" 0 (tid main_ev);
                checkb "worker on its own track" true
                  (tid worker_ev <> 0);
                (* ph:"M" thread_name metadata for both tracks. *)
                let thread_names =
                  List.filter_map
                    (fun e ->
                      if named "thread_name" e && phase "M" e then
                        Some (tid e)
                      else None)
                    evs
                in
                checkb "main track named" true
                  (List.mem 0 thread_names);
                checkb "worker track named" true
                  (List.mem (tid worker_ev) thread_names))));
    case "trace, events and metrics render one overflowing ring" (fun () ->
        with_obs (fun () ->
            Obs.Ring.set_capacity 16;
            (* 6 x (span, event, poll, note) + one trip = 25 entries into
               16 slots: the oldest 9 are overwritten. *)
            for i = 1 to 6 do
              Obs.span (Printf.sprintf "s%d" i) (fun () -> ());
              Obs.event (Printf.sprintf "e%d" i) [ ("i", Obs.Json.Int i) ];
              Obs.Ring.record Obs.Ring.Budget_poll "budget.poll";
              Obs.Ring.record Obs.Ring.Note "note"
            done;
            (try Budget.check_nodes (Budget.create ~max_nodes:0 ()) 1
             with Budget.Exhausted _ -> ());
            checki "overwritten" 9 (Obs.Ring.overwritten ());
            let kept kinds =
              List.filter_map
                (fun e ->
                  if List.mem e.Obs.Ring.kind kinds then Some e.Obs.Ring.name
                  else None)
                (Obs.Ring.tail ())
            in
            let spans = kept [ Obs.Ring.Span ] in
            let instants = kept [ Obs.Ring.Event; Obs.Ring.Budget_trip ] in
            checkb "some spans were overwritten" true
              (not (List.mem "s1" spans));
            checkb "the trip is retained" true (List.mem "budget.trip" instants);
            let evs =
              match Obs.Json.member "traceEvents" (Obs.trace_json ()) with
              | Some (Obs.Json.List evs) -> evs
              | _ -> Alcotest.fail "traceEvents missing"
            in
            let names ph =
              List.filter_map
                (fun e ->
                  match (Obs.Json.member "ph" e, Obs.Json.member "name" e) with
                  | Some (Obs.Json.String p), Some (Obs.Json.String n)
                    when p = ph ->
                    Some n
                  | _ -> None)
                evs
              |> List.sort compare
            in
            checkb "one X per retained span" true
              (names "X" = List.sort compare spans);
            checkb "one i per retained event or trip" true
              (names "i" = List.sort compare instants);
            checkb "polls and notes are not rendered" true
              (not
                 (List.exists
                    (fun n -> n = "budget.poll" || n = "note")
                    (names "X" @ names "i")));
            let ring =
              match Obs.Json.member "ring" (Run_record.json ()) with
              | Some t -> t
              | None -> Alcotest.fail "ring section missing"
            in
            checkb "ring.overwritten" true
              (Obs.Json.member "overwritten" ring = Some (Obs.Json.Int 9));
            checkb "ring.span_events counts X and i" true
              (Obs.Json.member "span_events" ring
              = Some (Obs.Json.Int (List.length spans + List.length instants)));
            checkb "events lists the same instants" true
              (List.map (fun e -> e.Obs.Ring.name) (Obs.events ()) = instants)));
  ]

let sdd_stats_suite =
  [
    case "manager stats match node_count on a garbage-free compilation" (fun () ->
        (* x ∧ y on a two-leaf vtree builds exactly one decision node and
           no garbage, so the unique table is exactly the reachable
           decisions. *)
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let node = Sdd.compile_circuit m (Circuit.of_string "(and x y)") in
        let unique = List.hd (Sdd.stats m) in
        checks "is unique table" "sdd.unique" unique.Sdd.cache;
        checki "unique entries = node_count" (Sdd.node_count m node)
          unique.Sdd.entries);
    case "manager stats are consistent after a known compilation" (fun () ->
        let c =
          Circuit.of_string
            "(or (and a (or b (not c))) (and (not a) (and c d)) (and b d))"
        in
        let m = Sdd.manager (Vtree.balanced [ "a"; "b"; "c"; "d" ]) in
        let node = Sdd.compile_circuit m c in
        List.iter
          (fun s ->
            checki
              (s.Sdd.cache ^ " lookups")
              (s.Sdd.hits + s.Sdd.misses)
              s.Sdd.lookups)
          (Sdd.stats m);
        let unique =
          List.find (fun s -> s.Sdd.cache = "sdd.unique") (Sdd.stats m)
        in
        (* Every reachable decision went through the unique table, and the
           table also holds whatever intermediate nodes became garbage. *)
        checkb "unique >= reachable" true
          (unique.Sdd.entries >= Sdd.node_count m node);
        checkb "allocated >= unique + consts" true
          (Sdd.num_nodes_allocated m >= unique.Sdd.entries + 2);
        (* unique misses allocate; hits and misses partition lookups. *)
        checkb "misses = entries" true
          (unique.Sdd.misses = unique.Sdd.entries));
    case "apply cache statistics reflect actual lookups" (fun () ->
        with_obs (fun () ->
            let m = Sdd.manager (Vtree.right_linear [ "a"; "b"; "c" ]) in
            let x = Sdd.literal m "a" true and y = Sdd.literal m "b" true in
            let n1 = Sdd.conjoin m x y in
            let n2 = Sdd.conjoin m x y in
            checkb "same node" true (Sdd.equal n1 n2);
            let and_stats =
              List.find (fun s -> s.Sdd.cache = "sdd.and_cache")
                (Sdd.stats m)
            in
            checki "two lookups" 2 and_stats.Sdd.lookups;
            checki "one hit" 1 and_stats.Sdd.hits;
            (* The manager was created while Obs was enabled, so its
               caches are also visible to the global exporter. *)
            checkb "exported" true
              (List.exists
                 (fun s -> s.Sdd.cache = "sdd.and_cache")
                 (Sdd.caches ()))));
  ]

(* The record's [caches] section, read back from the JSON: per-cache
   (lookups, hits, misses, entries). *)
let record_caches () =
  match Obs.Json.member "caches" (Run_record.json ()) with
  | Some (Obs.Json.List cs) ->
    List.map
      (fun c ->
        let int k =
          match Obs.Json.member k c with Some (Obs.Json.Int n) -> n | _ -> -1
        in
        let name =
          match Obs.Json.member "name" c with
          | Some (Obs.Json.String s) -> s
          | _ -> ""
        in
        (name, (int "lookups", int "hits", int "misses", int "entries")))
      cs
  | _ -> Alcotest.fail "no caches section"

let compiled_stats vars src =
  let m = Sdd.manager (Vtree.balanced vars) in
  ignore (Sdd.compile_circuit m (Circuit.of_string src));
  (m, Sdd.stats m)

let run_suite =
  [
    case "nodes_allocated gauge keeps the peak across managers" (fun () ->
        with_obs (fun () ->
            let compile tracks n =
              let c = Generators.ladder ~tracks n in
              let m = Sdd.manager (fst (Pipeline.treedec_vtree c)) in
              ignore (Sdd.compile_circuit m c);
              Sdd.num_nodes_allocated m
            in
            checki "first manager" 8931 (compile 4 9);
            checki "second manager" 4131 (compile 4 7);
            checkb "gauge is the peak" true
              (Obs.gauge_value "sdd.nodes_allocated" = Some 8931)));
    case "caches section sums dead, live and worker managers of the run"
      (fun () ->
        with_obs (fun () ->
            let before, _ = compiled_stats [ "p"; "q" ] "(or p (not q))" in
            Obs.reset ();
            checki "nothing counted after a reset" 0
              (List.length (Sdd.caches ()));
            let dead_stats =
              snd (compiled_stats [ "a"; "b"; "c" ] "(and a (or b (not c)))")
            in
            Gc.full_major ();
            let live, live_stats =
              compiled_stats [ "a"; "b"; "c"; "d" ]
                "(or (and a (or b (not c))) (and (not a) (and c d)) (and b d))"
            in
            let worker_stats =
              Obs.Worker.parallel_map ~domains:2
                (fun src -> snd (compiled_stats [ "x"; "y"; "z" ] src))
                [ "(or x (and y z))"; "(and (not x) (or y z))";
                  "(or (and x y) (and (not y) z))"; "(and x (not z))" ]
            in
            (* Used after the reset: still not counted. *)
            ignore (Sdd.conjoin before (Sdd.literal before "p" true)
                      (Sdd.literal before "q" true));
            let all = dead_stats :: live_stats :: worker_stats in
            (* Collects the worker managers too: only [live] (and the
               uncounted [before]) survive to the export. *)
            Gc.full_major ();
            let record = record_caches () in
            checki "five caches" 5 (List.length record);
            List.iter
              (fun name ->
                let sum f =
                  List.fold_left
                    (fun acc stats ->
                      acc + f (List.find (fun s -> s.Sdd.cache = name) stats))
                    0 all
                in
                let lookups, hits, misses, entries = List.assoc name record in
                checki (name ^ " lookups") (sum (fun s -> s.Sdd.lookups)) lookups;
                checki (name ^ " hits") (sum (fun s -> s.Sdd.hits)) hits;
                checki (name ^ " misses") (sum (fun s -> s.Sdd.misses)) misses;
                checki (name ^ " entries of the live manager")
                  (List.find (fun s -> s.Sdd.cache = name) (Sdd.stats live))
                    .Sdd.entries
                  entries)
              [ "sdd.unique"; "sdd.and_cache"; "sdd.or_cache"; "sdd.neg_cache";
                "sdd.cond_cache" ];
            ignore (Sys.opaque_identity live)));
  ]

let percentile_suite =
  [
    case "percentile edge cases: empty, single bucket, p0/p100" (fun () ->
        let e = Obs.Histogram.create "empty" in
        checki "empty p0" 0 (Obs.Histogram.percentile e 0.0);
        checki "empty p50" 0 (Obs.Histogram.percentile e 50.0);
        checki "empty p100" 0 (Obs.Histogram.percentile e 100.0);
        (* One value: every percentile collapses onto it (bucket upper
           bounds clamp to the observed min/max). *)
        let s = Obs.Histogram.create "single" in
        Obs.Histogram.record s 5;
        checki "single p0" 5 (Obs.Histogram.percentile s 0.0);
        checki "single p50" 5 (Obs.Histogram.percentile s 50.0);
        checki "single p100" 5 (Obs.Histogram.percentile s 100.0);
        (* Two buckets: p0 clamps to the min, p100 to the max, and the
           sequence is monotone in between. *)
        let h = Obs.Histogram.create "pair" in
        Obs.Histogram.record h 3;
        Obs.Histogram.record h 1000;
        checki "pair p0" 3 (Obs.Histogram.percentile h 0.0);
        checki "pair p100" 1000 (Obs.Histogram.percentile h 100.0);
        let p50 = Obs.Histogram.percentile h 50.0 in
        checkb "pair monotone" true (3 <= p50 && p50 <= 1000));
  ]

let worker_suite =
  [
    case "parallel_map conserves items and steals across domain joins"
      (fun () ->
        with_obs (fun () ->
            let xs = List.init 40 Fun.id in
            let expect = List.map (fun x -> x * x) xs in
            let got =
              Obs.Worker.parallel_map ~domains:4 (fun x -> x * x) xs
            in
            checkb "results" true (got = expect);
            (* Every item is counted exactly once no matter which domain
               ran it; steals only count items that migrated off the
               calling domain. *)
            checki "items conserved" 40 (Obs.counter_value "worker.items");
            let steals = Obs.counter_value "worker.steals" in
            checkb "steals bounded" true (steals >= 0 && steals <= 40);
            (* d=1 short-circuits to List.map: no worker accounting. *)
            Obs.reset ();
            let got1 =
              Obs.Worker.parallel_map ~domains:1 (fun x -> x * x) xs
            in
            checkb "d1 results" true (got1 = expect);
            checki "d1 records nothing" 0 (Obs.counter_value "worker.items");
            (* d=2 and d=4 agree on the conserved total. *)
            Obs.reset ();
            ignore (Obs.Worker.parallel_map ~domains:2 (fun x -> x * x) xs);
            checki "d2 items conserved" 40
              (Obs.counter_value "worker.items")));
    case "parallel_map busy/idle histograms cover every worker" (fun () ->
        with_obs (fun () ->
            let xs = List.init 16 Fun.id in
            ignore
              (Obs.Worker.parallel_map ~domains:4
                 (fun x ->
                   ignore (Sys.opaque_identity (x * x));
                   x)
                 xs);
            (match Obs.hist_value "worker.busy_us" with
             | None -> Alcotest.fail "busy histogram missing"
             | Some s -> checki "one sample per worker" 4 s.Obs.Histogram.count);
            (match Obs.hist_value "worker.idle_us" with
             | None -> Alcotest.fail "idle histogram missing"
             | Some s -> checki "idle per worker" 4 s.Obs.Histogram.count);
            checkb "region span recorded" true
              (List.exists
                 (fun t -> t.Obs.span = "worker.parallel_map")
                 (Obs.span_roots ()))));
    case "attribution rows merge across capture/absorb" (fun () ->
        with_obs (fun () ->
            Attribution.with_center (Attribution.component 0)
              (fun () -> Attribution.charge_nodes 3);
            let d =
              Domain.spawn (fun () ->
                  Obs.Worker.capture (fun () ->
                      Attribution.with_center
                        (Attribution.component 0) (fun () ->
                          Attribution.charge_nodes 5);
                      Attribution.with_center
                        (Attribution.component 1) (fun () ->
                          Attribution.charge_elements 2)))
            in
            let (), cap = Domain.join d in
            Obs.Worker.absorb cap;
            let rows = Attribution.rows () in
            let find lbl =
              List.find
                (fun r ->
                  r.Attribution.kind = "component"
                  && r.Attribution.label = lbl)
                rows
            in
            let k0 = find "k0" and k1 = find "k1" in
            checki "k0 nodes merged" 8 k0.Attribution.nodes;
            checki "k0 enters merged" 2 k0.Attribution.enters;
            checki "k1 elements" 2 k1.Attribution.elements;
            checkb "self times non-negative" true
              (List.for_all (fun r -> r.Attribution.time_s >= 0.) rows)));
    case "disabled attribution is inert" (fun () ->
        Obs.set_enabled false;
        Obs.reset ();
        Attribution.with_center (Attribution.component 9) (fun () ->
            Attribution.charge_nodes 100);
        checki "no rows" 0 (List.length (Attribution.rows ())));
  ]

let suites =
  [
    ("obs counters", counters_suite);
    ("obs spans", spans_suite);
    ("obs json", json_suite);
    ("obs histograms", hist_suite);
    ("obs percentiles", percentile_suite);
    ("obs worker", worker_suite);
    ("obs trace", trace_suite);
    ("obs sdd stats", sdd_stats_suite);
    ("obs sdd run", run_suite);
  ]
