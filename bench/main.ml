(* Experiment harness: regenerates every figure/claim of the paper as a
   table (experiments E1-E12 of DESIGN.md), then optionally runs the
   Bechamel micro-benchmarks.

     dune exec bench/main.exe               -- all experiment tables
     dune exec bench/main.exe -- E8         -- selected experiments
     dune exec bench/main.exe -- --bechamel -- micro-benchmarks too
     dune exec bench/main.exe -- --no-json  -- skip BENCH_*.json dumps
     dune exec bench/main.exe -- --trace    -- also write TRACE_<ids>.json

   Each experiment additionally writes its metrics (span timings, cache
   statistics, counters, histograms, GC deltas, trajectory events,
   attribution cost centers) to BENCH_<ids>.json in the working
   directory, as the ctwsdd-run/v1 run record documented in
   EXPERIMENTS.md, so the performance trajectory
   across commits is machine-readable.  With --trace, every span call is
   also recorded individually and dumped as a Chrome trace_event file
   TRACE_<ids>.json (open in Perfetto or chrome://tracing). *)

let experiments =
  [
    ([ "E1" ], "Figure 1: width panorama", Exp_panorama.run);
    ([ "E2"; "E3" ], "Figures 2-3: query compilation", Exp_queries.run);
    ([ "E4"; "E5"; "E6"; "E7" ], "Lemma 1, Theorems 3-4, width bounds", Exp_compile.run);
    ([ "E8"; "E9" ], "Theorem 5 and Theorem 2 lower bounds", Exp_lower_bounds.run);
    ([ "E10"; "E11"; "E12" ], "ISA, Prop. 1 computability, Theorem 1", Exp_isa_prop1.run);
    ([ "E13"; "E16" ], "vtree ablation, pathwidth specialisation, SDD-to-OBDD", Exp_vtree.run);
    ([ "E14" ], "Tseitin route vs direct compilation", Exp_routes.run);
    ([ "E17" ], "fixed perf-tracking workload", Exp_perf.run);
    ([ "E18" ], "pipeline compilation and dynamic minimization", Exp_pipeline.run);
    ([ "E19" ], "SAT-scale CNF compilation", Exp_cnf.run);
    ([ "E20" ], "arena store: scale, compaction, apply", Exp_arena.run);
    ([ "E21" ], "attribution profiler and parallelism observability", Exp_attr.run);
    ([ "E22" ], "backend panorama: SDD vs OBDD vs d-DNNF", Exp_e22.run);
  ]

let metrics_file ids = "BENCH_" ^ String.concat "_" ids ^ ".json"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let bechamel = List.mem "--bechamel" args in
  let json = not (List.mem "--no-json" args) in
  let trace = List.mem "--trace" args in
  let selected =
    List.filter
      (fun a -> a <> "--bechamel" && a <> "--no-json" && a <> "--trace")
      args
  in
  let wanted (ids, _, _) =
    selected = [] || List.exists (fun s -> List.mem s ids) selected
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ((ids, name, run) as e) ->
      if wanted e then begin
        if json || trace then begin
          Obs.set_enabled true;
          Obs.reset ()
        end;
        let t = Unix.gettimeofday () in
        Obs.span "experiment" run;
        let dt = Unix.gettimeofday () -. t in
        Printf.printf "\n  [%s finished in %.1fs]\n" name dt;
        if json then begin
          let file = metrics_file ids in
          Run_record.write file
            (Run_record.json
               ~extra:
                 [
                   ("experiment", Obs.Json.String name);
                   ( "ids",
                     Obs.Json.List (List.map (fun i -> Obs.Json.String i) ids)
                   );
                   ("wall_s", Obs.Json.Float dt);
                 ]
               ())
          |> Result.iter_error (fun msg -> failwith (file ^ ": " ^ msg));
          Printf.printf "  [metrics -> %s]\n" file
        end;
        if trace then begin
          let file = "TRACE_" ^ String.concat "_" ids ^ ".json" in
          Obs.write_trace file
          |> Result.iter_error (fun msg -> failwith (file ^ ": " ^ msg));
          Printf.printf "  [trace -> %s]\n" file
        end;
        if json || trace then Obs.set_enabled false
      end)
    experiments;
  if bechamel then Micro.run ();
  Printf.printf "\nAll experiments done in %.1fs.\n" (Unix.gettimeofday () -. t0)
