(* Command-line interface to the library.

     ctwsdd compile   -c "(or (and x y) (not z))" --vtree lemma1
     ctwsdd treewidth -c "(and (or a b) (or b c))"
     ctwsdd query     -q "R(x), S(x,y)" --db facts.txt
     ctwsdd explain   instance.cnf --parallel-apply 4
     ctwsdd isa 18

   Database files contain one fact per line: `R(a,b) 1/2`.

   Every subcommand accepts --stats (human-readable span timings, cache
   statistics and histograms on stderr, keeping stdout pipeable),
   --trace FILE (ctwsdd-metrics/v4 JSON dump), --trace-out FILE (Chrome
   trace_event file for Perfetto / chrome://tracing), --telemetry-out
   FILE [--telemetry-interval SEC] (OpenMetrics text snapshots, written
   atomically and periodically for live scraping; FILE may be `-` for
   stdout), --explain-out FILE (ctwsdd-explain/v1 attribution report)
   and --postmortem FILE (where failure dumps land); see EXPERIMENTS.md
   for the schemas.  CTWSDD_RING resizes the always-on flight-recorder
   ring; CTWSDD_DOMAINS caps the parallel worker pool.

   A postmortem dump (ctwsdd-postmortem/v1 JSON: flight-recorder tail,
   metrics snapshot, GC stats, manager census, budget state) is written
   on every budget trip, on uncaught exceptions, and on SIGUSR1.

   The compiling subcommands (compile, cnf, query) accept --timeout SEC
   and --max-nodes N.  Under a budget the engine is anytime: it degrades
   through cheaper vtree strategies instead of running away, prints
   whatever valid result it reached, and reports the trip through the
   exit code — see [exit_code_docs] for the 3/4/5/6/7 contract. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* A user error that should show the subcommand's usage line. *)
exception Cli_usage of string

let read_circuit path_opt inline_opt =
  match (path_opt, inline_opt) with
  | _, Some s -> Obs.span "cli.parse" (fun () -> Circuit.of_string s)
  | Some path, None ->
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        Obs.span "cli.parse" (fun () -> Circuit.of_string s))
  | None, None -> raise (Cli_usage "provide a circuit with -c or --file")

let vtree_of_choice choice circuit =
  let vars = Circuit.variables circuit in
  if vars = [] then raise (Cli_usage "the circuit has no variables");
  Obs.span "cli.vtree" @@ fun () ->
  match choice with
  | `Balanced -> Vtree.balanced vars
  | `Right -> Vtree.right_linear vars
  | `Left -> Vtree.left_linear vars
  | `Lemma1 -> fst (Lemma1.vtree_of_circuit circuit)

(* Pipeline strategies go through [Ctwsdd.compile] (budget-governed,
   with the degradation ladder); the legacy vtree kinds build the vtree
   directly and compile on it under the same budget, with no ladder to
   fall back on.  [--minimize] runs the in-manager dynamic vtree search
   either way (anytime under a budget).  Returns the manager, the root
   and the degradation flag. *)
let compile_with_choice ~budget ?compact_every ?(backend = `Sdd) choice
    ~minimize c =
  if Circuit.variables c = [] then
    raise (Cli_usage "the circuit has no variables");
  match choice with
  | (`Right | `Balanced | `Treedec | `Search) as s ->
    (match
       Ctwsdd.compile ~budget ~vtree_strategy:s ~backend ~minimize
         ?compact_every c
     with
     | Error e -> Error e
     | Ok r ->
       Ok
         ( r.Pipeline.manager,
           r.Pipeline.root,
           r.Pipeline.degraded,
           r.Pipeline.backend ))
  | (`Left | `Lemma1) as ch ->
    if backend <> `Sdd then
      raise
        (Cli_usage
           "--backend works with the pipeline vtree strategies (balanced, \
            right, treedec, search), not the legacy left/lemma1 kinds");
    Ctwsdd_error.guard @@ fun () ->
    let vt = vtree_of_choice ch c in
    let m = Sdd.manager ~budget ?compact_every vt in
    let node = Obs.span "cli.compile" (fun () -> Sdd.compile_circuit m c) in
    let node, degraded =
      if minimize then begin
        let a = Vtree_search.minimize_manager ~budget m node in
        (a.Vtree_search.best, a.Vtree_search.degraded)
      end
      else (node, None)
    in
    Sdd.set_budget m Budget.unlimited;
    (m, node, degraded, `Sdd)

let circuit_file =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE"
         ~doc:"Read the circuit from $(docv) (s-expression syntax).")

let circuit_inline =
  Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~docv:"EXPR"
         ~doc:"Circuit as an s-expression, e.g. \"(or (and x y) (not z))\".")

let vtree_conv =
  Arg.enum
    [ ("balanced", `Balanced); ("right", `Right); ("left", `Left);
      ("lemma1", `Lemma1); ("treedec", `Treedec); ("search", `Search) ]

(* Junk values become Cmdliner's usage error (exit 124) with the same
   sdd|obdd|dnnf|auto inventory as [Backend.of_string]. *)
let backend_conv =
  Arg.enum
    [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf); ("auto", `Auto) ]

let backend_arg =
  Arg.(value & opt backend_conv `Sdd & info [ "backend" ] ~docv:"KIND"
         ~doc:"Compilation target: $(b,sdd) (canonical SDD, the default), \
               $(b,obdd) (right-linear OBDD specialization), $(b,dnnf) \
               (counting-only non-canonical d-DNNF — no unique table, no \
               compression) or $(b,auto) (pick per workload; the choice \
               and its reason are reported).")

let backend_label = function
  | `Sdd -> "sdd"
  | `Obdd -> "obdd"
  | `Dnnf -> "dnnf"

let minimize_flag =
  Arg.(value & flag & info [ "minimize" ]
         ~doc:"After compilation, shrink the SDD by in-manager dynamic \
               vtree search (greedy rotations and swaps applied to the \
               live manager).")

(* A strictly positive integer option (--components, --parallel-apply,
   --compact-every): non-positive and unparseable values become a clean
   Cmdliner usage error instead of an Invalid_argument from deep inside
   the library. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | None ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let compact_every_arg =
  Arg.(value & opt (some pos_int) None & info [ "compact-every" ] ~docv:"N"
         ~doc:"Arm generational arena compaction: once $(docv) nodes have \
               been allocated (or tombstoned) since the last collection, \
               relocate the live SDD into a fresh arena and reclaim the \
               dead apply intermediates.  Off by default — allocation is \
               append-only and peak heap grows with total allocations.")

(* ------------------------------------------------------------------ *)
(* Budget plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SEC"
         ~doc:"Wall-clock budget in seconds.  On expiry the engine \
               stops at the best result found so far (degrading the \
               vtree strategy if needed) and exits with code 4.")

let max_nodes_arg =
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
         ~doc:"SDD live-node budget per manager.  On exhaustion the \
               engine degrades or stops, exiting with code 5.")

let budget_of timeout max_nodes =
  match (timeout, max_nodes) with
  | None, None -> Budget.unlimited
  | _ -> Budget.create ?timeout ?max_nodes ()

(* Budget trips always leave a postmortem behind (flight-recorder tail,
   metrics, GC, manager census) — that dump, not the terse stderr line,
   is what a long-lived run gets debugged from. *)
let trip_postmortem ?detail r =
  let path = Postmortem.write ?detail ~reason:(Budget.reason_to_string r) () in
  Printf.eprintf "ctwsdd: postmortem: wrote %s\n%!" path

let report_degraded = function
  | None -> 0
  | Some r ->
    let e = Ctwsdd_error.of_reason r in
    Printf.eprintf "ctwsdd: budget exhausted (%s); degraded result above\n%!"
      (Budget.reason_to_string r);
    trip_postmortem ~detail:"degraded result printed" r;
    Ctwsdd_error.exit_code e

let report_error e =
  Printf.eprintf "ctwsdd: error: %s\n%!" (Ctwsdd_error.to_string e);
  Option.iter trip_postmortem (Ctwsdd_error.reason e);
  Ctwsdd_error.exit_code e

(* The exit-code contract of the compiling subcommands, shown in --help.
   0 is success; 124/125 stay Cmdliner's usage/internal errors. *)
let exit_code_docs =
  [
    Cmd.Exit.info 3
      ~doc:"on invalid input (unparseable circuit, query or database, \
            malformed DIMACS, out-of-range parameters).";
    Cmd.Exit.info 4
      ~doc:"when the $(b,--timeout) budget expired.  Any result printed \
            before exit is valid — it is the best the engine reached in \
            time.";
    Cmd.Exit.info 5
      ~doc:"when the $(b,--max-nodes) budget was exhausted (same \
            degraded-result contract as code 4).";
    Cmd.Exit.info 6 ~doc:"when the memory watermark was exceeded.";
    Cmd.Exit.info 7 ~doc:"when the run was cancelled.";
  ]
  @ Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* Observability plumbing                                              *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  stats : bool;
  trace : string option;
  trace_out : string option;
  telemetry_out : string option;
  telemetry_interval : float;
  explain_out : string option;
  postmortem : string;
}

let stats_flag =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"After the run, print per-stage span timings and the SDD \
               manager's cache hit/miss statistics.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write all recorded metrics to $(docv) as ctwsdd-metrics/v4 \
               JSON (implies collection, like $(b,--stats)).")

let trace_out_file =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record every span call and event individually and write a \
               Chrome trace_event file to $(docv); open it in Perfetto \
               (ui.perfetto.dev) or chrome://tracing.  Implies collection.")

let telemetry_out_file =
  Arg.(value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE"
         ~doc:"Write OpenMetrics / Prometheus text snapshots of the live \
               counters, gauges, histograms, caches, attribution cost \
               centers and GC state to $(docv) (atomic replace, so \
               `watch cat` or a textfile collector never sees a torn \
               file; `-` prints to stdout instead).  Implies collection. \
               One snapshot is written at startup and one at exit; add \
               $(b,--telemetry-interval) for periodic refresh.")

let telemetry_interval_arg =
  Arg.(value & opt float 0. & info [ "telemetry-interval" ] ~docv:"SEC"
         ~doc:"Refresh $(b,--telemetry-out) every $(docv) seconds while \
               the run is in flight (0, the default, means only at \
               startup and exit).")

let explain_out_file =
  Arg.(value & opt (some string) None & info [ "explain-out" ] ~docv:"FILE"
         ~doc:"Write a ctwsdd-explain/v1 JSON attribution report to \
               $(docv) after the run: ranked cost centers (vtree nodes, \
               treewidth bags, clauses, components, pipeline rungs), top \
               bags by node growth with width vs log2(nodes), per-shard \
               lock contention, and the parallelism / Amdahl summary.  \
               Implies collection.")

let postmortem_file =
  Arg.(value & opt string "ctwsdd-postmortem.json" & info [ "postmortem" ]
         ~docv:"FILE"
         ~doc:"Where postmortem dumps are written (on budget trips, \
               uncaught exceptions and SIGUSR1).")

let obs_term =
  let mk stats trace trace_out telemetry_out telemetry_interval explain_out
      postmortem =
    { stats; trace; trace_out; telemetry_out; telemetry_interval; explain_out;
      postmortem }
  in
  Term.(const mk $ stats_flag $ trace_file $ trace_out_file
        $ telemetry_out_file $ telemetry_interval_arg $ explain_out_file
        $ postmortem_file)

(* Runs the body (which returns the process exit code: 0, or a budget
   code from the table above) with observability enabled when requested,
   then exports.  Human summaries go to stderr so stdout stays pipeable.
   Metrics, traces and telemetry are written even on budget exits — a
   degraded run's trace is exactly the one worth inspecting.  Errors
   terminate through Cmdliner or the exit-code contract, never via an
   uncaught backtrace; any exception outside that contract still leaves
   a postmortem behind before propagating. *)
let run_with_obs o f =
  (* Fresh run: clear the flight recorder and every per-domain metric
     table left over from earlier library use in this process, and mint
     a new run ID for attribution. *)
  Obs.hard_reset ();
  Postmortem.set_default_path o.postmortem;
  Postmortem.install_sigusr1 ();
  let collecting =
    o.stats || o.trace <> None || o.trace_out <> None
    || o.telemetry_out <> None || o.explain_out <> None
  in
  if collecting then begin
    Obs.set_enabled true;
    Obs.reset ();
    if o.trace_out <> None then Obs.set_tracing true
  end;
  (* Periodic telemetry rides SIGALRM: handlers run at safe points on
     the main domain, which owns the domain-local metric state the
     exporter reads (a background domain would see empty tables). *)
  let stop_timer = ref (fun () -> ()) in
  Option.iter
    (fun path ->
      Openmetrics.write path;
      if o.telemetry_interval > 0. then begin
        Sys.set_signal Sys.sigalrm
          (Sys.Signal_handle
             (fun _ -> try Openmetrics.write path with Sys_error _ -> ()));
        let it =
          { Unix.it_interval = o.telemetry_interval;
            it_value = o.telemetry_interval }
        in
        ignore (Unix.setitimer Unix.ITIMER_REAL it);
        stop_timer :=
          fun () ->
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_interval = 0.; it_value = 0. });
            Sys.set_signal Sys.sigalrm Sys.Signal_default
      end)
    o.telemetry_out;
  let export () =
    !stop_timer ();
    if o.stats then begin
      prerr_newline ();
      Obs.pp_summary Format.err_formatter ()
    end;
    Option.iter
      (fun path ->
        Obs.write_json path;
        Printf.eprintf "metrics : wrote %s\n%!" path)
      o.trace;
    Option.iter
      (fun path ->
        Obs.write_trace path;
        Obs.set_tracing false;
        Printf.eprintf "trace   : wrote %s\n%!" path)
      o.trace_out;
    Option.iter
      (fun path ->
        Openmetrics.write path;
        if path <> "-" then Printf.eprintf "telemetry: wrote %s\n%!" path)
      o.telemetry_out;
    Option.iter
      (fun path ->
        Explain.write (Explain.collect ()) path;
        Printf.eprintf "explain : wrote %s\n%!" path)
      o.explain_out
  in
  (* Validate the environment inside the guarded region so a bad
     CTWSDD_DOMAINS or CTWSDD_RING surfaces as a usage error, not a
     crash mid-run.  The ring capacity is applied after the hard_reset
     above (which clears entries but preserves capacity). *)
  let f () =
    (match Obs.Worker.domains_env () with
     | Error msg -> raise (Cli_usage msg)
     | Ok _ -> ());
    (match Flight_recorder.ring_env () with
     | Error msg -> raise (Cli_usage msg)
     | Ok None -> ()
     | Ok (Some n) -> Flight_recorder.set_capacity n);
    f ()
  in
  match f () with
  | code ->
    export ();
    `Ok code
  | exception Cli_usage msg -> `Error (true, msg)
  | exception Budget.Exhausted r ->
    (* A raising path outside the result-typed API tripped the budget
       (e.g. a legacy-vtree compile): no partial result to print. *)
    export ();
    `Ok (report_error (Ctwsdd_error.of_reason r))
  | exception (Failure msg | Invalid_argument msg) ->
    export ();
    `Ok (report_error (Ctwsdd_error.Invalid_input msg))
  | exception Sys_error msg -> `Error (false, msg)
  | exception e ->
    (* Outside the declared failure modes: leave a postmortem, then let
       the exception surface normally. *)
    let path =
      Postmortem.write ~reason:"uncaught_exception"
        ~detail:(Printexc.to_string e) ()
    in
    Printf.eprintf "ctwsdd: postmortem: wrote %s\n%!" path;
    export ();
    raise e

let print_manager_stats m =
  List.iter
    (fun s ->
      Printf.eprintf "  %-16s lookups %-8d hits %-8d misses %-8d entries %d\n"
        s.Obs.Cache.cache s.Obs.Cache.lookups s.Obs.Cache.hits
        s.Obs.Cache.misses s.Obs.Cache.entries)
    (Sdd.stats m)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run file inline vtree_choice backend minimize count validate
      compact_every timeout max_nodes o =
    run_with_obs o @@ fun () ->
    let budget = budget_of timeout max_nodes in
    let c = read_circuit file inline in
    Printf.printf "circuit : %d gates, %d variables\n" (Circuit.size c)
      (Circuit.num_vars c);
    match
      compile_with_choice ~budget ?compact_every ~backend vtree_choice
        ~minimize c
    with
    | Error e -> report_error e
    | Ok (m, node, degraded, chosen) ->
      let (module B : Backend.S) = Backend.impl chosen in
      if backend <> `Sdd || chosen <> `Sdd then
        Printf.printf "backend : %s%s\n" (backend_label chosen)
          (if backend = `Auto then
             match Backend.last_selection () with
             | Some (_, _, reason) -> Printf.sprintf " (%s)" reason
             | None -> ""
           else "");
      Printf.printf "vtree   : %s\n" (Vtree.to_string (Sdd.vtree m));
      Printf.printf "%-8s: size %d, width %d, nodes %d\n"
        (String.uppercase_ascii (backend_label chosen))
        (B.size m node) (B.width m node) (B.node_count m node);
      if count then
        Printf.printf "models  : %s\n"
          (Bigint.to_string (Sdd.model_count m node));
      if validate then begin
        if chosen = `Dnnf then
          print_endline
            "validate: skipped (the dnnf backend is intentionally \
             non-canonical)"
        else
          match Obs.span "cli.validate" (fun () -> Sdd.validate m node) with
          | Ok () -> print_endline "validate: ok (canonical SDD conditions hold)"
          | Error msg -> Printf.printf "validate: FAILED (%s)\n" msg
      end;
      (* The OBDD comparison is unbudgeted — skip it on budgeted runs
         (it could blow up past the limits the user just set). *)
      if Budget.is_unlimited budget then begin
        let order = Circuit.variables c in
        let om = Sdd.Obdd.manager order in
        let onode =
          Obs.span "cli.obdd" (fun () -> Sdd.Obdd.compile_circuit om c)
        in
        Printf.printf "OBDD    : size %d, width %d (order: %s)\n"
          (Sdd.Obdd.size om onode) (Sdd.Obdd.width om onode)
          (String.concat "<" order)
      end;
      if o.stats then begin
        Printf.eprintf "backend : %s\n" (backend_label chosen);
        Printf.eprintf "manager : %d nodes allocated, %d compactions\n"
          (Sdd.num_nodes_allocated m) (Sdd.compactions m);
        print_manager_stats m
      end;
      report_degraded degraded
  in
  let vtree_choice =
    Arg.(value & opt vtree_conv `Lemma1 & info [ "vtree" ] ~docv:"KIND"
           ~doc:"Vtree: $(b,balanced), $(b,right), $(b,left), $(b,lemma1) \
                 (from a tree decomposition of the circuit), $(b,treedec) \
                 (pipeline: best of direct and Tseitin-route \
                 decompositions) or $(b,search) (compile several \
                 candidates in parallel, keep the smallest SDD).")
  in
  let count =
    Arg.(value & flag & info [ "count" ] ~doc:"Print the exact model count.")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Check the SDD conditions.")
  in
  Cmd.v
    (Cmd.info "compile" ~exits:exit_code_docs
       ~doc:"Compile a circuit to a canonical SDD and an OBDD")
    Term.(ret (const run $ circuit_file $ circuit_inline $ vtree_choice
               $ backend_arg $ minimize_flag $ count $ validate
               $ compact_every_arg $ timeout_arg $ max_nodes_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* treewidth                                                           *)
(* ------------------------------------------------------------------ *)

let treewidth_cmd =
  let run file inline o =
    run_with_obs o @@ fun () ->
    let c = read_circuit file inline in
    let g = Circuit.underlying_graph c in
    Printf.printf "gates: %d, wires: %d\n" (Ugraph.num_vertices g)
      (Ugraph.num_edges g);
    let ub, td = Circuit.treewidth_upper c in
    Printf.printf "treewidth <= %d (heuristic decomposition, %d bags)\n" ub
      (Treedec.num_bags td);
    if Ugraph.num_vertices g <= 16 then begin
      Printf.printf "treewidth  = %d (exact)\n" (Treewidth.exact g);
      Printf.printf "pathwidth  = %d (exact)\n" (Treewidth.pathwidth_exact g)
    end;
    Printf.printf "mmd lower bound: %d\n" (Treewidth.lower_bound_mmd g);
    if Circuit.num_vars c <= 14 && Circuit.variables c <> [] then begin
      let vt = fst (Lemma1.vtree_of_circuit c) in
      let f = Circuit.to_boolfun c in
      Printf.printf "Lemma 1 vtree: %s\n" (Vtree.to_string vt);
      Printf.printf "fw(F,T) = %d, fiw(F,T) = %d, sdw(F,T) = %d\n"
        (Factor_width.fw f vt) (Compile.fiw f vt) (Compile.sdw f vt)
    end;
    0
  in
  Cmd.v
    (Cmd.info "treewidth" ~exits:exit_code_docs
       ~doc:"Treewidth, pathwidth and the paper's widths of a circuit")
    Term.(ret (const run $ circuit_file $ circuit_inline $ obs_term))

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let parse_db path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         match String.index_opt line ' ' with
         | None ->
           entries := (Pdb.tuple_of_var line, Ratio.of_ints 1 2) :: !entries
         | Some i ->
           let fact = Pdb.tuple_of_var (String.sub line 0 i) in
           let p = String.trim (String.sub line i (String.length line - i)) in
           let prob =
             match String.split_on_char '/' p with
             | [ num; den ] ->
               Ratio.make (Bigint.of_string num) (Bigint.of_string den)
             | [ num ] -> Ratio.of_bigint (Bigint.of_string num)
             | _ -> failwith ("bad probability: " ^ p)
           in
           entries := (fact, prob) :: !entries
       end
     done
   with End_of_file -> ());
  Pdb.make (List.rev !entries)

let query_cmd =
  let run query db_path backend brute minimize compact_every timeout max_nodes
      o =
    run_with_obs o @@ fun () ->
    let budget = budget_of timeout max_nodes in
    let q = Ucq.of_string query in
    let db =
      match db_path with
      | Some path -> parse_db path
      | None -> raise (Cli_usage "provide a database with --db")
    in
    Printf.printf "query: %s\n" (Ucq.to_string q);
    Printf.printf "hierarchical: %b, inversion-free: %b\n"
      (Qsafety.hierarchical q) (Qsafety.inversion_free q);
    let lineage = Lineage.circuit q db in
    Printf.printf "lineage: %d gates over %d tuple variables\n"
      (Circuit.size lineage)
      (List.length (Circuit.variables lineage));
    match
      Obs.span "cli.prob_sdd" (fun () ->
          Ctwsdd.prob ~budget ~minimize ?compact_every ~backend q db)
    with
    | Error e -> report_error e
    | Ok a ->
      Printf.printf "P = %s = %.6f\n"
        (Ratio.to_string a.Prob.probability)
        (Ratio.to_float a.Prob.probability);
      Printf.printf "  via %-4s: size %d%s\n"
        (String.uppercase_ascii (backend_label a.Prob.backend))
        a.Prob.size
        (if backend = `Auto then
           match Backend.last_selection () with
           | Some (_, _, reason) -> Printf.sprintf "  (%s)" reason
           | None -> ""
         else "");
      if o.stats then
        Printf.eprintf "backend : %s\n" (backend_label a.Prob.backend);
      (* The comparison evaluators are unbudgeted; run them only on
         unbudgeted invocations. *)
      if Budget.is_unlimited budget then begin
        let p_obdd, s_obdd =
          Obs.span "cli.prob_obdd" (fun () -> Prob.via_obdd_exn q db)
        in
        Printf.printf "  via OBDD: size %d%s\n" s_obdd
          (if Ratio.equal p_obdd a.Prob.probability then ""
           else "  (MISMATCH!)");
        (match Obs.span "cli.prob_lifted" (fun () -> Lifted.probability q db)
         with
         | Some p ->
           Printf.printf "  lifted  : %s (safe plan, no compilation)%s\n"
             (Ratio.to_string p)
             (if Ratio.equal p a.Prob.probability then "" else "  (MISMATCH!)")
         | None -> ());
        if brute then begin
          let exact = Obs.span "cli.prob_brute" (fun () -> Prob.brute q db) in
          Printf.printf "  brute   : %s%s\n" (Ratio.to_string exact)
            (if Ratio.equal exact a.Prob.probability then ""
             else "  (MISMATCH!)")
        end
      end;
      report_degraded a.Prob.degraded
  in
  let query =
    Arg.(required & opt (some string) None & info [ "query"; "q" ] ~docv:"UCQ"
           ~doc:"Union of conjunctive queries, e.g. \"R(x), S(x,y) | T(x)\".")
  in
  let db =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE"
           ~doc:"Database file: one `R(a,b) 1/2` fact per line.")
  in
  let brute =
    Arg.(value & flag & info [ "brute" ] ~doc:"Also compute by brute force.")
  in
  Cmd.v
    (Cmd.info "query" ~exits:exit_code_docs
       ~doc:"Probability of a UCQ over a probabilistic database")
    Term.(ret (const run $ query $ db $ backend_arg $ brute $ minimize_flag
               $ compact_every_arg $ timeout_arg $ max_nodes_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* cnf : DIMACS model counting                                         *)
(* ------------------------------------------------------------------ *)

(* The historical monolithic path: one circuit, one vtree, one manager.
   Selected by an explicit --vtree KIND (or --minimize, which operates
   on a single manager); the scaling pipeline below is the default. *)
let cnf_monolithic ~budget ~minimize ?compact_every ?backend vtree_choice
    (d : Dimacs.t) o =
  let c = Dimacs.to_circuit d in
  if Circuit.variables c = [] then begin
    (* no clause mentions a variable: the CNF is a constant *)
    let value = Circuit.eval c Boolfun.Smap.empty in
    Printf.printf "models: %s\n"
      (Bigint.to_string
         (if value then Bigint.pow2 d.Dimacs.num_vars else Bigint.zero));
    0
  end
  else begin
    match
      compile_with_choice ~budget ?compact_every ?backend vtree_choice
        ~minimize c
    with
    | Error e -> report_error e
    | Ok (m, node, degraded, chosen) ->
      let (module B : Backend.S) = Backend.impl chosen in
      if chosen <> `Sdd then
        Printf.printf "backend: %s\n" (backend_label chosen);
      Printf.printf "%s: size %d, width %d\n"
        (String.uppercase_ascii (backend_label chosen))
        (B.size m node) (B.width m node);
      let count =
        Obs.span "cli.model_count" @@ fun () ->
        Bigint.mul
          (Sdd.model_count m node)
          (Bigint.pow2 (Dimacs.free_var_count d))
      in
      Printf.printf "models: %s\n" (Bigint.to_string count);
      if o.stats then begin
        Printf.eprintf "backend : %s\n" (backend_label chosen);
        print_manager_stats m
      end;
      report_degraded degraded
  end

(* The scaling path (the default): preprocessing, connected components
   compiled in parallel, treewidth-driven clause scheduling. *)
let cnf_scaling ~budget ~preprocess ~schedule ~domains ?compact_every
    ?(backend = `Sdd) ~parallel_apply (d : Dimacs.t) o =
  match
    Ctwsdd.compile_cnf ~budget ~preprocess ~schedule ~backend ?domains
      ?compact_every d
  with
  | Error e -> report_error e
  | Ok r ->
    if r.Pipeline.cnf_backend <> `Sdd then
      Printf.printf "backend: %s (%s)\n"
        (backend_label r.Pipeline.cnf_backend)
        r.Pipeline.cnf_backend_reason;
    if preprocess then
      Printf.printf "preprocess: %d forced, %d free variables\n"
        r.Pipeline.forced_vars r.Pipeline.free_vars;
    let comps = r.Pipeline.components in
    Printf.printf "components: %d\n" (List.length comps);
    List.iteri
      (fun i (c : Pipeline.cnf_component) ->
        Printf.printf "  component %d: %d vars, %d clauses, SDD size %d%s\n" i
          c.Pipeline.k_vars c.Pipeline.k_clauses c.Pipeline.k_size
          (match c.Pipeline.k_degraded with
           | None -> ""
           | Some reason ->
             Printf.sprintf " (degraded: %s)" (Budget.reason_to_string reason)))
      comps;
    let total_size =
      List.fold_left (fun acc c -> acc + c.Pipeline.k_size) 0 comps
    in
    Printf.printf "SDD: size %d (%d components)\n" total_size
      (List.length comps);
    Printf.printf "models: %s\n" (Bigint.to_string r.Pipeline.count);
    (* --parallel-apply N: conjoin the vtree-independent component roots
       into one manager with a parallel tree reduction over N domains.
       The joint model count is a cross-check against the product-based
       count printed above. *)
    (match parallel_apply with
     | None -> ()
     | Some n ->
       (match
          Obs.span "cli.parallel_apply" (fun () ->
              Ctwsdd.conjoin_components ~domains:n r)
        with
        | None -> ()
        | Some (jm, jroot) ->
          Printf.printf "joint SDD: size %d (%d domains)\n"
            (Sdd.size jm jroot) n;
          Printf.printf "joint models: %s\n"
            (Bigint.to_string
               (Bigint.mul
                  (Sdd.model_count jm jroot)
                  (Bigint.pow2 r.Pipeline.free_vars)));
          if o.stats then print_manager_stats jm));
    if o.stats then begin
      Printf.eprintf "backend : %s\n" (backend_label r.Pipeline.cnf_backend);
      List.iter (fun c -> print_manager_stats c.Pipeline.k_manager) comps
    end;
    report_degraded r.Pipeline.cnf_degraded

let cnf_cmd =
  let run path vtree_choice backend minimize no_preprocess schedule domains
      compact_every parallel_apply timeout max_nodes o =
    run_with_obs o @@ fun () ->
    let budget = budget_of timeout max_nodes in
    let d = Obs.span "cli.parse" (fun () -> Dimacs.parse_file path) in
    Printf.printf "cnf: %d variables, %d clauses (%d variables unused)\n"
      d.Dimacs.num_vars
      (List.length d.Dimacs.clauses)
      (Dimacs.free_var_count d);
    let monolithic choice =
      if parallel_apply <> None then
        raise
          (Cli_usage
             "--parallel-apply requires the scaling pipeline (drop --vtree \
              and --minimize)");
      cnf_monolithic ~budget ~minimize ?compact_every ~backend choice d o
    in
    match vtree_choice with
    | Some choice -> monolithic choice
    | None when minimize ->
      (* --minimize operates on a single manager: use the historical
         default vtree. *)
      monolithic `Lemma1
    | None ->
      cnf_scaling ~budget ~preprocess:(not no_preprocess) ~schedule ~domains
        ?compact_every ~backend ~parallel_apply d o
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let vtree_choice =
    Arg.(value & opt (some vtree_conv) None & info [ "vtree" ] ~docv:"KIND"
           ~doc:"Compile the whole CNF monolithically on one vtree: \
                 $(b,balanced), $(b,right), $(b,left), $(b,lemma1), \
                 $(b,treedec) or $(b,search).  Without this option the \
                 scaling pipeline is used: preprocessing, connected \
                 components compiled in parallel, treewidth-driven \
                 clause scheduling.")
  in
  let no_preprocess =
    Arg.(value & flag & info [ "no-preprocess" ]
           ~doc:"Skip CNF preprocessing (unit propagation, tautology and \
                 duplicate-clause removal).  Preprocessing is \
                 count-preserving, so this only affects performance.")
  in
  let schedule =
    Arg.(value
         & opt (enum [ ("bags", `Bags); ("clauses", `Clauses) ]) `Bags
         & info [ "schedule" ] ~docv:"ORDER"
             ~doc:"Clause conjunction order within a component: $(b,bags) \
                   (bag-by-bag bottom-up along the tree decomposition, \
                   the default) or $(b,clauses) (input order).")
  in
  let domains =
    Arg.(value & opt (some pos_int) None & info [ "components" ] ~docv:"N"
           ~doc:"Compile up to $(docv) connected components in parallel \
                 (OCaml domains).  Defaults to the machine's recommended \
                 domain count, capped at the number of components; \
                 CTWSDD_DOMAINS overrides the recommendation.")
  in
  let parallel_apply =
    Arg.(value & opt (some pos_int) None & info [ "parallel-apply" ]
           ~docv:"N"
           ~doc:"After compiling the components, conjoin their \
                 vtree-independent SDDs into one manager with a parallel \
                 tree reduction over $(docv) OCaml domains, and print the \
                 joint SDD size and a cross-checking model count.  \
                 Requires the scaling pipeline (no --vtree/--minimize).")
  in
  Cmd.v
    (Cmd.info "cnf" ~exits:exit_code_docs
       ~doc:"Exact model counting for a DIMACS CNF file")
    Term.(ret (const run $ path $ vtree_choice $ backend_arg $ minimize_flag
               $ no_preprocess $ schedule $ domains $ compact_every_arg
               $ parallel_apply $ timeout_arg $ max_nodes_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* explain : attribution report for a CNF compile                      *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run path schedule backend domains no_preprocess compact_every
      parallel_apply top timeout max_nodes o =
    (* The report is written from inside the run (it needs the component
       managers' censuses); strip explain_out from the generic exporter
       so it is not overwritten with a census-less collect afterwards. *)
    let explain_out = o.explain_out in
    run_with_obs { o with explain_out = None } @@ fun () ->
    (* The whole point of this subcommand is the attribution report:
       collection is on regardless of the --stats/--trace switches. *)
    if not (Obs.enabled ()) then begin
      Obs.set_enabled true;
      Obs.reset ()
    end;
    let budget = budget_of timeout max_nodes in
    let d = Obs.span "cli.parse" (fun () -> Dimacs.parse_file path) in
    Printf.eprintf "cnf: %d variables, %d clauses\n%!" d.Dimacs.num_vars
      (List.length d.Dimacs.clauses);
    match
      Ctwsdd.compile_cnf ~budget ~preprocess:(not no_preprocess) ~schedule
        ~backend ?domains ?compact_every d
    with
    | Error e -> report_error e
    | Ok r ->
      (* The optional joint conjoin is what arms the sharded locks and
         populates the contention / critical-path sections. *)
      (match parallel_apply with
       | None -> ()
       | Some n ->
         ignore
           (Obs.span "cli.parallel_apply" (fun () ->
                Ctwsdd.conjoin_components ~domains:n r)));
      (* Check per-bag attributed nodes against the component managers
         only: a joint conjoin target would dilute the coverage ratio
         with nodes no bag ever allocated. *)
      let censuses =
        List.map
          (fun (c : Pipeline.cnf_component) -> Sdd.census c.Pipeline.k_manager)
          r.Pipeline.components
      in
      let report =
        Explain.collect ~top
          ?censuses:(if censuses = [] then None else Some censuses)
          ()
      in
      Format.printf "%a@." Explain.pp report;
      Option.iter
        (fun p ->
          Explain.write report p;
          Printf.eprintf "explain : wrote %s\n%!" p)
        explain_out;
      report_degraded r.Pipeline.cnf_degraded
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let no_preprocess =
    Arg.(value & flag & info [ "no-preprocess" ]
           ~doc:"Skip CNF preprocessing, as on $(b,ctwsdd cnf).")
  in
  let schedule =
    Arg.(value
         & opt (enum [ ("bags", `Bags); ("clauses", `Clauses) ]) `Bags
         & info [ "schedule" ] ~docv:"ORDER"
             ~doc:"Clause conjunction order within a component ($(b,bags) \
                   or $(b,clauses)); with $(b,clauses) there are no bag \
                   cost centers to report.")
  in
  let domains =
    Arg.(value & opt (some pos_int) None & info [ "components" ] ~docv:"N"
           ~doc:"Compile up to $(docv) connected components in parallel.")
  in
  let parallel_apply =
    Arg.(value & opt (some pos_int) None & info [ "parallel-apply" ]
           ~docv:"N"
           ~doc:"Also conjoin the component SDDs with a parallel tree \
                 reduction over $(docv) domains, populating the shard \
                 contention and Amdahl sections.")
  in
  let top =
    Arg.(value & opt pos_int 10 & info [ "top" ] ~docv:"K"
           ~doc:"Rows in the ranked tables (cost centers, bags).")
  in
  Cmd.v
    (Cmd.info "explain" ~exits:exit_code_docs
       ~doc:"Compile a DIMACS CNF and report where the time and nodes went"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the same scaling pipeline as $(b,ctwsdd cnf) with the \
              attribution profiler on, then prints a ranked cost-center \
              table (treewidth bags, clauses, components, pipeline \
              rungs), the top bags by node growth with bag width against \
              log2(nodes), the per-shard lock-contention heatmap and the \
              parallelism/Amdahl summary with the critical path.  \
              $(b,--explain-out) additionally writes the report as \
              ctwsdd-explain/v1 JSON.";
         ])
    Term.(ret (const run $ path $ schedule $ backend_arg $ domains
               $ no_preprocess $ compact_every_arg $ parallel_apply $ top
               $ timeout_arg $ max_nodes_arg $ obs_term))

(* ------------------------------------------------------------------ *)
(* isa                                                                 *)
(* ------------------------------------------------------------------ *)

let isa_cmd =
  let run n explicit o =
    run_with_obs o @@ fun () ->
    (match Families.isa_params n with
     | None ->
       failwith
         (Printf.sprintf "%d is not a valid ISA size (5, 18, 261, ...)" n)
     | Some (k, m) -> Printf.printf "ISA_%d: k = %d, m = %d\n" n k m);
    if n <= 18 then begin
      let mgr, node = Obs.span "cli.isa_compile" (fun () -> Isa.compile n) in
      Printf.printf "canonical SDD on the Figure 4 vtree: size %d, width %d\n"
        (Sdd.size mgr node) (Sdd.width mgr node);
      if o.stats then print_manager_stats mgr
    end;
    if explicit && n <= 18 then begin
      let t = Obs.span "cli.isa_explicit" (fun () -> Isa_explicit.build n) in
      Printf.printf
        "explicit Appendix-A construction: %d elements, %d distinct gates \
         (paper bound %d, n^13/5 = %.0f)\n"
        (Isa_explicit.size t)
        (Isa_explicit.distinct_gates t)
        (Isa_explicit.paper_gate_bound n)
        (Isa.size_bound n)
    end
    else if explicit then
      Printf.printf "explicit construction bound: <= %d gates\n"
        (Isa_explicit.paper_gate_bound n);
    0
  in
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let explicit =
    Arg.(value & flag & info [ "explicit" ]
           ~doc:"Also build the explicit Appendix A construction.")
  in
  Cmd.v
    (Cmd.info "isa" ~exits:exit_code_docs
       ~doc:"The indirect storage access function (Appendix A)")
    Term.(ret (const run $ n $ explicit $ obs_term))

let () =
  let info =
    Cmd.info "ctwsdd" ~version:"1.0.0" ~exits:exit_code_docs
      ~doc:"Circuit treewidth, sentential decision, and query compilation"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ compile_cmd; treewidth_cmd; query_cmd; cnf_cmd; explain_cmd;
            isa_cmd ]))
