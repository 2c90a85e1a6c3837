(* Command-line interface to the library.

     ctwsdd compile   -c "(or (and x y) (not z))" --vtree lemma1
     ctwsdd treewidth -c "(and (or a b) (or b c))"
     ctwsdd query     -q "R(x), S(x,y)" --db facts.txt
     ctwsdd cnf       instance.cnf --components 4 --stats
     ctwsdd isa 18

   Database files contain one fact per line: `R(a,b) 1/2`.

   Each input kind has one compile path: a circuit goes through
   Pipeline.compile (compile's --vtree picks its strategy; left and
   lemma1 are pinned vtrees), a DIMACS file through Pipeline.compile_cnf
   (cnf; no --vtree).

   Every subcommand accepts --stats (the run record's text report on
   stderr, keeping stdout pipeable: cost centers, bags, parallelism,
   critical path, spans, caches, histograms, GC, counters and gauges),
   --trace FILE (the ctwsdd-run/v1 run record), --trace-out FILE (Chrome
   trace_event file for Perfetto / chrome://tracing) and --postmortem
   FILE (where dumps land); see EXPERIMENTS.md for the formats.  Spans,
   events and budget activity are kept in one flight-recorder ring
   (4096 entries, 2^18 while collecting) from which the record's
   events, the Chrome trace and a dump's ring tail are all rendered.
   CTWSDD_DOMAINS caps the parallel worker pool.

   A dump (the run record with a reason, the ring tail and the full GC
   stats) is written on every budget trip, on uncaught exceptions, and
   on SIGUSR1 — the way to look inside a live run.  Every file is written
   atomically; a failed write prints `ctwsdd: cannot write FILE: ...`
   and, on an otherwise successful run, exits 124.

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
   sdd|obdd|auto inventory as [Backend.of_string]. *)
let backend_conv = Arg.enum [ ("sdd", `Sdd); ("obdd", `Obdd); ("auto", `Auto) ]

let backend_arg =
  Arg.(value & opt backend_conv `Sdd & info [ "backend" ] ~docv:"KIND"
         ~doc:"Compilation target: $(b,sdd) (canonical SDD, the default), \
               $(b,obdd) (canonical SDD on a right-linear vtree, where \
               apply is the OBDD ITE recursion) or $(b,auto) (pick per \
               workload; the choice and its reason are reported).")

let minimize_flag =
  Arg.(value & flag & info [ "minimize" ]
         ~doc:"After compilation, shrink the SDD by in-manager dynamic \
               vtree search (greedy rotations and swaps applied to the \
               live manager).")

(* A strictly positive integer option (--components, --compact-every):
   non-positive and unparseable values become a clean Cmdliner usage
   error instead of an Invalid_argument from deep inside the library. *)
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
               been allocated since the last collection, \
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

(* Report one output file; [false] when it could not be written. *)
let report_write label path = function
  | Ok () ->
    Printf.eprintf "%s: wrote %s\n%!" label path;
    true
  | Error msg ->
    Printf.eprintf "ctwsdd: cannot write %s: %s\n%!" path msg;
    false

let write_dump ?detail reason =
  ignore
    (report_write "ctwsdd: postmortem" (Run_record.dump_path ())
       (Run_record.dump ?detail ~reason ()))

(* Budget trips always leave a dump behind (ring tail, metrics, GC,
   manager census) — that dump, not the terse stderr line, is what a
   long-lived run gets debugged from. *)
let trip_postmortem ?detail r = write_dump ?detail (Budget.reason_to_string r)

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
  postmortem : string;
}

let stats_flag =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"After the run, print the run record's report on stderr: \
               cost centers, top bags, parallelism, critical path, span \
               timings, cache hit/miss statistics, histograms, GC, \
               counters and gauges.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the ctwsdd-run/v1 run record to $(docv): metrics, \
               attribution, the explain sections, backend choice and \
               manager censuses (implies collection, like $(b,--stats)).")

let trace_out_file =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record every span call and event individually and write a \
               Chrome trace_event file to $(docv); open it in Perfetto \
               (ui.perfetto.dev) or chrome://tracing.  Implies collection.")

let postmortem_file =
  Arg.(value & opt string "ctwsdd-postmortem.json" & info [ "postmortem" ]
         ~docv:"FILE"
         ~doc:"Where dumps of the run record are written (on budget \
               trips, uncaught exceptions and SIGUSR1).")

let obs_term =
  let mk stats trace trace_out postmortem =
    { stats; trace; trace_out; postmortem }
  in
  Term.(const mk $ stats_flag $ trace_file $ trace_out_file $ postmortem_file)

(* The managers the exported record reports; [cnf] pins them to its
   compile's components so other live managers do not dilute the bag
   coverage. *)
let record_censuses : Sdd.census list option ref = ref None

(* Runs the body (which returns the process exit code: 0, or a budget
   code from the table above) with observability enabled when requested,
   then exports.  One record feeds both the --stats report, which goes
   to stderr so stdout stays pipeable, and --trace.  Both are written
   even on budget exits — a degraded run's record is exactly the one
   worth inspecting.  A failed export turns exit 0 into 124, the code a
   [Sys_error] in the body gets.
   Errors terminate through Cmdliner or the exit-code contract, never
   via an uncaught backtrace; any exception outside that contract still
   leaves a dump behind before propagating. *)
let run_with_obs o f =
  (* Fresh run: clear the flight recorder and every per-domain metric
     table left over from earlier library use in this process, and mint
     a new run ID for attribution. *)
  Obs.hard_reset ();
  record_censuses := None;
  Run_record.set_dump_path o.postmortem;
  Run_record.install_sigusr1 ();
  if o.stats || o.trace <> None || o.trace_out <> None then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  let export code =
    let record = lazy (Run_record.json ?censuses:!record_censuses ()) in
    if o.stats then begin
      prerr_newline ();
      Run_record.pp Format.err_formatter (Lazy.force record)
    end;
    let failed =
      List.filter
        (fun (label, path, write) ->
          match path with
          | None -> false
          | Some p -> not (report_write label p (write p)))
        [
          ("record  ", o.trace,
           fun p -> Run_record.write p (Lazy.force record));
          ("trace   ", o.trace_out, Obs.write_trace);
        ]
    in
    if failed = [] || code <> 0 then code else Cmd.Exit.cli_error
  in
  (* Validate the environment inside the guarded region so a bad
     CTWSDD_DOMAINS surfaces as a usage error, not a crash mid-run. *)
  let f () =
    (match Obs.Worker.domains_env () with
     | Error msg -> raise (Cli_usage msg)
     | Ok _ -> ());
    f ()
  in
  match f () with
  | code -> `Ok (export code)
  | exception Cli_usage msg -> `Error (true, msg)
  | exception Budget.Exhausted r ->
    (* A raising path outside the result-typed API tripped the budget:
       no partial result to print. *)
    `Ok (export (report_error (Ctwsdd_error.of_reason r)))
  | exception (Failure msg | Invalid_argument msg) ->
    `Ok (export (report_error (Ctwsdd_error.Invalid_input msg)))
  | exception Sys_error msg -> `Error (false, msg)
  | exception e ->
    (* Outside the declared failure modes: leave a dump, then let the
       exception surface normally. *)
    write_dump ~detail:(Printexc.to_string e) "uncaught_exception";
    ignore (export 0);
    raise e

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
    let vars = Circuit.variables c in
    if vars = [] then raise (Cli_usage "the circuit has no variables");
    (* [left] and [lemma1] are fixed vtrees, pinned for the pipeline. *)
    let vtree_strategy =
      match vtree_choice with
      | `Left -> `Pinned (Vtree.left_linear vars)
      | `Lemma1 -> `Pinned (fst (Lemma1.vtree_of_circuit c))
      | (`Balanced | `Right | `Treedec | `Search) as s -> s
    in
    match
      Ctwsdd.compile ~budget ~vtree_strategy ~backend ~minimize ?compact_every c
    with
    | Error e -> report_error e
    | Ok { Pipeline.manager = m; root = node; backend = chosen; degraded; _ } ->
      let (module B : Backend.S) = Backend.impl chosen in
      if backend <> `Sdd || chosen <> `Sdd then
        Printf.printf "backend : %s%s\n" (Backend.resolved_name chosen)
          (if backend = `Auto then
             match Backend.last_selection () with
             | Some (_, _, reason) -> Printf.sprintf " (%s)" reason
             | None -> ""
           else "");
      Printf.printf "vtree   : %s\n" (Vtree.to_string (Sdd.vtree m));
      Printf.printf "%-8s: size %d, width %d, nodes %d\n"
        (String.uppercase_ascii (Backend.resolved_name chosen))
        (B.size m node) (B.width m node) (B.node_count m node);
      if count then
        Printf.printf "models  : %s\n"
          (Bigint.to_string (Sdd.model_count m node));
      if validate then begin
        match Obs.span "cli.validate" (fun () -> Sdd.validate m node) with
        | Ok () -> print_endline "validate: ok (canonical SDD conditions hold)"
        | Error msg -> Printf.printf "validate: FAILED (%s)\n" msg
      end;
      (* The OBDD comparison is unbudgeted — skip it on budgeted runs
         (it could blow up past the limits the user just set).  It
         reports through [`Obdd], as the backend line does. *)
      if Budget.is_unlimited budget then begin
        let (module O : Backend.S) = Backend.impl `Obdd in
        let order = Circuit.variables c in
        let om = O.create_manager (Vtree.right_linear order) in
        let onode = Obs.span "cli.obdd" (fun () -> O.compile_circuit om c) in
        Printf.printf "OBDD    : size %d, width %d, nodes %d (order: %s)\n"
          (O.size om onode) (O.width om onode) (O.node_count om onode)
          (String.concat "<" order)
      end;
      report_degraded degraded
  in
  let vtree_choice =
    Arg.(value & opt vtree_conv `Lemma1 & info [ "vtree" ] ~docv:"KIND"
           ~doc:"Vtree: $(b,balanced), $(b,right), $(b,left), $(b,lemma1) \
                 (the Lemma 1 vtree of a tree decomposition of the \
                 circuit), $(b,treedec) (the same Lemma 1 vtree, with the \
                 degradation ladder to balanced and right-linear under a \
                 budget) or $(b,search) (compile several candidates in \
                 parallel, keep the smallest SDD).  $(b,left) and \
                 $(b,lemma1) are pinned: under a budget there is no \
                 cheaper vtree to step down to.")
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
               let den = Bigint.of_string den in
               if Bigint.is_zero den then
                 failwith ("bad probability (zero denominator): " ^ p);
               Ratio.make (Bigint.of_string num) den
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
        (String.uppercase_ascii (Backend.resolved_name a.Prob.backend))
        a.Prob.size
        (if backend = `Auto then
           match Backend.last_selection () with
           | Some (_, _, reason) -> Printf.sprintf "  (%s)" reason
           | None -> ""
         else "");
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

let dimacs_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let no_preprocess_flag =
  Arg.(value & flag & info [ "no-preprocess" ]
         ~doc:"Skip CNF preprocessing (unit propagation, tautology and \
               duplicate-clause removal).  Preprocessing is \
               count-preserving, so this only affects performance.")

let components_arg =
  Arg.(value & opt (some pos_int) None & info [ "components" ] ~docv:"N"
         ~doc:"Compile up to $(docv) connected components in parallel \
               (OCaml domains).  Defaults to the machine's recommended \
               domain count, capped at the number of components; \
               CTWSDD_DOMAINS overrides the recommendation.")

(* One path: preprocessing, connected components compiled in parallel,
   each folded along its tree decomposition (Lemma 1 vtree, stepping
   down to the right-linear vtree on a trip).  [--minimize] then runs the
   in-manager vtree search on every component under the run's budget —
   the pass [Pipeline.compile] makes after a circuit compile. *)
let cnf_cmd =
  let run path backend minimize no_preprocess domains compact_every timeout
      max_nodes o =
    run_with_obs o @@ fun () ->
    let budget = budget_of timeout max_nodes in
    let d = Obs.span "cli.parse" (fun () -> Dimacs.parse_file path) in
    Printf.printf "cnf: %d variables, %d clauses (%d variables unused)\n"
      d.Dimacs.num_vars
      (List.length d.Dimacs.clauses)
      (Dimacs.free_var_count d);
    let preprocess = not no_preprocess in
    match
      Ctwsdd.compile_cnf ~budget ~preprocess ~backend ?domains ?compact_every d
    with
    | Error e -> report_error e
    | Ok r ->
      if minimize then Backend.require_minimizable r.Pipeline.cnf_backend;
      if backend <> `Sdd || r.Pipeline.cnf_backend <> `Sdd then
        Printf.printf "backend: %s (%s)\n"
          (Backend.resolved_name r.Pipeline.cnf_backend)
          r.Pipeline.cnf_backend_reason;
      if preprocess then
        Printf.printf "preprocess: %d forced, %d free variables\n"
          r.Pipeline.forced_vars r.Pipeline.free_vars;
      let comps = r.Pipeline.components in
      (* Per component: its size and degradation, after minimization. *)
      let sized =
        List.map
          (fun (c : Pipeline.cnf_component) ->
            if not minimize then (c, c.Pipeline.k_size, c.Pipeline.k_degraded)
            else
              let a =
                Vtree_search.minimize_manager ~budget c.Pipeline.k_manager
                  c.Pipeline.k_root
              in
              ( c,
                Sdd.size c.Pipeline.k_manager a.Vtree_search.best,
                match c.Pipeline.k_degraded with
                | Some _ as t -> t
                | None -> a.Vtree_search.degraded ))
          comps
      in
      Printf.printf "components: %d\n" (List.length comps);
      List.iteri
        (fun i ((c : Pipeline.cnf_component), size, degraded) ->
          Printf.printf "  component %d: %d vars, %d clauses, SDD size %d%s\n" i
            c.Pipeline.k_vars c.Pipeline.k_clauses size
            (match degraded with
             | None -> ""
             | Some reason ->
               Printf.sprintf " (degraded: %s)" (Budget.reason_to_string reason)))
        sized;
      let total_size = List.fold_left (fun acc (_, s, _) -> acc + s) 0 sized in
      Printf.printf "SDD: size %d (%d components)\n" total_size
        (List.length comps);
      Printf.printf "models: %s\n" (Bigint.to_string r.Pipeline.count);
      if comps <> [] then
        record_censuses :=
          Some
            (List.map
               (fun (c : Pipeline.cnf_component) ->
                 Sdd.census c.Pipeline.k_manager)
               comps);
      report_degraded (List.find_map (fun (_, _, t) -> t) sized)
  in
  Cmd.v
    (Cmd.info "cnf" ~exits:exit_code_docs
       ~doc:"Exact model counting for a DIMACS CNF file")
    Term.(ret (const run $ dimacs_file $ backend_arg $ minimize_flag
               $ no_preprocess_flag $ components_arg
               $ compact_every_arg $ timeout_arg $ max_nodes_arg $ obs_term))

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
        (Sdd.size mgr node) (Sdd.width mgr node)
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
          [ compile_cmd; treewidth_cmd; query_cmd; cnf_cmd; isa_cmd ]))
