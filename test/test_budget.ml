(* The resource-governance layer: Budget semantics, the structured
   Ctwsdd_error contract, the pipeline degradation ladder, and the
   anytime behaviour of the vtree searches.

   The determinism cases pin the contract from vtree_search.mli: a
   node-cap budget yields the *same* degraded result whatever [domains]
   is, because caps are per-manager and the search rung splits its
   allowance by candidate count, not by worker count. *)

open Test_util

let reason =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Budget.reason_to_string r))
    ( = )

let error =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (Ctwsdd_error.to_string e))
    ( = )

let all_reasons =
  [ Budget.Timeout; Budget.Node_limit; Budget.Memory_limit; Budget.Cancelled ]

(* A circuit whose per-strategy allocation counts are known and well
   separated: right-linear 61, balanced 54, treedec 181.  A node cap of
   60 therefore starves `Search (60/3 = 20 per candidate), trips
   `Treedec, and is satisfied by `Balanced. *)
let ladder_circuit () = Generators.band_cnf ~width:3 8
let ladder_cap = 60

let expired () =
  let b = Budget.create ~timeout:0.0 () in
  Unix.sleepf 0.01;
  b

let budget_suite =
  [
    case "create validates its arguments" (fun () ->
        Alcotest.check_raises "timeout"
          (Invalid_argument "Budget.create: negative timeout") (fun () ->
            ignore (Budget.create ~timeout:(-1.0) ()));
        Alcotest.check_raises "max_nodes"
          (Invalid_argument "Budget.create: negative max_nodes") (fun () ->
            ignore (Budget.create ~max_nodes:(-1) ()));
        Alcotest.check_raises "max_memory_words"
          (Invalid_argument "Budget.create: negative max_memory_words")
          (fun () -> ignore (Budget.create ~max_memory_words:(-1) ()));
        Alcotest.check_raises "poll_interval"
          (Invalid_argument "Budget.create: poll_interval must be positive")
          (fun () -> ignore (Budget.create ~poll_interval:0 ()));
        (* NaN passes every [<] test, so the deadline would never fire. *)
        Alcotest.check_raises "nan timeout"
          (Invalid_argument "Budget.create: NaN timeout") (fun () ->
            ignore (Budget.create ~timeout:Float.nan ())));
    case "unlimited is inert" (fun () ->
        checkb "unlimited" true (Budget.is_unlimited Budget.unlimited);
        Budget.check Budget.unlimited;
        Budget.check_nodes Budget.unlimited max_int;
        for _ = 1 to 10_000 do
          Budget.poll Budget.unlimited
        done;
        checkb "split of unlimited" true
          (Budget.is_unlimited (Budget.split_nodes Budget.unlimited 3));
        checkb "created budgets are limited" false
          (Budget.is_unlimited (Budget.create ())));
    case "deadline trips as Timeout" (fun () ->
        let b = expired () in
        Alcotest.check_raises "check" (Budget.Exhausted Budget.Timeout)
          (fun () -> Budget.check b));
    case "node cap is exact" (fun () ->
        let b = Budget.create ~max_nodes:5 () in
        Budget.check_nodes b 5;
        Alcotest.check_raises "over" (Budget.Exhausted Budget.Node_limit)
          (fun () -> Budget.check_nodes b 6));
    case "cancellation token" (fun () ->
        let tok = Atomic.make false in
        let b = Budget.create ~cancel:tok () in
        Budget.check b;
        checkb "not yet" false (Budget.cancelled b);
        Budget.cancel_now b;
        checkb "token shared" true (Atomic.get tok);
        checkb "cancelled" true (Budget.cancelled b);
        Alcotest.check_raises "check" (Budget.Exhausted Budget.Cancelled)
          (fun () -> Budget.check b));
    case "memory watermark trips as Memory_limit" (fun () ->
        let b = Budget.create ~max_memory_words:1 () in
        Alcotest.check_raises "check" (Budget.Exhausted Budget.Memory_limit)
          (fun () -> Budget.check b));
    case "poll honours the interval" (fun () ->
        let b = Budget.create ~timeout:0.0 ~poll_interval:4 () in
        Unix.sleepf 0.01;
        Budget.poll b;
        Budget.poll b;
        Budget.poll b;
        Alcotest.check_raises "fourth poll" (Budget.Exhausted Budget.Timeout)
          (fun () -> Budget.poll b));
    case "split_nodes divides the cap" (fun () ->
        let b = Budget.create ~max_nodes:90 () in
        let s = Budget.split_nodes b 3 in
        Budget.check_nodes s 30;
        Alcotest.check_raises "share" (Budget.Exhausted Budget.Node_limit)
          (fun () -> Budget.check_nodes s 31);
        (* An uncapped budget splits to itself. *)
        let t = Budget.create ~timeout:3600.0 () in
        Budget.check_nodes (Budget.split_nodes t 7) 1_000_000);
  ]

let error_suite =
  [
    case "exit codes match the CLI contract" (fun () ->
        List.iter
          (fun (e, code) -> checki (Ctwsdd_error.to_string e) code
              (Ctwsdd_error.exit_code e))
          [
            (Ctwsdd_error.Invalid_input "x", 3);
            (Ctwsdd_error.Timeout, 4);
            (Ctwsdd_error.Node_limit, 5);
            (Ctwsdd_error.Memory_limit, 6);
            (Ctwsdd_error.Cancelled, 7);
          ]);
    case "guard/throw round-trips every constructor" (fun () ->
        List.iter
          (fun e ->
            Alcotest.(check (result unit error))
              (Ctwsdd_error.to_string e) (Error e)
              (Ctwsdd_error.guard (fun () -> Ctwsdd_error.throw e)))
          [
            Ctwsdd_error.Timeout;
            Ctwsdd_error.Node_limit;
            Ctwsdd_error.Memory_limit;
            Ctwsdd_error.Cancelled;
            Ctwsdd_error.Invalid_input "x";
          ];
        Alcotest.(check (result int error)) "ok" (Ok 42)
          (Ctwsdd_error.guard (fun () -> 42)));
    case "of_reason/reason round-trip" (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check (option reason))
              (Budget.reason_to_string r) (Some r)
              (Ctwsdd_error.reason (Ctwsdd_error.of_reason r)))
          all_reasons;
        Alcotest.(check (option reason)) "invalid input" None
          (Ctwsdd_error.reason (Ctwsdd_error.Invalid_input "x")));
    case "guard converts normalized raising conventions" (fun () ->
        Alcotest.(check (result unit error)) "invalid_arg"
          (Error (Ctwsdd_error.Invalid_input "m"))
          (Ctwsdd_error.guard (fun () -> invalid_arg "m"));
        Alcotest.(check (result unit error)) "failwith"
          (Error (Ctwsdd_error.Invalid_input "m"))
          (Ctwsdd_error.guard (fun () -> failwith "m")));
    case "compile returns structured errors per trip kind" (fun () ->
        let c = ladder_circuit () in
        let check_err name want r =
          match r with
          | Error e -> Alcotest.check error name want e
          | Ok _ -> Alcotest.failf "%s: expected Error" name
        in
        check_err "constant circuit" (Ctwsdd_error.Invalid_input
          "Pipeline.compile: circuit has no variables")
          (Ctwsdd.compile (Circuit.of_string "(and true false)"));
        check_err "timeout" Ctwsdd_error.Timeout
          (Ctwsdd.compile ~budget:(expired ()) c);
        let b = Budget.create () in
        Budget.cancel_now b;
        check_err "cancelled" Ctwsdd_error.Cancelled
          (Ctwsdd.compile ~budget:b c);
        check_err "memory" Ctwsdd_error.Memory_limit
          (Ctwsdd.compile ~budget:(Budget.create ~max_memory_words:1 ()) c);
        (* A cap below even the right-linear compile exhausts the whole
           ladder. *)
        check_err "node limit" Ctwsdd_error.Node_limit
          (Ctwsdd.compile ~budget:(Budget.create ~max_nodes:2 ()) c));
    case "a node cap inside one wide gate's fold is a clean error" (fun () ->
        (* The DNF lineage is one wide Or of And terms.  A cap above
           what the terms need and below the whole compile's allocations
           trips inside the Or gate's pairwise fold. *)
        let c =
          Dnf_lineage.circuit (Ucq.of_string "R(x), S(x,y)") (Pdb.complete_rst 5)
        in
        let out = Circuit.output c in
        checki "output gate is last" (Circuit.size c - 1) out;
        checkb "wide Or" true
          (match Circuit.gate c out with
           | Circuit.Or js -> List.length js >= 25
           | _ -> false);
        let vt = fst (Pipeline.treedec_vtree c) in
        let allocated c =
          let m = Sdd.manager vt in
          ignore (Sdd.compile_circuit m c);
          Sdd.num_nodes_allocated m
        in
        let terms = allocated (Circuit.of_gates (Array.sub c.Circuit.gates 0 out) 0) in
        let peak = allocated c in
        let cap = (terms + peak) / 2 in
        checkb "cap lands inside the fold" true (terms < cap && cap < peak);
        let budget () = Budget.create ~max_nodes:cap () in
        (match Pipeline.compile ~budget:(budget ()) ~vtree_strategy:(`Pinned vt) c with
         | Error e -> Alcotest.check error "node limit" Ctwsdd_error.Node_limit e
         | Ok _ -> Alcotest.fail "expected the cap to trip");
        (* The tripped manager, its cap lifted, compiles the same count
           as a fresh one. *)
        let fresh = Sdd.manager vt in
        let want = Sdd.model_count fresh (Sdd.compile_circuit fresh c) in
        let m = Sdd.manager ~budget:(budget ()) vt in
        (match Sdd.compile_circuit m c with
         | exception Budget.Exhausted r ->
           Alcotest.check reason "trip" Budget.Node_limit r
         | _ -> Alcotest.fail "expected the cap to trip");
        Sdd.set_budget m Budget.unlimited;
        let root = Sdd.compile_circuit m c in
        checkb "valid" true (Sdd.validate m root = Ok ());
        check bigint "same count" want (Sdd.model_count m root));
    case "repeated trips leave the scratch stack where they found it"
      (fun () ->
        (* A trip unwinds the apply recursion with frames still claimed
           on the manager's scratch stack; the public entry point pops
           them.  200 trips at one node past the count — inside the wide
           Or's fold and its terms, then inside a swap's rebuild that
           rolls back — must not grow the stack past one clean compile's. *)
        let c =
          Dnf_lineage.circuit (Ucq.of_string "R(x), S(x,y)") (Pdb.complete_rst 5)
        in
        let vt = fst (Pipeline.treedec_vtree c) in
        let scratch m = (Sdd.census m).Sdd.scratch_words in
        let clean = Sdd.manager vt in
        let want = Sdd.model_count clean (Sdd.compile_circuit clean c) in
        let words = scratch clean in
        let trip m f =
          Sdd.set_budget m
            (Budget.create ~max_nodes:(Sdd.num_nodes_allocated m) ());
          let r =
            match f () with
            | _ -> Alcotest.fail "expected the cap to trip"
            | exception Budget.Exhausted r -> r
          in
          Sdd.set_budget m Budget.unlimited;
          Alcotest.check reason "trip" Budget.Node_limit r
        in
        let m = Sdd.manager vt in
        for _ = 1 to 200 do
          trip m (fun () -> Sdd.compile_circuit m c)
        done;
        (* A tripped compile stops short of the clean one's deepest
           frame, so only the finished recompile must reach it. *)
        checkb "stack after apply trips" true (scratch m <= words);
        let root = Sdd.compile_circuit m c in
        check bigint "same count" want (Sdd.model_count m root);
        checki "stack after the recompile" words (scratch m);
        let v = Vtree.root (Sdd.vtree m) in
        for _ = 1 to 200 do
          trip m (fun () -> Sdd.swap m v root)
        done;
        checki "stack after edit trips" words (scratch m);
        let swapped = Sdd.swap m v root in
        checkb "valid" true (Sdd.validate m swapped = Ok ());
        check bigint "same count after the swap" want
          (Sdd.model_count m swapped));
    case "prob is result-typed and budget-aware" (fun () ->
        let q = Ucq.of_string "R(x), S(x,y)" in
        let db = Pdb.complete_rst 2 in
        (match Ctwsdd.prob q db with
        | Ok a ->
          check ratio "matches brute force" (Prob.brute q db)
            a.Prob.probability;
          checkb "not degraded" true (a.Prob.degraded = None)
        | Error e -> Alcotest.failf "unexpected error: %s"
            (Ctwsdd_error.to_string e));
        match Ctwsdd.prob ~budget:(expired ()) q db with
        | Error e -> Alcotest.check error "timeout" Ctwsdd_error.Timeout e
        | Ok _ -> Alcotest.fail "expected timeout");
  ]

let compile_degraded name ?(strategy = `Search) ?domains budget c =
  match Ctwsdd.compile ~budget ~vtree_strategy:strategy ?domains c with
  | Error e -> Alcotest.failf "%s: error %s" name (Ctwsdd_error.to_string e)
  | Ok r -> r

let ladder_suite =
  [
    case "starved search lands on balanced with a valid SDD" (fun () ->
        let c = ladder_circuit () in
        let reference =
          Boolfun.lift (Circuit.to_boolfun c) (Circuit.variables c)
        in
        let budget = Budget.create ~max_nodes:ladder_cap () in
        let r = compile_degraded "search" ~domains:1 budget c in
        checkb "landed on balanced" true (r.Pipeline.strategy = `Balanced);
        Alcotest.(check (option reason)) "degraded" (Some Budget.Node_limit)
          r.Pipeline.degraded;
        checkb "valid" true
          (Sdd.validate r.Pipeline.manager r.Pipeline.root = Ok ());
        checkb "same function" true
          (Boolfun.equal reference
             (Sdd.to_boolfun r.Pipeline.manager r.Pipeline.root));
        (* The returned manager is handed back free of the budget. *)
        checkb "budget released" true
          (Budget.is_unlimited (Sdd.budget r.Pipeline.manager)));
    case "requested treedec degrades to balanced too" (fun () ->
        let c = ladder_circuit () in
        let budget = Budget.create ~max_nodes:ladder_cap () in
        let r = compile_degraded "treedec" ~strategy:`Treedec budget c in
        checkb "landed on balanced" true (r.Pipeline.strategy = `Balanced);
        Alcotest.(check (option reason)) "degraded" (Some Budget.Node_limit)
          r.Pipeline.degraded);
    case "a pinned vtree has no ladder: a trip is the error" (fun () ->
        let c = ladder_circuit () in
        let budget () = Budget.create ~max_nodes:ladder_cap () in
        let vt = fst (Pipeline.treedec_vtree c) in
        (match Ctwsdd.compile ~budget:(budget ()) ~vtree_strategy:(`Pinned vt) c
         with
         | Error e -> Alcotest.check error "node limit" Ctwsdd_error.Node_limit e
         | Ok _ -> Alcotest.fail "expected the pinned vtree to trip");
        (* The same vtree as the [`Treedec] rung steps down instead. *)
        let r = compile_degraded "treedec" ~strategy:`Treedec (budget ()) c in
        checkb "landed on balanced" true (r.Pipeline.strategy = `Balanced);
        match Ctwsdd.compile ~vtree_strategy:(`Pinned vt) c with
        | Ok r ->
          checkb "compiled on the pinned vtree" true
            (Vtree.equal vt (Sdd.vtree r.Pipeline.manager))
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
    case "node-cap degradation is deterministic in domains" (fun () ->
        let c = ladder_circuit () in
        let run domains =
          compile_degraded "search"
            ~domains
            (Budget.create ~max_nodes:ladder_cap ())
            c
        in
        let r1 = run 1 and r3 = run 3 in
        checkb "same rung" true (r1.Pipeline.strategy = r3.Pipeline.strategy);
        Alcotest.(check (option reason)) "same reason" r1.Pipeline.degraded
          r3.Pipeline.degraded;
        checki "same size"
          (Sdd.size r1.Pipeline.manager r1.Pipeline.root)
          (Sdd.size r3.Pipeline.manager r3.Pipeline.root));
    case "budget trips surface as counters and degrade events" (fun () ->
        Obs.set_enabled true;
        Obs.reset ();
        Fun.protect
          ~finally:(fun () ->
            Obs.reset ();
            Obs.set_enabled false)
          (fun () ->
            let c = ladder_circuit () in
            let budget = Budget.create ~max_nodes:ladder_cap () in
            ignore (compile_degraded "search" ~domains:1 budget c);
            checkb "budget.trip.node_limit" true
              (Obs.counter_value "budget.trip.node_limit" > 0);
            (* `Search and `Treedec both stepped down. *)
            checkb "pipeline.degrade" true
              (Obs.counter_value "pipeline.degrade" >= 2)));
  ]

let anytime_suite =
  [
    case "minimize under a cancelled budget returns the start" (fun () ->
        let f = Boolfun.random ~seed:11 (small_vars 6) in
        let vt = Vtree.right_linear (Boolfun.variables f) in
        let b = Budget.create () in
        Budget.cancel_now b;
        let r = Vtree_search.minimize_sdd_size ~budget:b ~domains:1 f vt in
        Alcotest.(check (option reason)) "degraded" (Some Budget.Cancelled)
          r.Vtree_search.degraded;
        checki "no steps" 0 r.Vtree_search.steps;
        checki "start returned" (Vtree.fingerprint vt)
          (Vtree.fingerprint r.Vtree_search.best));
    case "apply_move rolls back the manager on a mid-edit trip" (fun () ->
        let c = ladder_circuit () in
        let m, r0 = Pipeline.compile_exn ~vtree_strategy:`Balanced c in
        let mc = Sdd.model_count m r0 in
        let root = ref r0 in
        let tripped = ref false in
        List.iter
          (fun (mv, _) ->
            if not !tripped then begin
              let fp = Vtree.fingerprint (Sdd.vtree m) in
              let count = Sdd.num_nodes_allocated m in
              Sdd.set_budget m (Budget.create ~max_nodes:count ());
              match Sdd.apply_move m mv !root with
              | fwd ->
                (* This edit fit under the cap; revert, try the next. *)
                Sdd.set_budget m Budget.unlimited;
                root := Sdd.apply_move m (Vtree.inverse_move mv) fwd
              | exception Budget.Exhausted r ->
                tripped := true;
                Sdd.set_budget m Budget.unlimited;
                Alcotest.(check reason) "reason" Budget.Node_limit r;
                checki "vtree restored" fp (Vtree.fingerprint (Sdd.vtree m));
                checki "count restored" count (Sdd.num_nodes_allocated m);
                checkb "valid" true (Sdd.validate m !root = Ok ());
                check bigint "same models" mc (Sdd.model_count m !root);
                checkb "usable" true
                  (Sdd.is_true m (Sdd.disjoin m !root (Sdd.negate m !root)))
            end)
          (Vtree.local_moves_with (Sdd.vtree m));
        checkb "some move tripped mid-edit" true !tripped);
    case "minimize_manager trip leaves the manager valid" (fun () ->
        let c = ladder_circuit () in
        let m, root = Pipeline.compile_exn ~vtree_strategy:`Right c in
        let mc = Sdd.model_count m root in
        let budget =
          Budget.create ~max_nodes:(Sdd.num_nodes_allocated m + 4) ()
        in
        let r = Vtree_search.minimize_manager ~budget m root in
        checkb "tripped" true (r.Vtree_search.degraded <> None);
        checkb "manager valid" true
          (Sdd.validate m r.Vtree_search.best = Ok ());
        check bigint "same models" mc (Sdd.model_count m r.Vtree_search.best);
        (* The manager remains usable after the trip. *)
        checkb "usable" true
          (Sdd.is_true m
             (Sdd.disjoin m r.Vtree_search.best
                (Sdd.negate m r.Vtree_search.best))));
    case "pre-cancelled minimize_manager returns the root untouched"
      (fun () ->
        let c = ladder_circuit () in
        let m, root = Pipeline.compile_exn ~vtree_strategy:`Right c in
        let b = Budget.create () in
        Budget.cancel_now b;
        let r = Vtree_search.minimize_manager ~budget:b m root in
        Alcotest.(check (option reason)) "degraded" (Some Budget.Cancelled)
          r.Vtree_search.degraded;
        checki "no steps" 0 r.Vtree_search.steps;
        checkb "root unchanged" true (Sdd.equal root r.Vtree_search.best));
    case "unbudgeted anytime agrees with the _exn variant" (fun () ->
        let f = Boolfun.random ~seed:12 (small_vars 6) in
        let vt = Vtree.right_linear (Boolfun.variables f) in
        let a = Vtree_search.minimize_sdd_size ~domains:1 f vt in
        checkb "complete" true (a.Vtree_search.degraded = None);
        let v, s = Vtree_search.minimize_sdd_size_exn ~domains:1 f vt in
        checki "same vtree" (Vtree.fingerprint v)
          (Vtree.fingerprint a.Vtree_search.best);
        checki "same score" s a.Vtree_search.score);
    case "node-capped minimize is deterministic in domains" (fun () ->
        let f = Boolfun.random ~seed:13 (small_vars 6) in
        let vt = Vtree.right_linear (Boolfun.variables f) in
        let run domains =
          Vtree_search.minimize_sdd_size
            ~budget:(Budget.create ~max_nodes:30 ())
            ~domains f vt
        in
        let r1 = run 1 and r3 = run 3 in
        checkb "capped run degraded" true (r1.Vtree_search.degraded <> None);
        Alcotest.(check (option reason)) "same reason"
          r1.Vtree_search.degraded r3.Vtree_search.degraded;
        checki "same best" (Vtree.fingerprint r1.Vtree_search.best)
          (Vtree.fingerprint r3.Vtree_search.best);
        checki "same score" r1.Vtree_search.score r3.Vtree_search.score;
        checki "same steps" r1.Vtree_search.steps r3.Vtree_search.steps);
    case "score-cache eviction preserves the search result" (fun () ->
        Obs.set_enabled true;
        Obs.reset ();
        Fun.protect
          ~finally:(fun () ->
            Obs.reset ();
            Obs.set_enabled false)
          (fun () ->
            let f = Boolfun.random ~seed:14 (small_vars 6) in
            let vt = Vtree.right_linear (Boolfun.variables f) in
            let tiny =
              Vtree_search.minimize_sdd_size ~cache_cap:2 ~domains:1 f vt
            in
            checkb "evicted" true
              (Obs.counter_value "vtree_search.score_cache_evictions" > 0);
            let full = Vtree_search.minimize_sdd_size ~domains:1 f vt in
            checki "same best" (Vtree.fingerprint full.Vtree_search.best)
              (Vtree.fingerprint tiny.Vtree_search.best);
            checki "same score" full.Vtree_search.score
              tiny.Vtree_search.score));
    case "exact_bb honours a cancelled global budget" (fun () ->
        let g = Ugraph.random_gnp ~seed:3 30 0.4 in
        let b = Budget.create () in
        Budget.cancel_now b;
        Alcotest.(check (option int)) "aborts" None
          (Treewidth.exact_bb ~budget:b g);
        Alcotest.(check (option int)) "sane when unlimited" (Some 1)
          (Treewidth.exact_bb (Ugraph.path_graph 6)));
  ]

let suites =
  [
    ("budget", budget_suite);
    ("budget-errors", error_suite);
    ("budget-ladder", ladder_suite);
    ("budget-anytime", anytime_suite);
  ]
