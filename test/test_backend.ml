(* The backend-agnostic compilation interface: SDD / OBDD / d-DNNF
   targets agree on every count and probability, the OBDD
   specialization matches a truth-table oracle level for level, the
   non-canonical d-DNNF manager keeps its invariants, and [`Auto]
   resolution is deterministic and audited. *)

open Test_util

let tags : (string * Backend.tag) list =
  [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf); ("auto", `Auto) ]

let count_with_backend ?budget ?domains backend c =
  let m, node = Pipeline.compile_exn ?budget ?domains ~backend c in
  Sdd.model_count m node

(* The brute oracle: tabulate the circuit (fine at <= 8 variables). *)
let brute_count c = Boolfun.count_models (Circuit.to_boolfun c)

let small_circuits =
  [
    Generators.chain_implications 8;
    Generators.parity_chain 7;
    Generators.band_cnf ~width:3 8;
    Generators.random_window ~seed:11 ~window:3 ~vars:7 ~gates:20;
    Generators.random_window ~seed:12 ~window:4 ~vars:8 ~gates:24;
    Generators.random_formula ~seed:13 ~vars:6 ~depth:4;
    Generators.random_formula ~seed:14 ~vars:8 ~depth:5;
    Circuit.of_string "(or (and x y) (not z))";
  ]

(* E18/E19-style structured families, past tabulation comfort: the
   backends must agree with each other (closed-form counts where
   known). *)
let structured_circuits =
  [
    ("chain-30", Generators.chain_implications 30, Some (Bigint.of_int 31));
    ("parity-24", Generators.parity_chain 24, Some (Bigint.pow2 23));
    ("band3-20", Generators.band_cnf ~width:3 20, None);
    ( "window-16",
      Generators.random_window ~seed:5 ~window:4 ~vars:16 ~gates:48,
      None );
  ]

let agreement_suite =
  [
    case "all backends match the brute oracle (random <= 8 vars)" (fun () ->
        List.iteri
          (fun i c ->
            let expected = brute_count c in
            List.iter
              (fun (name, b) ->
                check bigint
                  (Printf.sprintf "circuit %d via %s" i name)
                  expected (count_with_backend b c))
              tags)
          small_circuits);
    case "all backends agree on structured families" (fun () ->
        List.iter
          (fun (fam, c, closed) ->
            let reference = count_with_backend `Sdd c in
            Option.iter
              (fun expected ->
                check bigint (fam ^ " closed form") expected reference)
              closed;
            List.iter
              (fun (name, b) ->
                check bigint
                  (Printf.sprintf "%s via %s" fam name)
                  reference (count_with_backend b c))
              tags)
          structured_circuits);
    case "probabilities agree across backends" (fun () ->
        let weights v = Ratio.of_ints 1 (1 + (String.length v mod 3)) in
        List.iteri
          (fun i c ->
            let m0, n0 = Pipeline.compile_exn ~backend:`Sdd c in
            let expected = Sdd.probability_ratio m0 n0 weights in
            List.iter
              (fun (name, b) ->
                let m, node = Pipeline.compile_exn ~backend:b c in
                check ratio
                  (Printf.sprintf "circuit %d via %s" i name)
                  expected
                  (Sdd.probability_ratio m node weights))
              tags)
          [
            Generators.band_cnf ~width:3 9;
            Generators.random_window ~seed:21 ~window:3 ~vars:8 ~gates:20;
          ]);
    case "budget-tripped compiles stay exact (anytime agreement)" (fun () ->
        let c = Generators.chain_implications 24 in
        let expected = Bigint.of_int 25 in
        List.iter
          (fun (name, b) ->
            let budget = Budget.create ~max_nodes:200 () in
            match Pipeline.compile ~budget ~backend:b c with
            | Ok r ->
              (* Degraded or not, the compiled form is a valid
                 representation of the input: the count is exact. *)
              check bigint
                (name ^ " anytime count")
                expected
                (Sdd.model_count r.Pipeline.manager r.Pipeline.root)
            | Error e ->
              (match e with
               | Ctwsdd_error.Node_limit -> ()
               | e -> Alcotest.fail ("unexpected error " ^ Ctwsdd_error.to_string e)))
          tags);
    case "cnf pipeline counts agree across backends" (fun () ->
        (* Two disjoint 11-variable implication chains, 12 models each
           (n-clause chains over n+1 variables): 12 * 12 models. *)
        let clauses =
          List.init 10 (fun i -> [ -(i + 1); i + 2 ])
          @ List.init 10 (fun i -> [ -(i + 12); i + 13 ])
        in
        let d = { Dimacs.num_vars = 22; clauses } in
        let expected = Bigint.of_int 144 in
        List.iter
          (fun (name, b) ->
            match Pipeline.compile_cnf ~backend:b d with
            | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            | Ok r -> check bigint (name ^ " count") expected r.Pipeline.count)
          tags);
  ]

let obdd_suite =
  [
    qtest "Obdd width and size match the Boolfun oracle"
      QCheck2.Gen.(triple (int_range 1 7) (int_range 0 500) (int_range 0 500))
      (fun (n, seed, order_seed) ->
        (* Random functions on at most 7 variables under random orders,
           compiled by the ITE apply from a DNF circuit, against the
           Sieling–Wegener count on the truth table. *)
        let f = Boolfun.random ~seed (small_vars n) in
        let order =
          Vtree.leaf_order (Vtree.random ~seed:order_seed (small_vars n))
        in
        let m = Sdd.Obdd.manager order in
        let node = Sdd.compile_circuit m (Circuit.of_boolfun_dnf f) in
        let oracle = Boolfun.obdd_profile f order in
        Sdd.Obdd.level_profile m node = oracle
        && Sdd.Obdd.width m node
           = List.fold_left (fun acc (_, c) -> max acc c) 0 oracle
        && Sdd.Obdd.size m node
           = List.fold_left (fun acc (_, c) -> acc + c) 0 oracle);
    case "Obdd level profile covers every level" (fun () ->
        let c = Generators.parity_chain 6 in
        let m = Sdd.Obdd.manager (Circuit.variables c) in
        let node = Sdd.compile_circuit m c in
        let profile = Sdd.Obdd.level_profile m node in
        checki "levels" (List.length (Circuit.variables c))
          (List.length profile);
        checkb "width is the profile max" true
          (Sdd.Obdd.width m node
          = List.fold_left (fun acc (_, n) -> max acc n) 0 profile));
    case "minimize is rejected off the sdd backend" (fun () ->
        let c = Generators.chain_implications 6 in
        List.iter
          (fun b ->
            match Pipeline.compile ~backend:b ~minimize:true c with
            | Error (Ctwsdd_error.Invalid_input msg) ->
              checkb "mentions minimize" true
                (String.length msg >= 8 && String.sub msg 0 8 = "minimize")
            | Ok _ -> Alcotest.fail "minimize accepted off sdd"
            | Error e -> Alcotest.fail (Ctwsdd_error.to_string e))
          [ `Obdd; `Dnnf ]);
  ]

let dnnf_suite =
  [
    case "dnnf managers are marked non-canonical" (fun () ->
        let vt = Vtree.balanced (small_vars 4) in
        checkb "dnnf" false (Sdd.canonical (Sdd.dnnf_manager vt));
        checkb "sdd" true (Sdd.canonical (Sdd.manager vt)));
    case "dynamic edits require a canonical manager" (fun () ->
        let c = Generators.chain_implications 6 in
        let m = Sdd.dnnf_manager (Vtree.balanced (Circuit.variables c)) in
        let root = Sdd.compile_circuit m c in
        match Vtree.local_moves_with (Sdd.vtree m) with
        | [] -> Alcotest.fail "no local moves on a 6-leaf vtree"
        | (mv, _) :: _ ->
          Alcotest.check_raises "apply_move"
            (Invalid_argument
               "Sdd.apply_move: dynamic edits require a canonical manager")
            (fun () -> ignore (Sdd.apply_move m mv root)));
  ]

let auto_suite =
  [
    case "explicit tags resolve to themselves" (fun () ->
        let c = Generators.chain_implications 6 in
        List.iter
          (fun (name, b) ->
            let chosen, reason = Backend.resolve_circuit b c in
            checks (name ^ " reason") "requested" reason;
            checkb (name ^ " chosen") true ((chosen :> Backend.tag) = b))
          [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf) ]);
    case "auto picks obdd on path-shaped circuits, deterministically"
      (fun () ->
        let c = Generators.chain_implications 20 in
        let chosen, _ = Backend.resolve_circuit `Auto c in
        checkb "path -> obdd" true (chosen = `Obdd);
        (* Determinism across repeated resolutions and across the
           [`Search] strategy's 1-vs-N domain parallelism. *)
        List.iter
          (fun domains ->
            match
              Pipeline.compile ~backend:`Auto ~vtree_strategy:`Search ~domains
                c
            with
            | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
            | Ok r ->
              checkb
                (Printf.sprintf "domains %d" domains)
                true
                (r.Pipeline.backend = chosen))
          [ 1; 4 ]);
    case "auto with counting_only picks dnnf" (fun () ->
        let c = Generators.band_cnf ~width:3 10 in
        let chosen, _ =
          Backend.resolve_circuit ~counting_only:true `Auto c
        in
        checkb "counting -> dnnf" true (chosen = `Dnnf));
    case "auto on the cnf pipeline is counting-only" (fun () ->
        let d =
          { Dimacs.num_vars = 5; clauses = [ [ 1; 2 ]; [ -2; 3 ]; [ 4; -5 ] ] }
        in
        match Pipeline.compile_cnf ~backend:`Auto d with
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
        | Ok r -> checkb "dnnf" true (r.Pipeline.cnf_backend = `Dnnf));
    case "selection is recorded for the explain surface" (fun () ->
        let c = Generators.chain_implications 10 in
        ignore (Pipeline.compile_exn ~backend:`Auto c);
        match Backend.last_selection () with
        | None -> Alcotest.fail "no selection recorded"
        | Some (requested, chosen, reason) ->
          checks "requested" "auto" requested;
          checks "chosen" "obdd" chosen;
          checkb "reason" true (reason <> ""));
    case "unknown backend names share the normalized message" (fun () ->
        (match Backend.of_string "bdds" with
         | Error (Ctwsdd_error.Invalid_input msg) ->
           checks "message"
             "unknown backend \"bdds\" (expected sdd, obdd, dnnf or auto)" msg
         | _ -> Alcotest.fail "junk accepted");
        List.iter
          (fun s ->
            match Backend.of_string s with
            | Ok b -> checks s s (Backend.name b)
            | Error _ -> Alcotest.fail ("rejected " ^ s))
          [ "sdd"; "obdd"; "dnnf"; "auto" ]);
  ]

let query_suite =
  [
    case "prob agrees across backends and auto picks by safety" (fun () ->
        let db =
          Pdb.make
            [
              (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 2);
              (Pdb.tuple "R" [ "2" ], Ratio.of_ints 1 3);
              (Pdb.tuple "S" [ "1"; "1" ], Ratio.of_ints 1 4);
              (Pdb.tuple "S" [ "2"; "1" ], Ratio.of_ints 2 3);
              (Pdb.tuple "T" [ "1" ], Ratio.of_ints 3 4);
            ]
        in
        let q_rs = Ucq.of_string "R(x), S(x,y)" in
        let expected = Prob.brute q_rs db in
        List.iter
          (fun (name, b) ->
            match Prob.via ~backend:b q_rs db with
            | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            | Ok a -> check ratio ("via " ^ name) expected a.Prob.probability)
          tags;
        (* R(x), S(x,y) is hierarchical: the auto route must take the
           OBDD on the hierarchical order. *)
        (match Prob.via ~backend:`Auto q_rs db with
         | Ok a -> checkb "hierarchical -> obdd" true (a.Prob.backend = `Obdd)
         | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
        (* R(x), S(x,y), T(y) is not hierarchical but inversion-free:
           auto stays on the canonical SDD. *)
        let q_rst = Ucq.of_string "R(x), S(x,y), T(y)" in
        match Prob.via ~backend:`Auto q_rst db with
        | Ok a -> checkb "non-hierarchical -> sdd" true (a.Prob.backend = `Sdd)
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
    case "model_count facade counts through the dnnf fast path" (fun () ->
        let c = Generators.chain_implications 12 in
        (match Ctwsdd.model_count c with
         | Ok n -> check bigint "count" (Bigint.of_int 13) n
         | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
        (match Backend.last_selection () with
         | Some (_, chosen, _) -> checks "chosen" "dnnf" chosen
         | None -> Alcotest.fail "no selection");
        check bigint "constant true" Bigint.one
          (Ctwsdd.model_count_exn (Circuit.of_string "(or true false)"));
        check bigint "constant false" Bigint.zero
          (Ctwsdd.model_count_exn (Circuit.of_string "(and true false)")));
  ]

let suites =
  [
    ("backend agreement", agreement_suite);
    ("backend obdd", obdd_suite);
    ("backend dnnf", dnnf_suite);
    ("backend auto", auto_suite);
    ("backend query", query_suite);
  ]
