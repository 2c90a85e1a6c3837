(* The circuit-native pipeline: Lemma 1 vtrees of the gate graph's
   tree decomposition, strategy selection, and truth-table-free query
   evaluation.

   The headline acceptance test compiles a 42-variable UCQ lineage —
   far beyond the Boolfun tabulation limit — and checks the probability
   against a closed form, and against brute force on shrunk instances. *)

open Test_util

let q_rs = Ucq.of_string "R(x), S(x,y)"
let q_rst = Ucq.of_string "R(x), S(x,y), T(y)"

let strategies : (string * Pipeline.vtree_strategy) list =
  [
    ("right", `Right);
    ("balanced", `Balanced);
    ("treedec", `Treedec);
    ("search", `Search);
  ]

let pipeline_suite =
  [
    case "every strategy compiles to the same function" (fun () ->
        List.iter
          (fun c ->
            let reference =
              Boolfun.lift (Circuit.to_boolfun c) (Circuit.variables c)
            in
            let pinned =
              ("pinned left", `Pinned (Vtree.left_linear (Circuit.variables c)))
            in
            List.iter
              (fun (name, s) ->
                List.iter
                  (fun minimize ->
                    let m, node =
                      Pipeline.compile_exn ~vtree_strategy:s ~minimize c
                    in
                    checkb
                      (Printf.sprintf "%s minimize:%b" name minimize)
                      true
                      (Boolfun.equal reference (Sdd.to_boolfun m node)))
                  [ false; true ])
              (pinned :: strategies))
          [
            Generators.band_cnf ~width:3 8;
            Generators.chain_implications 9;
            Generators.random_formula ~seed:5 ~vars:7 ~depth:4;
          ]);
    case "treedec vtree is Lemma 1 on the direct decomposition" (fun () ->
        List.iter
          (fun c ->
            let w, td = Circuit.treewidth_upper c in
            let vt, w' = Pipeline.treedec_vtree c in
            checkb "vtree" true
              (Vtree.equal vt (Lemma1.vtree_of_decomposition c td));
            checki "width" w w';
            let size strategy =
              match Pipeline.compile ~vtree_strategy:strategy c with
              | Ok r -> Sdd.size r.Pipeline.manager r.Pipeline.root
              | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
            in
            checki "sdd size"
              (size (`Pinned (fst (Lemma1.vtree_of_circuit c))))
              (size `Treedec))
          [
            Generators.band_cnf ~width:3 10;
            Generators.chain_implications 12;
            Generators.parity_chain 9;
            Generators.ladder ~tracks:3 6;
            Generators.random_formula ~seed:2 ~vars:8 ~depth:5;
            Lineage.circuit q_rs (Pdb.complete_rst 4);
            Lineage.circuit q_rst (Pdb.complete_rst 3);
            Lineage.circuit (Ucq.of_string "R(x), S(x,y) | S(x,y), T(y)")
              (Pdb.complete_rst 3);
          ]);
    case "constant circuit is rejected" (fun () ->
        let c = Circuit.of_string "(and true false)" in
        Alcotest.check_raises "no variables"
          (Invalid_argument "Pipeline.compile: circuit has no variables")
          (fun () -> ignore (Pipeline.compile_exn c)));
  ]

(* P(∃x∃y R(x) ∧ S(x,y)) on complete_rst n with all probabilities 1/2:
   the witnesses for distinct x are independent, so
     P = 1 − ∏ᵢ (1 − ½·(1 − 2⁻ⁿ)) = 1 − ((2ⁿ+1) / 2ⁿ⁺¹)ⁿ. *)
let closed_form_rs n =
  let term =
    Ratio.make
      (Bigint.add (Bigint.pow2 n) Bigint.one)
      (Bigint.pow2 (n + 1))
  in
  let rec pow r k = if k = 0 then Ratio.one else Ratio.mul r (pow r (k - 1)) in
  Ratio.sub Ratio.one (pow term n)

let query_suite =
  [
    case "42-variable lineage evaluates exactly (closed form)" (fun () ->
        let db = Pdb.complete_rst 6 in
        let c = Lineage.circuit q_rs db in
        checki "beyond tabulation limit" 42
          (List.length (Circuit.variables c));
        let expected = closed_form_rs 6 in
        let p, size = Prob.via_exn q_rs db in
        check ratio "sdd" expected p;
        checkb "nontrivial SDD" true (size > 0);
        let p_min, _ = Prob.via_exn ~minimize:true q_rs db in
        check ratio "sdd minimized" expected p_min;
        let p_auto, _ = Prob.via_exn ~backend:`Auto q_rs db in
        check ratio "auto" expected p_auto);
    case "pipeline default agrees with brute force on shrinks" (fun () ->
        List.iter
          (fun n ->
            let db = Pdb.complete_rst n in
            List.iter
              (fun q ->
                let expected = Prob.brute q db in
                let p, _ = Prob.via_exn q db in
                check ratio
                  (Printf.sprintf "n=%d" n)
                  expected p)
              [ q_rs; q_rst ])
          [ 2; 3 ]);
    case "35-variable non-hierarchical query: SDD and OBDD routes agree"
      (fun () ->
        let db = Pdb.complete_rst 5 in
        let c = Lineage.circuit q_rst db in
        checki "beyond tabulation limit" 35
          (List.length (Circuit.variables c));
        let p_obdd, _ = Prob.via_obdd_exn q_rst db in
        let p_sdd, _ = Prob.via_exn q_rst db in
        check ratio "independent compilers agree" p_obdd p_sdd);
    case "constant lineage short-circuits" (fun () ->
        let empty = Pdb.make [] in
        let p, size = Prob.via_exn q_rs empty in
        check ratio "false lineage" Ratio.zero p;
        checki "no manager built" 0 size);
  ]

let suites =
  [ ("pipeline", pipeline_suite); ("pipeline-query", query_suite) ]
