open Test_util

let circuit_suite =
  [
    case "bucket elimination counts circuits like their truth tables"
      (fun () ->
        (* Negations, constants, repeated input names and wide gates
           that the oracle splits into chains; every weighted count
           against a sum over all assignments in native integers (at
           most 8 variables of weight k/8). *)
        let of_gates =
          Circuit.of_gates
            [| Circuit.Var "a"; Circuit.Var "b"; Circuit.Var "a"; Circuit.Const true;
               Circuit.And [ 0; 1; 3 ]; Circuit.Not 2; Circuit.Or [ 4; 5; 1 ] |]
            6
        in
        List.iteri
          (fun seed c ->
            let vars = Circuit.variables c in
            let weight v = (Hashtbl.hash (seed, v) mod 9) in
            let rec sum acc = function
              | [] -> if Circuit.eval c acc then 1 else 0
              | v :: vs ->
                ((8 - weight v) * sum (Boolfun.Smap.add v false acc) vs)
                + (weight v * sum (Boolfun.Smap.add v true acc) vs)
            in
            checks (Circuit.to_string c)
              (string_of_int (sum Boolfun.Smap.empty vars))
              (Bucket_oracle.weighted_count c ~weight))
          (of_gates
          :: List.map Circuit.of_string
               [
                 "(or (and a b c d) (and (not a) e) (or b c d e f))";
                 "(and (or x true) (not (and y false)) (or (not x) y z))";
                 "false";
                 "(not x)";
               ]
          @ List.init 40 (fun seed ->
                Generators.random_formula ~seed ~vars:8 ~depth:6)));
    case "builder basics" (fun () ->
        let b = Circuit.Builder.create () in
        let x = Circuit.Builder.var b "x" in
        let y = Circuit.Builder.var b "y" in
        let g = Circuit.Builder.and_ b [ x; Circuit.Builder.not_ b y ] in
        let c = Circuit.Builder.build b g in
        Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Circuit.variables c);
        checkb "eval (1,0)" true
          (Circuit.eval c (Boolfun.assignment_of_list [ ("x", true); ("y", false) ]));
        checkb "eval (1,1)" false
          (Circuit.eval c (Boolfun.assignment_of_list [ ("x", true); ("y", true) ])));
    case "hash consing shares gates" (fun () ->
        let b = Circuit.Builder.create () in
        let x = Circuit.Builder.var b "x" in
        let x' = Circuit.Builder.var b "x" in
        checki "same id" x x';
        let g1 = Circuit.Builder.and_ b [ x; Circuit.Builder.var b "y" ] in
        let g2 = Circuit.Builder.and_ b [ Circuit.Builder.var b "y"; x ] in
        checki "commutative sharing" g1 g2);
    case "singleton and empty gates collapse" (fun () ->
        let b = Circuit.Builder.create () in
        let x = Circuit.Builder.var b "x" in
        checki "and [x] = x" x (Circuit.Builder.and_ b [ x ]);
        let t = Circuit.Builder.and_ b [] in
        let c = Circuit.Builder.build b t in
        check boolfun "and [] = true" Boolfun.tt (Circuit.to_boolfun c));
    case "build garbage-collects" (fun () ->
        let b = Circuit.Builder.create () in
        let x = Circuit.Builder.var b "x" in
        let _dead = Circuit.Builder.and_ b [ x; Circuit.Builder.var b "y" ] in
        let c = Circuit.Builder.build b x in
        checki "only x survives" 1 (Circuit.size c));
    case "to_boolfun on a formula" (fun () ->
        let c = Circuit.of_string "(or (and x y) (and (not x) z))" in
        let f = Circuit.to_boolfun c in
        checki "models" 4 (Boolfun.count_models_int f));
    case "text roundtrip" (fun () ->
        let s = "(or (and x (not y)) (and (not x) y))" in
        let c = Circuit.of_string s in
        let c' = Circuit.of_string (Circuit.to_string c) in
        checkb "equivalent" true (Circuit.equivalent c c'));
    case "parse errors" (fun () ->
        List.iter
          (fun s ->
            match Circuit.of_string s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "expected parse failure on %S" s)
          [ ""; "(and x"; "(foo x y)"; "(not x y)"; ")"; "(and x) y" ]);
    case "nnf conversion" (fun () ->
        let c = Circuit.of_string "(not (and x (or y (not z))))" in
        let n = Circuit.to_nnf c in
        checkb "is nnf" true (Circuit.is_nnf n);
        checkb "equivalent" true (Circuit.equivalent c n);
        checkb "original not nnf" false (Circuit.is_nnf c));
    case "simplify constant propagation" (fun () ->
        let c = Circuit.of_string "(or (and x false) (and y true))" in
        let s = Circuit.simplify c in
        checkb "equivalent" true (Circuit.equivalent c s);
        checkb "smaller" true (Circuit.size s < Circuit.size c));
    case "of_cnf / of_dnf" (fun () ->
        let cnf = Circuit.of_cnf [ [ ("x", true); ("y", false) ]; [ ("y", true) ] ] in
        let f = Circuit.to_boolfun cnf in
        checki "cnf models" 1 (Boolfun.count_models_int f);
        let dnf = Circuit.of_dnf [ [ ("x", true); ("y", false) ]; [ ("y", true) ] ] in
        checki "dnf models" 3 (Boolfun.count_models_int (Circuit.to_boolfun dnf)));
    case "underlying graph of a wire" (fun () ->
        let c = Circuit.of_string "(and x y)" in
        let g = Circuit.underlying_graph c in
        checki "3 gates" 3 (Ugraph.num_vertices g);
        checki "2 wires" 2 (Ugraph.num_edges g));
    case "treewidth of tree-shaped formula" (fun () ->
        let c = Circuit.of_string "(or (and x y) (and z w))" in
        checki "tw" 1 (Circuit.treewidth_exact c));
    case "rename_vars" (fun () ->
        let c = Circuit.of_string "(and x y)" in
        let c' = Circuit.rename_vars c [ ("x", "a") ] in
        Alcotest.(check (list string)) "vars" [ "a"; "y" ] (Circuit.variables c'));
    qtest "to_nnf preserves semantics" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:5 in
        Circuit.equivalent c (Circuit.to_nnf c));
    qtest "simplify preserves semantics" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:5 in
        Circuit.equivalent c (Circuit.simplify c));
    qtest "eval agrees with to_boolfun" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:4 in
        let f = Circuit.to_boolfun c in
        List.for_all
          (fun a -> Circuit.eval c a = Boolfun.eval f a)
          (Boolfun.all_assignments (Circuit.variables c)));
  ]

let generators_suite =
  [
    case "chain implication circuits bounded width" (fun () ->
        let c = Generators.chain_implications 6 in
        checkb "equiv to family" true
          (Boolfun.equal (Circuit.to_boolfun c) (Families.chain_implications 6));
        let w, td = Circuit.treewidth_upper c in
        checkb "valid decomposition" true (Treedec.is_valid (Circuit.underlying_graph c) td);
        checkb "small width" true (w <= 3));
    case "parity chain equals parity" (fun () ->
        let c = Generators.parity_chain 5 in
        checkb "equiv" true (Boolfun.equal (Circuit.to_boolfun c) (Families.parity 5)));
    case "h circuits match h functions" (fun () ->
        checkb "h0" true
          (Boolfun.equal
             (Circuit.to_boolfun (Generators.h0_circuit 2))
             (Families.h0 ~k:2 2));
        checkb "h1" true
          (Boolfun.equal
             (Circuit.to_boolfun (Generators.hi_circuit ~i:1 2))
             (Families.hi ~k:2 ~i:1 2));
        checkb "hk" true
          (Boolfun.equal
             (Circuit.to_boolfun (Generators.hk_circuit ~k:2 2))
             (Families.hk ~k:2 2)));
    case "disjointness circuit" (fun () ->
        checkb "equiv" true
          (Boolfun.equal
             (Circuit.to_boolfun (Generators.disjointness_circuit 3))
             (Families.disjointness 3)));
    case "isa circuit matches isa semantics" (fun () ->
        checkb "isa5" true
          (Boolfun.equal (Circuit.to_boolfun (Generators.isa_circuit 5)) (Families.isa 5)));
    case "random window circuits have bounded treewidth" (fun () ->
        let c = Generators.random_window ~seed:3 ~window:3 ~vars:4 ~gates:10 in
        let w, _ = Circuit.treewidth_upper c in
        checkb "w <= window + 1" true (w <= 4));
    case "ladder is small-treewidth but grows" (fun () ->
        let c = Generators.ladder ~tracks:2 4 in
        let w, _ = Circuit.treewidth_upper c in
        checkb "bounded" true (w <= 8);
        checkb "has vars" true (Circuit.num_vars c >= 8));
  ]

let tseitin_suite =
  [
    case "projected models agree" (fun () ->
        let c = Circuit.of_string "(or (and x y) (not z))" in
        let cnf = Tseitin.transform c in
        checkb "agree" true (Tseitin.projected_models_agree c cnf));
    case "gate vars are fresh" (fun () ->
        let c = Circuit.of_string "(and x y)" in
        let cnf = Tseitin.transform c in
        checkb "disjoint" true
          (List.for_all (fun g -> not (List.mem g (Circuit.variables c))) cnf.Tseitin.gate_vars));
    qtest "tseitin projection on random formulas" QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:4 in
        Tseitin.projected_models_agree c (Tseitin.transform c));
  ]

let pi_suite =
  [
    case "prime implicants of x&y + x&~y" (fun () ->
        (* f = x: single prime implicant [x]. *)
        let f =
          Boolfun.or_
            (Boolfun.and_ (Boolfun.var "x") (Boolfun.var "y"))
            (Boolfun.and_ (Boolfun.var "x") (Boolfun.not_ (Boolfun.var "y")))
        in
        Alcotest.(check (list (list (pair string bool))))
          "pi" [ [ ("x", true) ] ] (Prime_implicants.of_boolfun f));
    case "prime implicants of xor" (fun () ->
        let f = Boolfun.xor_ (Boolfun.var "x") (Boolfun.var "y") in
        checki "two PIs" 2 (List.length (Prime_implicants.of_boolfun f)));
    case "majority3 has three PIs" (fun () ->
        let pis = Prime_implicants.of_boolfun (Families.majority 3) in
        checki "count" 3 (List.length pis);
        checkb "each size 2" true (List.for_all (fun t -> List.length t = 2) pis));
    qtest "PIs are prime and cover" QCheck2.Gen.(int_range 0 50) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let pis = Prime_implicants.of_boolfun f in
        Prime_implicants.covers f pis
        && List.for_all (Prime_implicants.is_prime f) pis);
  ]

let suites =
  [
    ("circuit", circuit_suite);
    ("generators", generators_suite);
    ("tseitin", tseitin_suite);
    ("prime_implicants", pi_suite);
  ]
