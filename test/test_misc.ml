(* Coverage for small corners: printers, decoders on malformed input,
   and API paths not exercised elsewhere. *)

open Test_util

let misc_suite =
  [
    case "decode rejects malformed encodings" (fun () ->
        (* A graph with no stars is not the image of any circuit. *)
        let g = Ugraph.path_graph 4 in
        checkb "no gates" true
          (Ctw.decode { Ctw.graph = g; loops = [ 0 ]; names = [ "x" ] } = None));
    case "decode rejects the wrong output count" (fun () ->
        let c = Circuit.of_string "(and x y)" in
        let e = Ctw.encode c in
        (* Two loops on gates -> ambiguous output. *)
        let bad = { e with Ctw.loops = 0 :: 1 :: e.Ctw.loops } in
        checkb "ambiguous" true (Ctw.decode bad = None));
    case "structuring_nodes returns one node per AND" (fun () ->
        let c = Circuit.of_string "(or (and x y) (and (not x) (not y)))" in
        let vt = Vtree.right_linear [ "x"; "y" ] in
        checki "two ANDs" 2 (List.length (Snnf.structuring_nodes c vt)));
    case "printers do not raise" (fun () ->
        let g = Ugraph.cycle_graph 4 in
        let td = Treewidth.decomposition g in
        let nice = Nice.of_treedec td in
        let _ = Format.asprintf "%a" Ugraph.pp g in
        let _ = Format.asprintf "%a" Treedec.pp td in
        let _ = Format.asprintf "%a" Nice.pp nice in
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let node = Sdd.conjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" false) in
        let _ = Format.asprintf "%a" (Sdd.pp m) node in
        let _ = Format.asprintf "%a" Boolfun.pp (Families.majority 3) in
        let _ = Format.asprintf "%a" Ucq.pp (Ucq.of_string "R(#1,x), x != y, S(y)") in
        ());
    case "nullary atoms print and parse" (fun () ->
        let q = Ucq.of_string "E()" in
        checks "print" "E()" (Ucq.to_string q);
        checkb "holds with fact" true (Ucq.holds q [ Pdb.tuple "E" [] ]);
        checkb "fails without" false (Ucq.holds q [ Pdb.tuple "F" [] ]));
    case "prime implicants of constants" (fun () ->
        checki "tt has the empty term" 1
          (List.length (Prime_implicants.of_boolfun (Boolfun.const [ "x" ] true)));
        checki "ff has none" 0
          (List.length (Prime_implicants.of_boolfun (Boolfun.const [ "x" ] false))));
    case "bdd any_model on true" (fun () ->
        let m = Sdd.Obdd.manager [ "x" ] in
        Alcotest.(check (option (list (pair string bool))))
          "a total model" (Some [ ("x", false) ]) (Sdd.any_model m (Sdd.true_ m)));
    case "vtree enumerate covers fw_min witness" (fun () ->
        (* the witness returned by fw_min is among the enumerated trees *)
        let f = Families.implication in
        let _, vt = Factor_width.fw_min f in
        checkb "witness valid" true (Vtree.variables vt = [ "x"; "y" ]));
    case "empty clause CNF is unsatisfiable" (fun () ->
        let c = Circuit.of_cnf [ [] ] in
        check boolfun "ff" Boolfun.ff (Circuit.to_boolfun c));
    case "ratio sum/product" (fun () ->
        check ratio "sum" (Ratio.of_ints 5 6)
          (Ratio.sum [ Ratio.of_ints 1 2; Ratio.of_ints 1 3 ]);
        check ratio "product" (Ratio.of_ints 1 6)
          (Ratio.product [ Ratio.of_ints 1 2; Ratio.of_ints 1 3 ]));
    qtest "sdd node_count <= size" QCheck2.Gen.(int_range 0 20) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let m = Sdd.manager (Vtree.balanced (small_vars 4)) in
        let node = Compile.sdd_of_boolfun m f in
        Sdd.node_count m node * 2 <= Sdd.size m node + 2);
    qtest "isa explicit width <= size" QCheck2.Gen.(int_range 0 1) (fun _ ->
        let t = Isa_explicit.build 5 in
        Isa_explicit.width t <= Isa_explicit.size t
        && Isa_explicit.node_count t <= Isa_explicit.size t);
  ]

let suites = [ ("misc", misc_suite) ]
