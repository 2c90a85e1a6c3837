open Test_util

let q_rs = Ucq.of_string "R(x), S(x,y)"
let q_rst = Ucq.of_string "R(x), S(x,y), T(y)"

let tiny_db =
  Pdb.make
    [
      (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 2);
      (Pdb.tuple "R" [ "2" ], Ratio.of_ints 1 3);
      (Pdb.tuple "S" [ "1"; "1" ], Ratio.of_ints 1 4);
      (Pdb.tuple "S" [ "2"; "1" ], Ratio.of_ints 2 3);
      (Pdb.tuple "T" [ "1" ], Ratio.of_ints 3 4);
    ]

let ucq_suite =
  [
    case "parse and print roundtrip" (fun () ->
        List.iter
          (fun s ->
            let q = Ucq.of_string s in
            let q' = Ucq.of_string (Ucq.to_string q) in
            checkb s true (q = q'))
          [
            "R(x), S(x,y), T(y)";
            "R(x) | S(x,y)";
            "R(x), x != y, S(y,x)";
            "R(#1,x)";
            "E()";
          ]);
    case "parse errors" (fun () ->
        List.iter
          (fun s ->
            match Ucq.of_string s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "expected parse failure on %S" s)
          [ ""; "R(x"; ","; "x != y" ]);
    case "relations and arities" (fun () ->
        Alcotest.(check (list (pair string int)))
          "rels" [ ("R", 1); ("S", 2); ("T", 1) ] (Ucq.relations q_rst);
        Alcotest.check_raises "inconsistent arity"
          (Invalid_argument "Ucq.relations: R used with arities 1 and 2")
          (fun () -> ignore (Ucq.relations (Ucq.of_string "R(x), R(x,y)"))));
    case "holds semantics" (fun () ->
        let facts = [ Pdb.tuple "R" [ "1" ]; Pdb.tuple "S" [ "1"; "2" ] ] in
        checkb "R,S holds" true (Ucq.holds q_rs facts);
        checkb "R,S,T fails" false (Ucq.holds q_rst facts);
        checkb "needs join" false
          (Ucq.holds q_rs [ Pdb.tuple "R" [ "1" ]; Pdb.tuple "S" [ "2"; "2" ] ]));
    case "inequalities in holds" (fun () ->
        let q = Ucq.of_string "S(x,y), x != y" in
        checkb "S(1,2)" true (Ucq.holds q [ Pdb.tuple "S" [ "1"; "2" ] ]);
        checkb "S(1,1)" false (Ucq.holds q [ Pdb.tuple "S" [ "1"; "1" ] ]));
    case "constants in atoms" (fun () ->
        let q = Ucq.of_string "R(#1,x)" in
        checkb "matches" true (Ucq.holds q [ Pdb.tuple "R" [ "1"; "2" ] ]);
        checkb "no match" false (Ucq.holds q [ Pdb.tuple "R" [ "2"; "2" ] ]));
    case "self join detection" (fun () ->
        checkb "no" false (Ucq.has_self_join (List.hd q_rst));
        checkb "yes" true
          (Ucq.has_self_join (List.hd (Ucq.of_string "R(x), R(y), S(x,y)"))));
  ]

let pdb_suite =
  [
    case "var_name roundtrip" (fun () ->
        let t = Pdb.tuple "S" [ "a"; "b" ] in
        checks "name" "S(a,b)" (Pdb.var_name t);
        checkb "roundtrip" true (Pdb.tuple_of_var (Pdb.var_name t) = t));
    case "duplicate facts rejected" (fun () ->
        Alcotest.check_raises "raise" (Invalid_argument "Pdb.make: duplicate facts")
          (fun () ->
            ignore
              (Pdb.make
                 [ (Pdb.tuple "R" [ "1" ], Ratio.one); (Pdb.tuple "R" [ "1" ], Ratio.one) ])));
    case "probabilities outside [0, 1] rejected" (fun () ->
        let db p = Pdb.make [ (Pdb.tuple "R" [ "a" ], p) ] in
        List.iter
          (fun p ->
            match db p with
            | _ -> Alcotest.failf "P = %s accepted" (Ratio.to_string p)
            | exception Invalid_argument _ -> ())
          [ Ratio.of_ints 3 2; Ratio.of_ints (-1) 2 ];
        List.iter
          (fun p ->
            check ratio "in range kept" p
              ((db p).Pdb.prob (Pdb.tuple "R" [ "a" ])))
          [ Ratio.zero; Ratio.of_ints 1 2; Ratio.one ]);
    case "subdatabases count" (fun () ->
        checki "2^5" 32 (List.length (Pdb.subdatabases tiny_db)));
    case "subset probabilities sum to one" (fun () ->
        let total =
          Ratio.sum (List.map (Pdb.prob_of_subset tiny_db) (Pdb.subdatabases tiny_db))
        in
        check ratio "1" Ratio.one total);
    case "generators shapes" (fun () ->
        checki "complete_rst 3" (3 + 9 + 3) (List.length (Pdb.complete_rst 3).Pdb.facts);
        checki "chain k=2 n=2" (2 + 8 + 2)
          (List.length (Pdb.chain_database ~k:2 2).Pdb.facts));
  ]

let lineage_suite =
  [
    case "lineage of R(x),S(x,y) on tiny db" (fun () ->
        let f = Lineage.boolfun q_rs tiny_db in
        (* Lineage = R(1)S(1,1) ∨ R(2)S(2,1). *)
        let expected =
          Boolfun.or_
            (Boolfun.and_ (Boolfun.var "R(1)") (Boolfun.var "S(1,1)"))
            (Boolfun.and_ (Boolfun.var "R(2)") (Boolfun.var "S(2,1)"))
        in
        check boolfun "lineage" (Boolfun.lift expected (Lineage.variables tiny_db)) f);
    case "lineage is monotone" (fun () ->
        let c = Lineage.circuit q_rst (Pdb.complete_rst 2) in
        (* DNF of positive literals: NNF without negations. *)
        checkb "nnf" true (Circuit.is_nnf c));
    qtest "lineage circuit agrees with brute force" QCheck2.Gen.(int_range 1 2)
      (fun n ->
        let db = Pdb.complete_rst n in
        List.for_all
          (fun q -> Boolfun.equal (Lineage.boolfun q db) (Lineage.brute_force q db))
          [ q_rs; q_rst; Ucq.of_string "R(x) | T(y)"; Ucq.of_string "S(x,x)" ]);
    case "lineage with inequality" (fun () ->
        let q = Ucq.of_string "S(x,y), x != y" in
        let db =
          Pdb.uniform (Ratio.of_ints 1 2)
            [ Pdb.tuple "S" [ "1"; "1" ]; Pdb.tuple "S" [ "1"; "2" ] ]
        in
        check boolfun "only off-diagonal"
          (Boolfun.lift (Boolfun.var "S(1,2)") (Lineage.variables db))
          (Lineage.boolfun q db));
  ]

let safety_suite =
  [
    case "hierarchical queries" (fun () ->
        checkb "R,S hierarchical" true (Qsafety.hierarchical q_rs);
        checkb "R,S,T not" false (Qsafety.hierarchical q_rst);
        checkb "witness" true
          (Qsafety.witness_non_hierarchical (List.hd q_rst) <> None);
        checkb "single atom" true (Qsafety.hierarchical (Ucq.of_string "R(x,y)")));
    case "inversion_free" (fun () ->
        checkb "R,S" true (Qsafety.inversion_free q_rs);
        checkb "R,S,T" false (Qsafety.inversion_free q_rst);
        checkb "self join" false (Qsafety.inversion_free (Ucq.of_string "R(x), R(y)")));
    case "hierarchical order exists iff hierarchical" (fun () ->
        checkb "R,S some" true
          (Qsafety.hierarchical_variable_order (List.hd q_rs) tiny_db <> None);
        checkb "R,S,T none" true
          (Qsafety.hierarchical_variable_order (List.hd q_rst) tiny_db = None));
    case "hierarchical order gives constant OBDD width across n" (fun () ->
        let widths =
          List.map
            (fun n ->
              let db = Pdb.complete_rst n in
              let order =
                Option.get (Qsafety.hierarchical_variable_order (List.hd q_rs) db)
              in
              let m = Sdd.Obdd.manager order in
              Sdd.Obdd.width m (Sdd.compile_circuit m (Lineage.circuit q_rs db)))
            [ 1; 2; 3; 4 ]
        in
        checkb "bounded by 3" true (List.for_all (fun w -> w <= 3) widths));
    case "non-hierarchical query has growing OBDD width (any fixed order)"
      (fun () ->
        let width n =
          let db = Pdb.complete_rst n in
          let order = Lineage.variables db in
          let m = Sdd.Obdd.manager order in
          Sdd.Obdd.width m (Sdd.compile_circuit m (Lineage.circuit q_rst db))
        in
        checkb "grows" true (width 4 > width 2));
  ]

let prob_suite =
  [
    case "brute force on tiny db" (fun () ->
        (* P(R,S) with independent tuples. *)
        let p = Prob.brute q_rs tiny_db in
        (* P = 1 - (1 - pR1 pS11)(1 - pR2 pS21) *)
        let open Ratio in
        let p1 = mul (of_ints 1 2) (of_ints 1 4) in
        let p2 = mul (of_ints 1 3) (of_ints 2 3) in
        let expected = sub one (mul (sub one p1) (sub one p2)) in
        check ratio "prob" expected p);
    case "compiled routes agree with brute force" (fun () ->
        List.iter
          (fun q ->
            let expected = Prob.brute q tiny_db in
            let via_o, _ = Prob.via_obdd_exn q tiny_db in
            let via_s, _ = Prob.via_exn q tiny_db in
            let via_a, _ = Prob.via_exn ~backend:`Auto q tiny_db in
            let via_m, _ =
              Prob.via_exn
                ~vtree:(Vtree.right_linear (Lineage.variables tiny_db))
                ~minimize:true q tiny_db
            in
            check ratio "obdd" expected via_o;
            check ratio "sdd" expected via_s;
            check ratio "auto" expected via_a;
            check ratio "sdd on a pinned vtree, minimized" expected via_m)
          [ q_rs; q_rst; Ucq.of_string "R(x) | T(x)"; Ucq.of_string "S(x,y), x != y" ]);
    qtest "routes agree on complete_rst 2" QCheck2.Gen.(int_range 0 5) (fun _ ->
        let db = Pdb.complete_rst 2 in
        let q = q_rst in
        let expected = Prob.brute q db in
        let via_o, _ = Prob.via_obdd_exn q db in
        let via_s, _ = Prob.via_exn q db in
        Ratio.equal expected via_o && Ratio.equal expected via_s)
      ~count:1;
    case "empty database: every route answers P = 0 with size 0" (fun () ->
        let db = Pdb.make [] in
        List.iter
          (fun q ->
            let expect name = function
              | Ok a ->
                check ratio (name ^ " P") Ratio.zero a.Prob.probability;
                checki (name ^ " size") 0 a.Prob.size
              | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            in
            expect "via_obdd" (Prob.via_obdd q db);
            List.iter
              (fun (name, backend) -> expect name (Prob.via ~backend q db))
              [ ("sdd", `Sdd); ("obdd", `Obdd); ("auto", `Auto) ])
          [ q_rs; q_rst ]);
    case "the obdd cross-check keeps the run's backend selection" (fun () ->
        ignore (Prob.via ~backend:`Auto q_rs tiny_db);
        let selected = Backend.last_selection () in
        checkb "auto recorded" true (selected <> None);
        ignore (Prob.via_obdd q_rst tiny_db);
        checkb "unchanged" true (Backend.last_selection () = selected));
  ]

let jha_suciu_suite =
  [
    case "query shape" (fun () ->
        let q = Jha_suciu.query 2 in
        checks "printed" "R(x), S1(x,y), S2(x,y), T(y)" (Ucq.to_string q);
        checkb "contains an inversion" true (not (Qsafety.inversion_free q)));
    case "lineage over the paper alphabet" (fun () ->
        let f = Jha_suciu.lineage ~k:1 2 in
        Alcotest.(check (list string)) "vars"
          (List.sort compare (Families.xs 2 @ Families.ys 2
                              @ [ Families.zij 1 1 1; Families.zij 1 1 2;
                                  Families.zij 1 2 1; Families.zij 1 2 2 ]))
          (Boolfun.variables f));
    case "lemma 7 for k = 1" (fun () ->
        checkb "n=2" true (Jha_suciu.check_lemma7 ~k:1 2);
        checkb "n=3" true (Jha_suciu.check_lemma7 ~k:1 3));
    case "lemma 7 for k = 2" (fun () ->
        checkb "n=2" true (Jha_suciu.check_lemma7 ~k:2 2));
    case "restriction bounds checked" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Jha_suciu.restriction: need 0 <= i <= k")
          (fun () -> ignore (Jha_suciu.restriction ~k:2 ~i:3 2)));
    case "lineage variable count is O(n^2)" (fun () ->
        let f = Jha_suciu.lineage ~k:2 2 in
        checki "2n + k n^2" (4 + 8) (Boolfun.num_vars f));
  ]

let suites =
  [
    ("jha_suciu", jha_suciu_suite);
    ("ucq", ucq_suite);
    ("pdb", pdb_suite);
    ("lineage", lineage_suite);
    ("qsafety", safety_suite);
    ("prob", prob_suite);
  ]
