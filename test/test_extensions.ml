open Test_util

(* ------------------------------------------------------------------ *)
(* Lifted inference                                                    *)
(* ------------------------------------------------------------------ *)

let lifted_suite =
  [
    case "single ground atom" (fun () ->
        let db = Pdb.make [ (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 3) ] in
        let q = Ucq.of_string "R(#1)" in
        Alcotest.(check (option ratio)) "p" (Some (Ratio.of_ints 1 3))
          (Lifted.probability q db));
    case "independent union over the domain" (fun () ->
        let db =
          Pdb.make
            [
              (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 2);
              (Pdb.tuple "R" [ "2" ], Ratio.of_ints 1 2);
            ]
        in
        (* P(exists x R(x)) = 1 - 1/4 = 3/4. *)
        Alcotest.(check (option ratio)) "p" (Some (Ratio.of_ints 3 4))
          (Lifted.probability (Ucq.of_string "R(x)") db));
    case "unsafe queries refused" (fun () ->
        let db = Pdb.complete_rst 2 in
        checkb "inversion" true
          (Lifted.probability (Ucq.of_string "R(x), S(x,y), T(y)") db = None);
        checkb "self join" true
          (Lifted.probability (Ucq.of_string "R(x), R(y)") db = None));
    qtest "lifted = brute force on hierarchical queries" QCheck2.Gen.(int_range 1 2)
      (fun n ->
        let db = Pdb.complete_rst n in
        List.for_all
          (fun qs ->
            let q = Ucq.of_string qs in
            match Lifted.probability q db with
            | None -> false
            | Some p -> Ratio.equal p (Prob.brute q db))
          [ "R(x), S(x,y)"; "R(x)"; "S(x,y)"; "R(x) | T(y)" ]);
    case "lifted scales beyond compilation comfort" (fun () ->
        (* n = 12: 12 + 144 + 12 = 168 tuples; lifted is instant and
           matches the OBDD route on the hierarchical query. *)
        let db = Pdb.complete_rst 6 in
        let q = Ucq.of_string "R(x), S(x,y)" in
        let lifted = Option.get (Lifted.probability q db) in
        let via_obdd, _ = Prob.via_obdd_exn q db in
        check ratio "agree" via_obdd lifted);
    qtest "lifted agrees with obdd route on random hierarchical dbs"
      QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        let st = Random.State.make [| seed; 4242 |] in
        let facts =
          List.filter
            (fun _ -> Random.State.bool st)
            (Pdb.complete_rst 3).Pdb.facts
        in
        facts = []
        ||
        let db =
          Pdb.make
            (List.map
               (fun t -> (t, Ratio.of_ints (1 + Random.State.int st 5) 6))
               facts)
        in
        let q = Ucq.of_string "R(x), S(x,y)" in
        match Lifted.probability q db with
        | None -> false
        | Some p -> Ratio.equal p (fst (Prob.via_obdd_exn q db)));
  ]

(* ------------------------------------------------------------------ *)
(* Vtree local moves and search                                        *)
(* ------------------------------------------------------------------ *)

let vtree_search_suite =
  [
    case "local moves of a 2-leaf vtree" (fun () ->
        let t = Vtree.right_linear [ "a"; "b" ] in
        let moves = Vtree.local_moves t in
        checki "only the swap" 1 (List.length moves);
        checkb "swapped" true
          (List.exists (fun t' -> Vtree.leaf_order t' = [ "b"; "a" ]) moves));
    case "moves preserve the variable set" (fun () ->
        let t = Vtree.balanced (small_vars 5) in
        checkb "all same vars" true
          (List.for_all
             (fun t' -> Vtree.variables t' = Vtree.variables t)
             (Vtree.local_moves t)));
    case "rotation reaches the other linear shape" (fun () ->
        (* Right-linear over 3 vars -> one left rotation gives left-linear. *)
        let t = Vtree.right_linear [ "a"; "b"; "c" ] in
        checkb "left-linear reachable" true
          (List.exists
             (fun t' -> Vtree.to_shape t' = Vtree.to_shape (Vtree.left_linear [ "a"; "b"; "c" ]))
             (Vtree.local_moves t)));
    qtest "moves are involutive-ish: the original is reachable back"
      QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        let t = Vtree.random ~seed (small_vars 4) in
        List.for_all
          (fun t' ->
            List.exists (fun t'' -> Vtree.equal t'' t) (Vtree.local_moves t'))
          (Vtree.local_moves t));
    case "search improves disjointness over right-linear" (fun () ->
        let f = Families.disjointness 3 in
        let vars = Boolfun.variables f in
        let start = Vtree.right_linear vars in
        let from = Vtree_search.sdd_size_score f start in
        let _, best = Vtree_search.minimize_sdd_size_exn f start in
        checkb "no worse" true (best <= from));
    qtest "search result is a local minimum score" QCheck2.Gen.(int_range 0 10)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let vt, s = Vtree_search.minimize_sdd_size_exn f (Vtree.balanced (small_vars 4)) in
        List.for_all
          (fun t' -> Vtree_search.sdd_size_score f t' >= s)
          (Vtree.local_moves vt));
    qtest "sdw_score matches Compile.sdw" QCheck2.Gen.(int_range 0 15) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let vt = Vtree.random ~seed:(seed + 2) (small_vars 4) in
        Vtree_search.sdw_score f vt = Compile.sdw f vt);
  ]

(* ------------------------------------------------------------------ *)
(* Pathwidth specialisation                                            *)
(* ------------------------------------------------------------------ *)

let pathwidth_suite =
  [
    case "obdd order covers exactly the variables" (fun () ->
        let c = Generators.chain_implications 7 in
        let order = Lemma1.obdd_order_of_circuit c in
        Alcotest.(check (list string)) "perm"
          (Circuit.variables c)
          (List.sort compare order));
    case "chain obdd width bounded under the path layout" (fun () ->
        List.iter
          (fun n ->
            let c = Generators.chain_implications n in
            let order = Lemma1.obdd_order_of_circuit c in
            let m = Sdd.Obdd.manager order in
            let node = Sdd.compile_circuit m c in
            checkb (Printf.sprintf "n=%d" n) true (Sdd.Obdd.width m node <= 4))
          [ 4; 8; 12; 16 ]);
    case "band obdd width bounded under the path layout" (fun () ->
        List.iter
          (fun n ->
            let c = Generators.band_cnf ~width:3 n in
            let order = Lemma1.obdd_order_of_circuit c in
            let m = Sdd.Obdd.manager order in
            let node = Sdd.compile_circuit m c in
            checkb (Printf.sprintf "n=%d" n) true (Sdd.Obdd.width m node <= 8))
          [ 5; 8; 11 ]);
  ]

(* ------------------------------------------------------------------ *)
(* DIMACS                                                              *)
(* ------------------------------------------------------------------ *)

let dimacs_text = "c a comment\np cnf 4 3\n1 -2 0\n2 3 0\n-1 4 0\n"

let dimacs_suite =
  [
    case "parse basic file" (fun () ->
        let d = Dimacs.parse dimacs_text in
        checki "vars" 4 d.Dimacs.num_vars;
        checki "clauses" 3 (List.length d.Dimacs.clauses);
        Alcotest.(check (list (list int))) "content"
          [ [ 1; -2 ]; [ 2; 3 ]; [ -1; 4 ] ]
          d.Dimacs.clauses);
    case "multi-line clauses and missing trailing zero" (fun () ->
        let d = Dimacs.parse "p cnf 3 2\n1\n2 0\n-3 0" in
        checki "clauses" 2 (List.length d.Dimacs.clauses);
        Alcotest.(check (list int)) "first" [ 1; 2 ] (List.hd d.Dimacs.clauses));
    case "parse errors" (fun () ->
        List.iter
          (fun s ->
            match Dimacs.parse s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "expected failure on %S" s)
          [ "1 2 0"; "p cnf x y"; "p cnf 2 1\n3 0"; "p cnf 2 2\n1 0" ]);
    case "print/parse roundtrip" (fun () ->
        let d = Dimacs.parse dimacs_text in
        let d' = Dimacs.parse (Dimacs.print d) in
        checkb "equal" true (d = d'));
    case "free variables counted" (fun () ->
        let d = Dimacs.parse "p cnf 5 1\n1 -2 0\n" in
        checki "free" 3 (Dimacs.free_var_count d));
    case "model count through the pipeline" (fun () ->
        let d = Dimacs.parse dimacs_text in
        let c = Dimacs.to_circuit d in
        (* brute force: (1 ∨ ¬2) ∧ (2 ∨ 3) ∧ (¬1 ∨ 4) *)
        let f = Circuit.to_boolfun c in
        let brute = Boolfun.count_models_int f in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let node = Sdd.compile_circuit m c in
        checki "agree" brute (Bigint.to_int_exn (Sdd.model_count m node)));
    case "of_clauses roundtrip" (fun () ->
        let clauses = [ [ ("a", true); ("b", false) ]; [ ("b", true) ] ] in
        let d, name = Dimacs.of_clauses clauses in
        checki "vars" 2 d.Dimacs.num_vars;
        checks "first var" "a" (name 1));
  ]

(* ------------------------------------------------------------------ *)
(* SDD knowledge-compilation-map queries                               *)
(* ------------------------------------------------------------------ *)

let sdd_queries_suite =
  [
    case "consistency and validity" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let x = Sdd.literal m "x" true in
        checkb "x consistent" true (Sdd_queries.consistent m x);
        checkb "x not valid" false (Sdd_queries.valid m x);
        checkb "x|~x valid" true
          (Sdd_queries.valid m (Sdd.disjoin m x (Sdd.negate m x))));
    case "entailment" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let x = Sdd.literal m "x" true and y = Sdd.literal m "y" true in
        let xy = Sdd.conjoin m x y in
        checkb "x&y |= x" true (Sdd_queries.entails m xy x);
        checkb "x |/= x&y" false (Sdd_queries.entails m x xy));
    case "clause entailment and implicants" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y"; "z" ]) in
        let f =
          Sdd.disjoin m
            (Sdd.conjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true))
            (Sdd.literal m "z" true)
        in
        checkb "CE x|z... actually y|z|x" true
          (Sdd_queries.clause_entailed m f [ ("x", true); ("z", true) ]);
        checkb "IM x&y" true (Sdd_queries.implicant m f [ ("x", true); ("y", true) ]);
        checkb "not IM x" false (Sdd_queries.implicant m f [ ("x", true) ]));
    case "forgetting" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let f = Sdd.conjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true) in
        let g = Sdd_queries.forget m [ "x" ] f in
        checkb "exists x (x&y) = y" true (Sdd.equal g (Sdd.literal m "y" true)));
    case "model enumeration" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let f = Sdd.disjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true) in
        let ms = Sdd_queries.models m f in
        checki "3 models" 3 (List.length ms);
        checkb "all satisfy" true
          (List.for_all
             (fun asg -> Sdd.eval m f (Boolfun.assignment_of_list asg))
             ms));
    case "model enumeration respects the limit" (fun () ->
        let m = Sdd.manager (Vtree.balanced (small_vars 5)) in
        let ms = Sdd_queries.models ~limit:7 m (Sdd.true_ m) in
        checki "limit" 7 (List.length ms));
    qtest "enumeration matches model count" QCheck2.Gen.(int_range 0 25)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let m = Sdd.manager (Vtree.random ~seed:(seed + 6) (small_vars 4)) in
        let node = Compile.sdd_of_boolfun m f in
        List.length (Sdd_queries.models ~limit:100 m node)
        = Boolfun.count_models_int f);
    qtest "entails agrees with boolfun" QCheck2.Gen.(int_range 0 25) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let g = Boolfun.random ~seed:(seed + 91) (small_vars 4) in
        let m = Sdd.manager (Vtree.balanced (small_vars 4)) in
        let nf = Compile.sdd_of_boolfun m f in
        let ng = Compile.sdd_of_boolfun m g in
        Sdd_queries.entails m nf ng
        = Boolfun.equal (Boolfun.and_ f g) f);
    case "Obdd level_profile rejects non-linear vtrees" (fun () ->
        let m = Sdd.manager (Vtree.balanced (small_vars 4)) in
        Alcotest.check_raises "raise"
          (Invalid_argument
             "Sdd.Obdd.level_profile: needs a canonical manager over a \
              right-linear vtree")
          (fun () -> ignore (Sdd.Obdd.level_profile m (Sdd.true_ m))));
    qtest "generic apply on a right-linear vtree builds the reduced OBDD"
      QCheck2.Gen.(pair (int_range 0 200) (int_range 0 200))
      (fun (seed, order_seed) ->
        (* "OBDDs are canonical SDDs on right-linear vtrees" (Section
           3.2.2): the generic partition apply, read as an OBDD, has the
           truth-table oracle's level profile. *)
        let f = Boolfun.random ~seed (small_vars 5) in
        let order = Vtree.leaf_order (Vtree.random ~seed:order_seed (small_vars 5)) in
        let m = Sdd.manager (Vtree.right_linear order) in
        let node = Sdd.of_boolfun_naive m f in
        Sdd.Obdd.level_profile m node = Boolfun.obdd_profile f order);
    qtest "linear-vtree SDD width tracks OBDD width (within factor 2)"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m = Sdd.manager (Vtree.right_linear (small_vars 5)) in
        let node = Compile.sdd_of_boolfun m f in
        let sdw = Sdd.width m node in
        let ow = Sdd.Obdd.width m node in
        sdw <= (2 * ow) + 2 && ow <= Stdlib.max 1 sdw);
    qtest "forget agrees with boolfun quantification" QCheck2.Gen.(int_range 0 25)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let m = Sdd.manager (Vtree.balanced (small_vars 4)) in
        let node = Compile.sdd_of_boolfun m f in
        let forgotten = Sdd_queries.forget m [ "x01"; "x03" ] node in
        Boolfun.equal
          (Sdd.to_boolfun m forgotten)
          (Boolfun.lift
             (Boolfun.exists_ "x01" (Boolfun.exists_ "x03" f))
             (small_vars 4)));
  ]

let plans_suite =
  [
    case "plan of a ground atom" (fun () ->
        let db = Pdb.make [ (Pdb.tuple "R" [ "1" ], Ratio.of_ints 2 5) ] in
        match Lifted.plan_cq (List.hd (Ucq.of_string "R(#1)")) db with
        | Some (Lifted.Fact t) -> checks "fact" "R(1)" (Pdb.var_name t)
        | _ -> Alcotest.fail "expected a Fact plan");
    case "plan of R(x),S(x,y) has nested unions" (fun () ->
        let db = Pdb.complete_rst 2 in
        match Lifted.plan_cq (List.hd (Ucq.of_string "R(x), S(x,y)")) db with
        | Some (Lifted.Independent_union (x, branches)) ->
          checks "root" "x" x;
          checki "branches = domain" 2 (List.length branches)
        | _ -> Alcotest.fail "expected a union plan");
    case "no plan for the inversion query" (fun () ->
        let db = Pdb.complete_rst 2 in
        checkb "none" true
          (Lifted.plan_cq (List.hd (Ucq.of_string "R(x), S(x,y), T(y)")) db = None));
    qtest "plan evaluation = lifted probability" QCheck2.Gen.(int_range 1 3)
      (fun n ->
        let db = Pdb.complete_rst n in
        List.for_all
          (fun qs ->
            let cq = List.hd (Ucq.of_string qs) in
            match (Lifted.plan_cq cq db, Lifted.probability_cq cq db) with
            | Some plan, Some p -> Ratio.equal (Lifted.eval_plan db plan) p
            | None, None -> true
            | _ -> false)
          [ "R(x), S(x,y)"; "S(x,y)"; "R(x)" ]);
    case "plan pretty-printer mentions the root variable" (fun () ->
        let db = Pdb.complete_rst 2 in
        let plan =
          Option.get (Lifted.plan_cq (List.hd (Ucq.of_string "R(x), S(x,y)")) db)
        in
        let s = Format.asprintf "%a" Lifted.pp_plan plan in
        checkb "mentions union over x" true
          (let rec contains i =
             i + 12 <= String.length s
             && (String.sub s i 12 = "union over x" || contains (i + 1))
           in
           contains 0));
  ]

let sift_suite =
  let sorted_vars m = List.sort compare (Sdd.Obdd.order m) in
  [
    case "sifting fixes the separated disjointness order" (fun () ->
        let n = 4 in
        let f = Families.disjointness n in
        let m = Sdd.Obdd.manager (Families.xs n @ Families.ys n) in
        let node = Compile.sdd_of_boolfun m f in
        let before = Sdd.Obdd.size m node in
        let node = Sdd.Obdd.sift m node in
        checkb "improved a lot" true (Sdd.Obdd.size m node * 2 < before);
        checkb "function preserved" true (Boolfun.equal f (Sdd.to_boolfun m node));
        checkb "vtree still right-linear" true
          (Vtree.is_right_linear (Sdd.vtree m));
        Alcotest.(check (list string)) "order is a permutation"
          (List.sort compare (Families.xs n @ Families.ys n))
          (sorted_vars m));
    qtest "sift never increases size" QCheck2.Gen.(int_range 0 15) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m = Sdd.Obdd.manager (small_vars 5) in
        let node = Compile.sdd_of_boolfun m f in
        let before = Sdd.Obdd.size m node in
        let node = Sdd.Obdd.sift m node in
        Sdd.Obdd.size m node <= before
        && Vtree.is_right_linear (Sdd.vtree m)
        && sorted_vars m = small_vars 5
        && Boolfun.equal f (Sdd.to_boolfun m node)
        && Sdd.Obdd.level_profile m node
           = Boolfun.obdd_profile f (Sdd.Obdd.order m));
  ]

let suites =
  [
    ("lifted", lifted_suite);
    ("safe_plans", plans_suite);
    ("bdd_sift", sift_suite);
    ("vtree_search", vtree_search_suite);
    ("pathwidth_obdd", pathwidth_suite);
    ("dimacs", dimacs_suite);
    ("sdd_queries", sdd_queries_suite);
  ]
