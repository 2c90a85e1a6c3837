open Test_util

let vars n = small_vars n

let fw_suite =
  [
    case "factor width of implication" (fun () ->
        let f = Families.implication in
        let vt = Vtree.right_linear [ "x"; "y" ] in
        (* At the x leaf: factors x / ¬x (2); at the y leaf: 2; at the
           root: factors(F, {x,y}) = models/non-models (2). *)
        checki "fw" 2 (Factor_width.fw f vt));
    case "fw of conjunction is 2 on any vtree" (fun () ->
        let f = Families.conjunction 4 in
        checki "right-linear" 2 (Factor_width.fw f (Vtree.right_linear (Families.xs 4)));
        checki "balanced" 2 (Factor_width.fw f (Vtree.balanced (Families.xs 4))));
    case "fw of parity is 2 on any vtree" (fun () ->
        let f = Families.parity 4 in
        checki "balanced" 2 (Factor_width.fw f (Vtree.balanced (Families.xs 4)));
        checki "random" 2 (Factor_width.fw f (Vtree.random ~seed:4 (Families.xs 4))));
    case "fw of disjointness: interleaved vs separated" (fun () ->
        let f = Families.disjointness 3 in
        let interleaved =
          List.concat (List.init 3 (fun i -> [ Families.x (i + 1); Families.y (i + 1) ]))
        in
        let separated = Families.xs 3 @ Families.ys 3 in
        let wi = Factor_width.fw f (Vtree.right_linear interleaved) in
        let ws = Factor_width.fw f (Vtree.right_linear separated) in
        checkb "interleaved <= 3" true (wi <= 3);
        checkb "separated = 2^3" true (ws >= 8));
    case "fw_min on implication" (fun () ->
        let w, _ = Factor_width.fw_min Families.implication in
        checki "fw(F)" 2 w);
    case "dummy vars do not change factors" (fun () ->
        let f = Families.implication in
        let vt = Vtree.right_linear [ "x"; "w_dummy"; "y" ] in
        checki "fw with dummy" 2 (Factor_width.fw f vt));
    qtest "fw_at root counts F/~F" QCheck2.Gen.(int_range 0 40) (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.balanced (vars 4) in
        let a = Factor_width.analyze f vt in
        let root_factors = Factor_width.fw_at a (Vtree.root vt) in
        match Boolfun.is_const f with
        | Some _ -> root_factors = 1
        | None -> root_factors = 2);
  ]

let compile_suite =
  [
    case "cnnf of implication is exact" (fun () ->
        let f = Families.implication in
        let vt = Vtree.right_linear [ "x"; "y" ] in
        let r = Compile.cnnf f vt in
        check boolfun "computes F" f (Circuit.to_boolfun r.Compile.circuit);
        checkb "is NNF" true (Circuit.is_nnf r.Compile.circuit);
        checki "fiw = fw(x)*fw(y) = 4" 4 r.Compile.fiw);
    case "cnnf handles constants" (fun () ->
        let vt = Vtree.right_linear [ "x"; "y" ] in
        let t = Compile.cnnf (Boolfun.const [ "x"; "y" ] true) vt in
        check boolfun "T" (Boolfun.const [ "x"; "y" ] true)
          (Boolfun.lift (Circuit.to_boolfun t.Compile.circuit) [ "x"; "y" ]);
        let b = Compile.cnnf (Boolfun.const [ "x"; "y" ] false) vt in
        check boolfun "F" (Boolfun.const [] false) (Circuit.to_boolfun b.Compile.circuit));
    case "fiw equals product of child factor counts" (fun () ->
        let f = Families.parity 4 in
        let vt = Vtree.balanced (Families.xs 4) in
        let direct = Compile.fiw f vt in
        let via_cnnf = (Compile.cnnf f vt).Compile.fiw in
        checki "agree" direct via_cnnf;
        checki "parity: 2*2" 4 direct);
    case "sdd_of_boolfun canonical vs naive" (fun () ->
        let f = Boolfun.random ~seed:5 (vars 4) in
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let a = Compile.sdd_of_boolfun m f in
        let b = Sdd.of_boolfun_naive m f in
        checkb "same canonical node" true (Sdd.equal a b));
    case "theorem 3/4 size accounting formulas" (fun () ->
        checki "thm3" (2 * 5 + 1 + 3 * 2 * 4) (Compile.theorem3_size_bound ~k:2 ~n:5);
        checki "thm4" (2 * 6 + 3 * 2 * 4) (Compile.theorem4_size_bound ~k:2 ~n:5));
    case "sdw on right-linear vtree is OBDD-like for chains" (fun () ->
        let n = 6 in
        let f = Families.chain_implications n in
        let w = Compile.sdw f (Vtree.right_linear (Families.xs n)) in
        checkb "constant width" true (w <= 6));
    qtest "cnnf computes F on random functions and vtrees"
      QCheck2.Gen.(int_range 0 60)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.random ~seed:(seed * 7 + 3) (vars 4) in
        let r = Compile.cnnf f vt in
        Boolfun.equal f (Circuit.to_boolfun r.Compile.circuit));
    qtest "cnnf is a deterministic structured NNF" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.random ~seed:(seed * 11 + 1) (vars 4) in
        let r = Compile.cnnf f vt in
        Snnf.is_nnf r.Compile.circuit
        && Snnf.is_decomposable r.Compile.circuit
        && Snnf.is_deterministic r.Compile.circuit
        && Snnf.is_structured_by r.Compile.circuit vt);
    qtest "sdd_of_boolfun computes F (canonicity vs apply route)"
      QCheck2.Gen.(int_range 0 60)
      (fun seed ->
        (* On the right-linear vtree the apply route is the ITE
           recursion, compared with the decision-built canonical nodes. *)
        let f = Boolfun.random ~seed (vars 5) in
        List.for_all
          (fun vt ->
            let m = Sdd.manager vt in
            let a = Compile.sdd_of_boolfun m f in
            Sdd.equal a (Sdd.of_boolfun_naive m f)
            && Boolfun.equal f (Sdd.to_boolfun m a))
          [ Vtree.random ~seed:(seed * 13 + 5) (vars 5);
            Vtree.right_linear (vars 5) ]);
    qtest "cnnf size within Theorem 3 accounting" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.balanced (vars 4) in
        let r = Compile.cnnf f vt in
        Circuit.size r.Compile.circuit
        <= Compile.theorem3_size_bound ~k:r.Compile.fiw ~n:4);
    qtest "model counting on cnnf output is linear-time-correct"
      QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.random ~seed:(seed + 77) (vars 4) in
        let r = Compile.cnnf f vt in
        (* cnnf output may not mention all 4 vars; lift the gap. *)
        let measured = Snnf.model_count r.Compile.circuit in
        let missing = 4 - List.length (Circuit.variables r.Compile.circuit) in
        Bigint.to_int_exn (Bigint.mul (Bigint.pow2 missing) measured)
        = Boolfun.count_models_int f);
  ]

let lemma1_suite =
  [
    case "vtree of chain circuit" (fun () ->
        let c = Generators.chain_implications 5 in
        let vt, _w = Lemma1.vtree_of_circuit ~exact:true c in
        Alcotest.(check (list string)) "vars" (Circuit.variables c) (Vtree.variables vt));
    case "lemma 1 bound formulas" (fun () ->
        (* bag size k gives 2^((k+1)·2^k): 2^4 = 16 and 2^12 = 4096. *)
        checks "bag 1" "16" (Bigint.to_string (Lemma1.bound ~bag_size:1));
        checks "bag 2" "4096" (Bigint.to_string (Lemma1.bound ~bag_size:2));
        (* ctw = k means bags of size k+1, so the two formulas coincide. *)
        checkb "ctw version consistent" true
          (Bigint.equal (Lemma1.bound_ctw ~ctw:1) (Lemma1.bound ~bag_size:2)));
    case "lemma 1 check on chain" (fun () ->
        match Lemma1.check (Generators.chain_implications 5) with
        | None -> Alcotest.fail "expected analysis"
        | Some (w, fw, bound) ->
          checkb "within bound" true (Bigint.compare (Bigint.of_int fw) bound <= 0);
          checkb "small width" true (w <= 3);
          checkb "small fw" true (fw <= 8));
    qtest "lemma 1 holds on random window circuits" QCheck2.Gen.(int_range 0 25)
      (fun seed ->
        let c = Generators.random_window ~seed ~window:3 ~vars:5 ~gates:6 in
        match Lemma1.check c with
        | None -> true
        | Some (w, fw, bound) ->
          ignore w;
          Bigint.compare (Bigint.of_int fw) bound <= 0);
    qtest "lemma1 vtree always covers the circuit variables"
      QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:4 in
        if Circuit.variables c = [] then true
        else begin
          let vt, _ = Lemma1.vtree_of_circuit c in
          Vtree.variables vt = Circuit.variables c
        end);
  ]

let bounds_suite =
  [
    qtest "ineq (22): fiw <= fw^2" QCheck2.Gen.(int_range 0 50) (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.random ~seed:(seed + 31) (vars 4) in
        Bounds.ineq22 ~fw:(Factor_width.fw f vt) ~fiw:(Compile.fiw f vt));
    qtest "ineq (29): sdw <= 2^(2fw+1)" QCheck2.Gen.(int_range 0 40) (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let vt = Vtree.random ~seed:(seed + 41) (vars 4) in
        Bounds.ineq29 ~fw:(Factor_width.fw f vt) ~sdw:(Compile.sdw f vt));
    qtest "prop 2: compiled circuit witnesses treewidth <= 3 fiw"
      QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 3) in
        let vt = Vtree.random ~seed:(seed + 51) (vars 3) in
        Bounds.prop2_holds (Compile.cnnf f vt));
    qtest "eq (30): SDD witnesses treewidth <= 3 sdw" QCheck2.Gen.(int_range 0 15)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 3) in
        let vt = Vtree.random ~seed:(seed + 61) (vars 3) in
        let m = Sdd.manager vt in
        let node = Compile.sdd_of_boolfun m f in
        Bounds.sdd_ctw_holds m node);
  ]

let rectangles_suite =
  [
    case "lemma 2 dichotomy on implication" (fun () ->
        let f = Families.implication in
        let fs_x = List.map fst (Boolfun.factors f [ "x" ]) in
        let fs_y = List.map fst (Boolfun.factors f [ "y" ]) in
        let fs_xy = List.map fst (Boolfun.factors f [ "x"; "y" ]) in
        List.iter
          (fun h ->
            List.iter
              (fun g ->
                List.iter
                  (fun g' ->
                    match Rectangles.lemma2_status f ~h ~g ~g' with
                    | `Mixed -> Alcotest.fail "Lemma 2 violated"
                    | `Contained | `Disjoint -> ())
                  fs_y)
              fs_x)
          fs_xy);
    case "cover of implication" (fun () ->
        let f = Families.implication in
        let cover = Rectangles.cover_of_function f [ "x" ] in
        checkb "disjoint cover" true (Rectangles.is_disjoint_cover f cover);
        (* Factors are x/¬x and y/¬y; three of the four products lie in F:
           x∧y, ¬x∧y, ¬x∧¬y. *)
        checki "three rectangles" 3 (List.length cover));
    qtest "lemma 3 gives disjoint covers" QCheck2.Gen.(int_range 0 50) (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let cover = Rectangles.cover_of_function f [ "x01"; "x03" ] in
        Rectangles.is_disjoint_cover f cover);
    qtest "lemma 2 dichotomy on random functions" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let y = [ "x01"; "x02" ] and y' = [ "x03" ] in
        let fs_y = List.map fst (Boolfun.factors f y) in
        let fs_y' = List.map fst (Boolfun.factors f y') in
        let fs_both = List.map fst (Boolfun.factors f (y @ y')) in
        List.for_all
          (fun h ->
            List.for_all
              (fun g ->
                List.for_all
                  (fun g' -> Rectangles.lemma2_status f ~h ~g ~g' <> `Mixed)
                  fs_y')
              fs_y)
          fs_both);
    qtest "theorem 2: rank lower bound <= lemma 3 cover size"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let y = [ "x01"; "x02" ] in
        let cover = Rectangles.cover_of_function f y in
        Rectangles.min_cover_lower_bound f y <= Stdlib.max 1 (List.length cover));
  ]

let ctw_suite =
  [
    case "encode/decode roundtrip" (fun () ->
        List.iter
          (fun s ->
            let c = Circuit.of_string s in
            match Ctw.decode (Ctw.encode c) with
            | None -> Alcotest.failf "decode failed for %s" s
            | Some c' -> checkb s true (Circuit.equivalent c c'))
          [
            "(and x y)";
            "(or (and x y) (not z))";
            "(not (or x (and y z)))";
            "(or (and x (not y)) (and (not x) y))";
          ]);
    case "encoding treewidth matches" (fun () ->
        List.iter
          (fun s ->
            checkb s true (Ctw.encoding_treewidth_matches (Circuit.of_string s)))
          [ "(and x y)"; "(or (and x y) (and y z))" ]);
    case "ctw of constants and literals is 0" (fun () ->
        checki "T" 0 (Ctw.ctw_tiny (Boolfun.const [ "x" ] true));
        checki "x" 0 (Ctw.ctw_tiny (Boolfun.var "x"));
        checki "~x" 1 (Ctw.ctw_tiny (Boolfun.not_ (Boolfun.var "x"))));
    case "ctw of and/or is 1" (fun () ->
        checki "and" 1 (Ctw.ctw_tiny (Boolfun.and_ (Boolfun.var "x") (Boolfun.var "y")));
        checki "or" 1 (Ctw.ctw_tiny (Boolfun.or_ (Boolfun.var "x") (Boolfun.var "y"))));
    case "ctw of xor is 2" (fun () ->
        (* xor is not read-once, so no forest circuit computes it. *)
        checki "xor" 2
          (Ctw.ctw_tiny (Boolfun.xor_ (Boolfun.var "x") (Boolfun.var "y"))));
    case "dnf upper bound sane" (fun () ->
        let f = Families.majority 3 in
        checkb "positive" true (Ctw.ctw_upper_dnf f >= 1);
        checkb "best <= dnf" true (Ctw.ctw_upper_best f <= Ctw.ctw_upper_dnf f));
    qtest "bounded search result computes F when present"
      QCheck2.Gen.(int_range 0 15)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 2) in
        match Ctw.ctw_bounded_search ~max_gates:3 f with
        | None -> true
        | Some tw -> tw >= 0 && tw <= 2);
  ]

let isa_suite =
  [
    case "figure 4 vtree for n=5" (fun () ->
        let vt = Isa.vtree 5 in
        checki "5 leaves" 5 (Vtree.num_leaves vt);
        Alcotest.(check string) "shape" "(y01 (((z01 z02) z03) z04))"
          (Vtree.to_string vt));
    case "compiled ISA5 is correct and small" (fun () ->
        checkb "semantics" true (Isa.check_semantics 5);
        let m, node = Isa.compile 5 in
        checkb "size within bound" true
          (float_of_int (Sdd.size m node) <= 8.0 *. Isa.size_bound 5));
    case "compiled ISA18 is correct" (fun () ->
        checkb "semantics" true (Isa.check_semantics 18));
    case "invalid sizes rejected" (fun () ->
        Alcotest.check_raises "raise" (Invalid_argument "Isa.vtree: 7 is not a valid ISA size")
          (fun () -> ignore (Isa.vtree 7)));
    case "explicit construction for ISA5" (fun () ->
        let t = Isa_explicit.build 5 in
        checkb "semantics" true (Isa_explicit.check_semantics 5);
        (match Isa_explicit.validate t with
         | Ok () -> ()
         | Error m -> Alcotest.failf "invalid explicit SDD: %s" m);
        checkb "within bound" true
          (float_of_int (Isa_explicit.size t) <= 8.0 *. Isa.size_bound 5);
        checkb "gates <= paper bound" true
          (Isa_explicit.distinct_gates t <= Isa_explicit.paper_gate_bound 5));
    case "explicit construction for ISA18" (fun () ->
        let t = Isa_explicit.build 18 in
        checkb "semantics (sampled)" true (Isa_explicit.check_semantics 18);
        (match Isa_explicit.validate t with
         | Ok () -> ()
         | Error m -> Alcotest.failf "invalid explicit SDD: %s" m);
        (* The uncompressed proof object is smaller than the canonical
           (compressed) SDD of ISA18 — canonicity costs succinctness. *)
        let mgr, canonical = Isa.compile 18 in
        checkb "beats canonical" true
          (Isa_explicit.size t < Sdd.size mgr canonical);
        checkb "gates <= paper bound" true
          (Isa_explicit.distinct_gates t <= Isa_explicit.paper_gate_bound 18));
    case "explicit construction exports to a d-SDNNF" (fun () ->
        let t = Isa_explicit.build 5 in
        let c = Isa_explicit.to_nnf_circuit t in
        checkb "nnf" true (Snnf.is_nnf c);
        checkb "decomposable" true (Snnf.is_decomposable c);
        checkb "deterministic" true (Snnf.is_deterministic c);
        checkb "structured by the Figure 4 vtree" true
          (Snnf.is_structured_by c (Isa.vtree 5));
        checkb "computes ISA5" true
          (Boolfun.equal (Circuit.to_boolfun c) (Families.isa 5)));
    case "small term count formula" (fun () ->
        (* m = 2 for n = 5: 3^3 + 1 = 28. *)
        checki "n=5" 28 (Isa_explicit.small_term_count 5);
        checki "n=18" 244 (Isa_explicit.small_term_count 18));
  ]

let suites =
  [
    ("factor_width", fw_suite);
    ("compile", compile_suite);
    ("lemma1", lemma1_suite);
    ("bounds", bounds_suite);
    ("rectangles", rectangles_suite);
    ("ctw_computability", ctw_suite);
    ("isa", isa_suite);
  ]
