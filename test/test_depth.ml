(* Deeper, cross-module property suites: edge cases and invariants not
   covered by the per-module basics. *)

open Test_util

let bigint_deep =
  [
    case "huge multiplication cross-check" (fun () ->
        (* (10^30 + 7)^2 = 10^60 + 14*10^30 + 49 *)
        let a = Bigint.add (Bigint.pow (Bigint.of_int 10) 30) (Bigint.of_int 7) in
        let expected =
          Bigint.add
            (Bigint.add (Bigint.pow (Bigint.of_int 10) 60)
               (Bigint.mul (Bigint.of_int 14) (Bigint.pow (Bigint.of_int 10) 30)))
            (Bigint.of_int 49)
        in
        check bigint "square" expected (Bigint.mul a a));
    case "division with huge operands" (fun () ->
        let a = Bigint.pred (Bigint.pow2 200) in
        let b = Bigint.pred (Bigint.pow2 100) in
        let q, r = Bigint.divmod a b in
        check bigint "reconstruct" a (Bigint.add (Bigint.mul q b) r);
        checkb "r < b" true (Bigint.compare r b < 0));
    case "to_float monotone on big values" (fun () ->
        checkb "2^100 < 2^101" true
          (Bigint.to_float (Bigint.pow2 100) < Bigint.to_float (Bigint.pow2 101));
        Alcotest.(check (float 1.0)) "2^53 exact" (2.0 ** 53.0)
          (Bigint.to_float (Bigint.pow2 53)));
    case "min_int handled" (fun () ->
        checks "min_int" (string_of_int min_int) (Bigint.to_string (Bigint.of_int min_int)));
    case "succ/pred around zero" (fun () ->
        check bigint "succ -1" Bigint.zero (Bigint.succ Bigint.minus_one);
        check bigint "pred 0" Bigint.minus_one (Bigint.pred Bigint.zero));
    qtest "pow agrees with repeated mul" QCheck2.Gen.(pair (int_range (-9) 9) (int_range 0 12))
      (fun (b, e) ->
        let rec naive acc i = if i = 0 then acc else naive (Bigint.mul acc (Bigint.of_int b)) (i - 1) in
        Bigint.equal (Bigint.pow (Bigint.of_int b) e) (naive Bigint.one e));
    qtest "num_bits consistent with compare to pow2" QCheck2.Gen.(int_range 0 200)
      (fun k ->
        let x = Bigint.pow2 k in
        Bigint.num_bits x = k + 1
        && Bigint.num_bits (Bigint.pred x) = (if k = 0 then 0 else k));
  ]

let graph_deep =
  [
    case "treewidth of larger grids" (fun () ->
        checki "2x7" 2 (Treewidth.exact (Ugraph.grid_graph 2 7));
        checki "4x4" 4 (Treewidth.exact (Ugraph.grid_graph 4 4)));
    case "disconnected graphs" (fun () ->
        let g = Ugraph.of_edges 6 [ (0, 1); (2, 3); (2, 4); (3, 4) ] in
        checki "tw = max over components" 2 (Treewidth.exact g);
        let td = Treewidth.decomposition g in
        checkb "valid despite disconnection" true (Treedec.is_valid g td));
    case "nice decomposition of a single vertex" (fun () ->
        let g = Ugraph.create 1 in
        let nice = Nice.of_treedec (Treedec.trivial g) in
        checkb "valid" true (Result.is_ok (Nice.validate g nice));
        checki "one forget" 1 (List.length (Nice.forget_nodes nice)));
    case "mmd exact on cliques" (fun () ->
        checki "K6" 5 (Treewidth.lower_bound_mmd (Ugraph.complete_graph 6)));
    qtest "exact treewidth of partial ktrees bounded by k"
      QCheck2.Gen.(pair (int_range 0 30) (int_range 1 3))
      (fun (seed, k) ->
        let g = Ugraph.random_partial_ktree ~seed 10 k 0.7 in
        Treewidth.exact g <= k);
    qtest "treewidth invariant under vertex relabeling-ish (complement twice)"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.4 in
        Ugraph.equal g (Ugraph.complement (Ugraph.complement g)));
    qtest "path decomposition from pathwidth order is optimal"
      QCheck2.Gen.(int_range 100 160)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 7 0.45 in
        let w, order = Treewidth.pathwidth_order g in
        Treedec.width (Treedec.path_decomposition_of_order g order) = w);
  ]

let boolfun_deep =
  [
    case "max variable limit enforced" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument
             "Boolfun.const: 27 variables exceed the truth-table limit (26)")
          (fun () ->
            ignore (Boolfun.const (List.init 27 (fun i -> Printf.sprintf "v%02d" i)) true)));
    case "large-ish tabulation" (fun () ->
        let f = Families.parity 18 in
        checki "models" (1 lsl 17) (Boolfun.count_models_int f));
    case "cofactors of parity are parity and its negation" (fun () ->
        let f = Families.parity 4 in
        let cofs = Boolfun.cofactors_relative f [ Families.x 1 ] in
        checki "two" 2 (List.length cofs);
        checkb "complementary" true
          (match cofs with
           | [ a; b ] -> Boolfun.equal a (Boolfun.not_ b)
           | _ -> false));
    case "factor_ids consistency with factors" (fun () ->
        let f = Boolfun.random ~seed:77 (small_vars 5) in
        let y = [ "x01"; "x04" ] in
        let pairs, yvars, ids = Boolfun.factors_indexed f y in
        let yvars', ids', reps = Boolfun.factor_ids f y in
        checkb "same vars" true (yvars = yvars');
        checkb "same ids" true (ids = ids');
        checki "rep count" (List.length pairs) (Array.length reps);
        (* each rep index belongs to its factor *)
        Array.iteri
          (fun g rep -> checki (Printf.sprintf "rep %d" g) g ids.(rep))
          reps);
    qtest "xor associativity" QCheck2.Gen.(int_range 0 30) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 3) in
        let g = Boolfun.random ~seed:(seed + 1) (small_vars 3) in
        let h = Boolfun.random ~seed:(seed + 2) (small_vars 3) in
        Boolfun.equal
          (Boolfun.xor_ f (Boolfun.xor_ g h))
          (Boolfun.xor_ (Boolfun.xor_ f g) h));
    qtest "count via quantification: |F| = |F|x=0| + |F|x=1|"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        Boolfun.count_models_int f
        = Boolfun.count_models_int (Boolfun.restrict f [ ("x01", false) ])
          + Boolfun.count_models_int (Boolfun.restrict f [ ("x01", true) ]));
    qtest "rename then rename back" QCheck2.Gen.(int_range 0 30) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let g = Boolfun.rename f [ ("x01", "zz"); ("x03", "aa") ] in
        let h = Boolfun.rename g [ ("zz", "x01"); ("aa", "x03") ] in
        Boolfun.equal_strict f h);
    qtest "factors of factors: nested partition refines"
      QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        (* |factors(F, Y)| <= |factors(F, Y')| * 2^{|Y \ Y'|} for Y' ⊆ Y
           is false in general, but |factors(F, Y)| <= 2^|Y| always. *)
        let f = Boolfun.random ~seed (small_vars 5) in
        Boolfun.num_factors f [ "x01"; "x02" ] <= 4
        && Boolfun.num_factors f [ "x01" ] <= 2);
  ]

let circuit_deep =
  [
    case "deeply nested parse" (fun () ->
        let depth = 200 in
        let s =
          String.concat "" (List.init depth (fun _ -> "(not "))
          ^ "x"
          ^ String.make depth ')'
        in
        let c = Circuit.of_string s in
        checkb "negation chain collapses semantically" true
          (Boolfun.equal (Circuit.to_boolfun c)
             (if depth mod 2 = 0 then Boolfun.var "x"
              else Boolfun.not_ (Boolfun.var "x"))));
    case "of_gates validation" (fun () ->
        Alcotest.check_raises "forward wire"
          (Invalid_argument "Circuit.of_gates: wire violates topological order")
          (fun () -> ignore (Circuit.of_gates [| Circuit.Not 0 |] 0));
        Alcotest.check_raises "bad output"
          (Invalid_argument "Circuit.of_gates: bad output") (fun () ->
            ignore (Circuit.of_gates [| Circuit.Var "x" |] 3)));
    case "fanout counts" (fun () ->
        let c = Circuit.of_string "(and x (or x y))" in
        let counts = Circuit.fanout_counts c in
        (* gate 0 = x used by both or and and *)
        checki "x fanout" 2 counts.(0));
    case "tseitin clause shapes" (fun () ->
        let c = Circuit.of_string "(and x y)" in
        let cnf = Tseitin.transform c in
        (* AND of 2: 2 implication clauses + 1 completeness + 1 output unit *)
        checki "clauses" 4 (List.length cnf.Tseitin.clauses));
    qtest "dimacs roundtrip through named clauses" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let clause () =
          List.init (1 + Random.State.int st 3) (fun _ ->
              (Printf.sprintf "v%d" (Random.State.int st 4), Random.State.bool st))
        in
        let clauses = List.init (1 + Random.State.int st 4) (fun _ -> clause ()) in
        let d, name = Dimacs.of_clauses clauses in
        let renamed =
          List.map
            (List.map (fun l -> (name (abs l), l > 0)))
            d.Dimacs.clauses
        in
        Boolfun.equal
          (Circuit.to_boolfun (Circuit.of_cnf clauses))
          (Circuit.to_boolfun (Circuit.of_cnf renamed)));
    qtest "nnf size at most doubles" QCheck2.Gen.(int_range 0 40) (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:5 in
        Circuit.size (Circuit.to_nnf c) <= (2 * Circuit.size c) + 2);
  ]

let sdd_deep =
  [
    case "condition to a constant" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let f = Sdd.conjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true) in
        let g = Sdd.condition m (Sdd.condition m f "x" true) "y" true in
        checkb "T" true (Sdd.is_true m g);
        checkb "F" true (Sdd.is_false m (Sdd.condition m f "x" false)));
    case "width profile sums to size" (fun () ->
        let f = Boolfun.random ~seed:3 (small_vars 5) in
        let m = Sdd.manager (Vtree.balanced (small_vars 5)) in
        let node = Compile.sdd_of_boolfun m f in
        let total =
          List.fold_left (fun acc (_, c) -> acc + c) 0 (Sdd.width_profile m node)
        in
        checki "sum = size" (Sdd.size m node) total);
    case "decision constructor rejects leaves" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        Alcotest.check_raises "raise"
          (Invalid_argument "Sdd.decision: leaf vtree node") (fun () ->
            ignore
              (Sdd.decision m
                 (Vtree.leaf_of_var (Sdd.vtree m) "x")
                 [ (Sdd.true_ m, Sdd.true_ m) ])));
    case "trusted decision builds canonical nodes" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let vt = Sdd.vtree m in
        let x = Sdd.literal m "x" true in
        let y = Sdd.literal m "y" true in
        let via_decision =
          Sdd.decision m (Vtree.root vt)
            [ (x, y); (Sdd.negate m x, Sdd.false_ m) ]
        in
        checkb "same as apply" true (Sdd.equal via_decision (Sdd.conjoin m x y)));
    qtest "conjoin/disjoin absorption" QCheck2.Gen.(int_range 0 25) (fun seed ->
        let m = Sdd.manager (Vtree.random ~seed:(seed + 3) (small_vars 4)) in
        let f = Compile.sdd_of_boolfun m (Boolfun.random ~seed (small_vars 4)) in
        let g = Compile.sdd_of_boolfun m (Boolfun.random ~seed:(seed + 50) (small_vars 4)) in
        Sdd.equal f (Sdd.conjoin m f (Sdd.disjoin m f g))
        && Sdd.equal f (Sdd.disjoin m f (Sdd.conjoin m f g)));
    qtest "condition commutes with semantics" QCheck2.Gen.(int_range 0 25)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let m = Sdd.manager (Vtree.random ~seed:(seed + 8) (small_vars 4)) in
        let node = Compile.sdd_of_boolfun m f in
        let c = Sdd.condition m node "x02" false in
        Boolfun.equal
          (Sdd.to_boolfun m c)
          (Boolfun.lift (Boolfun.restrict f [ ("x02", false) ]) (small_vars 4)));
    qtest "model_count of negation complements" QCheck2.Gen.(int_range 0 25)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m = Sdd.manager (Vtree.balanced (small_vars 5)) in
        let node = Compile.sdd_of_boolfun m f in
        Bigint.equal
          (Bigint.add (Sdd.model_count m node) (Sdd.model_count m (Sdd.negate m node)))
          (Bigint.pow2 5));
  ]

let bdd_deep =
  let obdd order f =
    let m = Sdd.Obdd.manager order in
    (m, Compile.sdd_of_boolfun m f)
  in
  [
    case "parity OBDD size linear" (fun () ->
        List.iter
          (fun n ->
            let m, node = obdd (Families.xs n) (Families.parity n) in
            checki (Printf.sprintf "n=%d" n) (2 * n - 1) (Sdd.Obdd.size m node))
          [ 3; 5; 8 ]);
    case "majority OBDD quadratic-ish" (fun () ->
        let m, node = obdd (Families.xs 9) (Families.majority 9) in
        let size = Sdd.Obdd.size m node in
        checkb "quadratic band" true (size >= 9 && size <= 9 * 9));
    qtest "restrict then exists identity: exists x f = f when x unused"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let m, f = obdd (small_vars 5) (Boolfun.random ~seed (small_vars 4)) in
        (* x05 not in f's support *)
        Sdd.equal f (Sdd_queries.forget m [ "x05" ] f));
    qtest "level profile sums to size" QCheck2.Gen.(int_range 0 30) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m, node = obdd (small_vars 5) f in
        let sum profile = List.fold_left (fun acc (_, c) -> acc + c) 0 profile in
        Sdd.Obdd.size m node = sum (Sdd.Obdd.level_profile m node)
        && Sdd.Obdd.size m node = sum (Boolfun.obdd_profile f (small_vars 5)));
    qtest "obdd of lineage equals brute lineage" QCheck2.Gen.(int_range 1 2)
      (fun n ->
        let db = Pdb.complete_rst n in
        let q = Ucq.of_string "R(x), S(x,y)" in
        let m = Sdd.Obdd.manager (Lineage.variables db) in
        let node = Sdd.Obdd.compile_circuit m (Lineage.circuit q db) in
        Boolfun.equal (Sdd.to_boolfun m node) (Lineage.brute_force q db));
  ]

let comm_deep =
  [
    case "rank subadditive under stacking" (fun () ->
        let a = [| [| 1; 0 |]; [| 0; 1 |] |] in
        checki "rank 2" 2 (Comm.rank a));
    case "equality vs inequality matrices" (fun () ->
        (* EQ_n matrix is a permutation (identity): full rank. *)
        checki "EQ_2" 4 (Comm.cm_rank (Families.equality 2) (Families.xs 2) (Families.ys 2));
        (* parity's communication matrix has rank 2 under any split. *)
        let p = Families.parity 4 in
        checki "parity rank" 2
          (Comm.cm_rank p [ Families.x 1; Families.x 2 ] [ Families.x 3; Families.x 4 ]));
    qtest "rank invariant under row scaling by -1" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let m = Array.init 5 (fun _ -> Array.init 5 (fun _ -> Random.State.int st 3 - 1)) in
        let m' = Array.map (Array.map (fun x -> -x)) m in
        Comm.rank m = Comm.rank m');
    qtest "rank bounded by number of distinct rows" QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let mat = Comm.matrix f [ "x01"; "x02" ] [ "x03"; "x04" ] in
        let distinct =
          List.length (List.sort_uniq compare (Array.to_list (Array.map Array.to_list mat)))
        in
        Comm.rank mat <= distinct);
    qtest "theorem 2 consistent with factor counts"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        (* rank <= min(|factors(F,Y)|, |factors(F,Y')|)  — each factor
           class gives identical matrix rows. *)
        let f = Boolfun.random ~seed (small_vars 4) in
        let y = [ "x01"; "x02" ] in
        let rank = Comm.theorem2_bound f y in
        rank <= Boolfun.num_factors f y);
  ]

let core_deep =
  [
    case "fw on a vtree with all dummies but one" (fun () ->
        let f = Boolfun.var "x" in
        let vt = Vtree.balanced [ "a"; "b"; "x" ] in
        checki "fw" 2 (Factor_width.fw f vt));
    case "cnnf of a single variable" (fun () ->
        let f = Boolfun.var "x" in
        let r = Compile.cnnf f (Vtree.right_linear [ "x" ]) in
        check boolfun "computes x" f (Circuit.to_boolfun r.Compile.circuit));
    case "sdw of constant-ish functions" (fun () ->
        let vt = Vtree.balanced (small_vars 3) in
        checki "const true" 0 (Compile.sdw (Boolfun.const (small_vars 3) true) vt);
        checki "literal" 0 (Compile.sdw (Boolfun.var "x01") vt));
    case "fiw_min at most fw_min squared" (fun () ->
        let f = Families.majority 3 in
        let fw, _ = Factor_width.fw_min f in
        let fiw, _ = Compile.fiw_min f in
        checkb "fiw_min <= fw_min^2-ish" true (fiw <= fw * fw));
    qtest "sdw_min <= sdw on any specific vtree" QCheck2.Gen.(int_range 0 10)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 4) in
        let w, _ = Compile.sdw_min f in
        w <= Compile.sdw f (Vtree.balanced (small_vars 4)));
    qtest "cnnf counting via Snnf equals boolfun counting"
      QCheck2.Gen.(int_range 100 130)
      (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let vt = Vtree.random ~seed:(seed + 17) (small_vars 5) in
        let r = Compile.cnnf f vt in
        let missing = 5 - List.length (Circuit.variables r.Compile.circuit) in
        Bigint.to_int_exn
          (Bigint.mul (Bigint.pow2 missing) (Snnf.model_count r.Compile.circuit))
        = Boolfun.count_models_int f);
    qtest "factor-based and apply-based compilers agree on chain slices"
      QCheck2.Gen.(int_range 3 8)
      (fun n ->
        let c = Generators.chain_implications n in
        let vt, _ = Lemma1.vtree_of_circuit c in
        let m = Sdd.manager vt in
        Sdd.equal
          (Compile.sdd_of_boolfun m (Circuit.to_boolfun c))
          (Sdd.compile_circuit m c));
  ]

let pdb_deep =
  [
    case "query with repeated variable in one atom" (fun () ->
        let q = Ucq.of_string "S(x,x)" in
        let db =
          Pdb.uniform (Ratio.of_ints 1 2)
            [ Pdb.tuple "S" [ "1"; "1" ]; Pdb.tuple "S" [ "1"; "2" ] ]
        in
        check boolfun "diagonal only"
          (Boolfun.lift (Boolfun.var "S(1,1)") (Lineage.variables db))
          (Lineage.boolfun q db));
    case "empty-database lineage is false" (fun () ->
        let db = Pdb.make [] in
        let q = Ucq.of_string "R(x)" in
        check boolfun "ff" Boolfun.ff (Circuit.to_boolfun (Lineage.circuit q db)));
    case "probability of impossible and certain queries" (fun () ->
        let db = Pdb.make [ (Pdb.tuple "R" [ "1" ], Ratio.one) ] in
        check ratio "certain" Ratio.one (Prob.brute (Ucq.of_string "R(x)") db);
        check ratio "impossible" Ratio.zero (Prob.brute (Ucq.of_string "T(x)") db));
    case "hierarchical order on union falls back gracefully" (fun () ->
        let db = Pdb.complete_rst 2 in
        let q = Ucq.of_string "R(x) | T(y)" in
        let p, _ = Prob.via_obdd_exn q db in
        check ratio "matches brute" (Prob.brute q db) p);
    qtest "lineage variable monotonicity: adding facts grows models"
      QCheck2.Gen.(int_range 1 2)
      (fun n ->
        let db = Pdb.complete_rst n in
        let q = Ucq.of_string "R(x), S(x,y)" in
        let f = Lineage.boolfun q db in
        (* monotone: flipping any variable 0->1 cannot destroy a model *)
        let vars = Boolfun.variables f in
        List.for_all
          (fun m ->
            Boolfun.eval f m = false
            || List.for_all
                 (fun v -> Boolfun.eval f (Boolfun.Smap.add v true m))
                 vars)
          (Boolfun.models f));
    qtest "via_sdd equals via_obdd on random subdatabases"
      QCheck2.Gen.(int_range 0 12)
      (fun seed ->
        let st = Random.State.make [| seed; 777 |] in
        let facts =
          List.filter (fun _ -> Random.State.bool st) (Pdb.complete_rst 2).Pdb.facts
        in
        facts = []
        ||
        let db = Pdb.uniform (Ratio.of_ints 1 3) facts in
        let q = Ucq.of_string "R(x), S(x,y), T(y)" in
        let a, _ = Prob.via_obdd_exn q db in
        let b, _ = Prob.via_sdd_exn q db in
        Ratio.equal a b);
  ]


let bb_suite =
  [
    case "bb agrees with DP on small graphs" (fun () ->
        List.iter
          (fun g ->
            Alcotest.(check (option int)) "agree"
              (Some (Treewidth.exact g))
              (Treewidth.exact_bb g))
          [
            Ugraph.path_graph 8; Ugraph.cycle_graph 9; Ugraph.grid_graph 3 4;
            Ugraph.complete_graph 7; Ugraph.random_gnp ~seed:5 12 0.3;
            Ugraph.star_graph 9; Ugraph.create 0;
          ]);
    case "bb handles mid-size structured graphs" (fun () ->
        Alcotest.(check (option int)) "grid 3x8" (Some 3)
          (Treewidth.exact_bb (Ugraph.grid_graph 3 8));
        Alcotest.(check (option int)) "cycle 30" (Some 2)
          (Treewidth.exact_bb (Ugraph.cycle_graph 30));
        Alcotest.(check (option int)) "tree 30" (Some 1)
          (Treewidth.exact_bb (Ugraph.random_tree ~seed:9 30)));
    case "bb exact on a ladder circuit graph" (fun () ->
        let c = Generators.ladder ~tracks:2 3 in
        let g = Circuit.underlying_graph c in
        match Treewidth.exact_bb ~node_budget:2_000_000 g with
        | Some w ->
          let ub, _ = Treewidth.upper_bound g in
          checkb "le ub" true (w <= ub);
          checkb "ge mmd" true (w >= Treewidth.lower_bound_mmd g)
        | None -> () (* budget exhausted is acceptable *));
    case "budget exhaustion returns None" (fun () ->
        let g = Ugraph.random_gnp ~seed:3 30 0.4 in
        Alcotest.(check (option int)) "none" None (Treewidth.exact_bb ~node_budget:50 g));
    qtest "bb matches DP on random graphs" QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 11 0.35 in
        Treewidth.exact_bb g = Some (Treewidth.exact g));
  ]

let suites =
  [
    ("bigint_deep", bigint_deep);
    ("graph_deep", graph_deep);
    ("boolfun_deep", boolfun_deep);
    ("circuit_deep", circuit_deep);
    ("sdd_deep", sdd_deep);
    ("bdd_deep", bdd_deep);
    ("comm_deep", comm_deep);
    ("core_deep", core_deep);
    ("pdb_deep", pdb_deep);
    ("treewidth_bb", bb_suite);
  ]
