(* Function-level OBDD facts on the arena OBDD ({!Sdd.Obdd}): canonicity,
   counting, and the order dependence of OBDD width. *)

open Test_util

let lit m v = Sdd.literal m v true

(* Every permutation of a (small) variable list. *)
let rec orders = function
  | [] -> [ [] ]
  | vars ->
    List.concat_map
      (fun x -> List.map (List.cons x) (orders (List.filter (( <> ) x) vars)))
      vars

let obdd_of_boolfun order f =
  let m = Sdd.Obdd.manager order in
  (m, Compile.sdd_of_boolfun m f)

let bdd_suite =
  [
    case "constants and canonicity" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y" ] in
        checkb "t<>f" false (Sdd.equal (Sdd.true_ m) (Sdd.false_ m));
        let x = lit m "x" in
        checkb "x & x = x" true (Sdd.equal (Sdd.Obdd.conjoin m x x) x);
        checkb "x & ~x = F" true
          (Sdd.is_false m (Sdd.Obdd.conjoin m x (Sdd.negate m x)));
        checkb "x | ~x = T" true
          (Sdd.is_true m (Sdd.Obdd.disjoin m x (Sdd.negate m x))));
    case "canonicity across equivalent formulas" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y"; "z" ] in
        let x = lit m "x" and y = lit m "y" and z = lit m "z" in
        let a =
          Sdd.Obdd.disjoin m (Sdd.Obdd.conjoin m x y) (Sdd.Obdd.conjoin m x z)
        in
        let b = Sdd.Obdd.conjoin m x (Sdd.Obdd.disjoin m y z) in
        checkb "distribution" true (Sdd.equal a b));
    case "model count" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y"; "z" ] in
        let f = Sdd.Obdd.disjoin m (lit m "x") (lit m "y") in
        check bigint "6 models" (Bigint.of_int 6) (Sdd.model_count m f);
        check bigint "T" (Bigint.of_int 8) (Sdd.model_count m (Sdd.true_ m));
        check bigint "F" Bigint.zero (Sdd.model_count m (Sdd.false_ m)));
    case "restrict and quantify" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y" ] in
        let y = lit m "y" in
        let f = Sdd.Obdd.conjoin m (lit m "x") y in
        let f0 = Sdd.condition m f "x" false and f1 = Sdd.condition m f "x" true in
        checkb "f|x=1 = y" true (Sdd.equal f1 y);
        checkb "exists x f = y" true
          (Sdd.equal (Sdd_queries.forget m [ "x" ] f) y);
        checkb "forall x f = F" true (Sdd.is_false m (Sdd.Obdd.conjoin m f0 f1)));
    case "width of chain vs parity" (fun () ->
        (* chain implications: constant OBDD width in the natural order *)
        let n = 8 in
        let vars = List.init n (fun i -> Printf.sprintf "x%02d" (i + 1)) in
        let m, f = obdd_of_boolfun vars (Families.chain_implications n) in
        checkb "chain width <= 2" true (Sdd.Obdd.width m f <= 2);
        let m, p = obdd_of_boolfun vars (Families.parity n) in
        checkb "parity width = 2" true (Sdd.Obdd.width m p = 2));
    case "disjointness width by order" (fun () ->
        (* Interleaved order x1 y1 x2 y2... gives constant width; separated
           order x1..xn y1..yn gives exponential width. *)
        let n = 4 in
        let interleaved =
          List.concat (List.init n (fun i -> [ Families.x (i + 1); Families.y (i + 1) ]))
        in
        let separated = Families.xs n @ Families.ys n in
        let f = Families.disjointness n in
        let mi, fi = obdd_of_boolfun interleaved f in
        let ms, fs = obdd_of_boolfun separated f in
        checkb "interleaved constant" true (Sdd.Obdd.width mi fi <= 2);
        checkb "separated exponential" true
          (Sdd.Obdd.width ms fs >= 1 lsl (n - 1)));
    case "probability" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y" ] in
        let f = Sdd.Obdd.disjoin m (lit m "x") (lit m "y") in
        Alcotest.(check (float 1e-9)) "p(x|y)" 0.75 (Sdd.probability m f (fun _ -> 0.5));
        check ratio "exact" (Ratio.of_ints 3 4)
          (Sdd.probability_ratio m f (fun _ -> Ratio.of_ints 1 2)));
    case "any_model" (fun () ->
        let m = Sdd.Obdd.manager [ "x"; "y" ] in
        Alcotest.(check (option (list (pair string bool))))
          "F has none" None (Sdd.any_model m (Sdd.false_ m));
        let f = Sdd.Obdd.conjoin m (lit m "x") (Sdd.literal m "y" false) in
        Alcotest.(check (option (list (pair string bool))))
          "the only model" (Some [ ("x", true); ("y", false) ])
          (Sdd.any_model m f));
    case "best order on disjointness" (fun () ->
        (* Reduced OBDDs skip dead levels, so the interleaved order gives
           width 1 for D_2: constant width, as the theory predicts. *)
        let f = Families.disjointness 2 in
        let best =
          List.fold_left
            (fun acc order ->
              let m, node = obdd_of_boolfun order f in
              min acc (Sdd.Obdd.width m node))
            max_int
            (orders (Boolfun.variables f))
        in
        checki "obdd width of D_2" 1 best);
    qtest "of_boolfun/to_boolfun roundtrip" QCheck2.Gen.(int_range 0 80) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m, node = obdd_of_boolfun (small_vars 5) f in
        Boolfun.equal f (Sdd.to_boolfun m node));
    qtest "compile_circuit agrees with to_boolfun" QCheck2.Gen.(int_range 0 60)
      (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:5 in
        let m = Sdd.Obdd.manager (small_vars 4) in
        let node = Sdd.Obdd.compile_circuit m c in
        Boolfun.equal
          (Boolfun.lift (Circuit.to_boolfun c) (small_vars 4))
          (Sdd.to_boolfun m node));
    qtest "model count agrees with boolfun" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let f = Boolfun.random ~seed (small_vars 5) in
        let m, node = obdd_of_boolfun (small_vars 5) f in
        Bigint.to_int_exn (Sdd.model_count m node) = Boolfun.count_models_int f);
    qtest "size monotone under ite decomposition" QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        (* Shannon expansion on the top variable rebuilds the same node. *)
        let f = Boolfun.random ~seed (small_vars 4) in
        let m, bf = obdd_of_boolfun (small_vars 4) f in
        let x = lit m "x01" in
        let decomposed =
          Sdd.Obdd.disjoin m
            (Sdd.Obdd.conjoin m x (Sdd.condition m bf "x01" true))
            (Sdd.Obdd.conjoin m (Sdd.negate m x) (Sdd.condition m bf "x01" false))
        in
        Sdd.equal bf decomposed);
  ]

let suites = [ ("bdd", bdd_suite) ]
