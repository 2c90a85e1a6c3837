open Test_util

let vars n = small_vars n

let managers_for n =
  [
    ("right-linear", Sdd.manager (Vtree.right_linear (vars n)));
    ("balanced", Sdd.manager (Vtree.balanced (vars n)));
    ("random", Sdd.manager (Vtree.random ~seed:42 (vars n)));
  ]

let validate_ok m node =
  match Sdd.validate m node with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid SDD: %s" msg

(* Gates of a circuit whose output is one [width]-ary And ([conj]) or
   Or, and the operands as (first gate, last gate) pairs.  An operand
   is a constant (absorbing with probability 1/(4·width), so a wide
   gate is seldom constant) or the dual gate over 4-7 literals and
   two-literal subformulas on 10 variables. *)
let wide_gate ~seed ~conj width =
  let st = Random.State.make [| seed; width; Bool.to_int conj |] in
  let gates = ref [] and n = ref 0 and starts = ref [] in
  let push g =
    gates := g :: !gates;
    incr n;
    !n - 1
  in
  let lit () =
    let v = push (Circuit.Var (Families.x (1 + Random.State.int st 10))) in
    if Random.State.bool st then push (Circuit.Not v) else v
  in
  let sub () =
    match Random.State.int st 3 with
    | 0 -> push (Circuit.And [ lit (); lit () ])
    | 1 -> push (Circuit.Or [ lit (); lit () ])
    | _ -> lit ()
  in
  let operand () =
    starts := !n :: !starts;
    match Random.State.int st (4 * width) with
    | 0 -> push (Circuit.Const (not conj))
    | 1 | 2 -> push (Circuit.Const conj)
    | _ ->
      let ops = List.init (4 + Random.State.int st 4) (fun _ -> sub ()) in
      push (if conj then Circuit.Or ops else Circuit.And ops)
  in
  let ops = List.init width (fun _ -> operand ()) in
  (* A circuit has no empty gate: width 0 exists only as a list. *)
  if ops <> [] then ignore (push (if conj then Circuit.And ops else Circuit.Or ops));
  (Array.of_list (List.rev !gates), List.combine (List.rev !starts) ops)

(* The operand whose gates start at [start] and end at [j], as a
   circuit of its own. *)
let segment gates (start, j) =
  let shift = List.map (fun i -> i - start) in
  Circuit.of_gates
    (Array.map
       (function
         | Circuit.Not i -> Circuit.Not (i - start)
         | Circuit.And is -> Circuit.And (shift is)
         | Circuit.Or is -> Circuit.Or (shift is)
         | g -> g)
       (Array.sub gates start (j - start + 1)))
    (j - start)

let sdd_suite =
  [
    case "constants and literals" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        checkb "T" true (Sdd.is_true m (Sdd.true_ m));
        checkb "F" true (Sdd.is_false m (Sdd.false_ m));
        let x = Sdd.literal m "x" true in
        checkb "x & ~x = F" true
          (Sdd.is_false m (Sdd.conjoin m x (Sdd.negate m x)));
        checkb "x | ~x = T" true (Sdd.is_true m (Sdd.disjoin m x (Sdd.negate m x))));
    case "canonicity: equivalent formulas share handles" (fun () ->
        List.iter
          (fun (_, m) ->
            let l v = Sdd.literal m v true in
            let a = Sdd.disjoin m (Sdd.conjoin m (l "x01") (l "x02"))
                      (Sdd.conjoin m (l "x01") (l "x03")) in
            let b = Sdd.conjoin m (l "x01") (Sdd.disjoin m (l "x02") (l "x03")) in
            checkb "distribution" true (Sdd.equal a b))
          (managers_for 3));
    case "negation involution" (fun () ->
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let f = Boolfun.random ~seed:7 (vars 4) in
        let node = Sdd.of_boolfun_naive m f in
        checkb "~~f = f" true (Sdd.equal node (Sdd.negate m (Sdd.negate m node))));
    case "model count simple" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y"; "z" ]) in
        let f = Sdd.disjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true) in
        check bigint "6" (Bigint.of_int 6) (Sdd.model_count m f);
        check bigint "8" (Bigint.of_int 8) (Sdd.model_count m (Sdd.true_ m)));
    case "probability" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let f = Sdd.disjoin m (Sdd.literal m "x" true) (Sdd.literal m "y" true) in
        Alcotest.(check (float 1e-9)) "3/4" 0.75 (Sdd.probability m f (fun _ -> 0.5));
        check ratio "3/4 exact" (Ratio.of_ints 3 4)
          (Sdd.probability_ratio m f (fun _ -> Ratio.of_ints 1 2)));
    case "condition" (fun () ->
        let m = Sdd.manager (Vtree.balanced (vars 3)) in
        let f = Boolfun.random ~seed:21 (vars 3) in
        let node = Sdd.of_boolfun_naive m f in
        let c = Sdd.condition m node "x02" true in
        checkb "matches boolfun restrict" true
          (Boolfun.equal
             (Boolfun.lift (Boolfun.restrict f [ ("x02", true) ]) (vars 3))
             (Sdd.to_boolfun m c)));
    case "any_model" (fun () ->
        let m = Sdd.manager (Vtree.balanced (vars 3)) in
        Alcotest.(check (option (list (pair string bool))))
          "F" None (Sdd.any_model m (Sdd.false_ m));
        let f =
          Sdd.conjoin m (Sdd.literal m "x01" true) (Sdd.literal m "x03" false)
        in
        match Sdd.any_model m f with
        | None -> Alcotest.fail "expected a model"
        | Some asg ->
          checkb "model satisfies" true
            (Sdd.eval m f (Boolfun.assignment_of_list asg)));
    case "width on right-linear vtree is OBDD-like" (fun () ->
        (* Chain implications have constant SDD width on the right-linear
           vtree (= constant OBDD width). *)
        let n = 8 in
        let vs = List.init n (fun i -> Families.x (i + 1)) in
        let m = Sdd.manager (Vtree.right_linear vs) in
        let node = Sdd.compile_circuit m (Generators.chain_implications n) in
        checkb "width small" true (Sdd.width m node <= 4);
        checkb "size linear-ish" true (Sdd.size m node <= 6 * n));
    case "to_nnf_circuit is equivalent and structured" (fun () ->
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let f = Boolfun.random ~seed:33 (vars 4) in
        let node = Sdd.of_boolfun_naive m f in
        let c = Sdd.to_nnf_circuit m node in
        checkb "nnf" true (Circuit.is_nnf c);
        checkb "equivalent" true
          (Boolfun.equal (Boolfun.lift (Circuit.to_boolfun c) (vars 4))
             (Sdd.to_boolfun m node)));
    qtest "of_boolfun_naive roundtrips" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        List.for_all
          (fun (_, m) ->
            Boolfun.equal f (Sdd.to_boolfun m (Sdd.of_boolfun_naive m f)))
          (managers_for 4));
    qtest "validate holds on random functions" QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        List.for_all
          (fun (_, m) -> validate_ok m (Sdd.of_boolfun_naive m f))
          (managers_for 4));
    qtest "compile_circuit agrees with circuit semantics"
      QCheck2.Gen.(int_range 0 60)
      (fun seed ->
        let c = Generators.random_formula ~seed ~vars:4 ~depth:5 in
        let m = Sdd.manager (Vtree.random ~seed:(seed * 3 + 1) (vars 4)) in
        let node = Sdd.compile_circuit m c in
        Boolfun.equal
          (Boolfun.lift (Circuit.to_boolfun c) (vars 4))
          (Sdd.to_boolfun m node))
      ~count:60;
    qtest "apply de morgan" QCheck2.Gen.(int_range 0 40) (fun seed ->
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let f = Sdd.of_boolfun_naive m (Boolfun.random ~seed (vars 4)) in
        let g = Sdd.of_boolfun_naive m (Boolfun.random ~seed:(seed + 777) (vars 4)) in
        Sdd.equal (Sdd.negate m (Sdd.conjoin m f g))
          (Sdd.disjoin m (Sdd.negate m f) (Sdd.negate m g)));
    qtest "model count agrees with boolfun" QCheck2.Gen.(int_range 0 50) (fun seed ->
        let f = Boolfun.random ~seed (vars 5) in
        let m = Sdd.manager (Vtree.random ~seed:(seed + 13) (vars 5)) in
        Bigint.to_int_exn (Sdd.model_count m (Sdd.of_boolfun_naive m f))
        = Boolfun.count_models_int f);
    qtest "probability agrees with weighted enumeration"
      QCheck2.Gen.(int_range 0 30)
      (fun seed ->
        let f = Boolfun.random ~seed (vars 4) in
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let node = Sdd.of_boolfun_naive m f in
        let w v = match v with "x01" -> 0.9 | "x02" -> 0.4 | "x03" -> 0.25 | _ -> 0.5 in
        let brute =
          List.fold_left
            (fun acc asg ->
              if Boolfun.eval f asg then
                acc
                +. Boolfun.Smap.fold
                     (fun v b p -> p *. (if b then w v else 1.0 -. w v))
                     asg 1.0
              else acc)
            0.0
            (Boolfun.all_assignments (vars 4))
        in
        abs_float (Sdd.probability m node w -. brute) < 1e-9);
    qtest "wide gates fold pairwise to the left fold's node"
      QCheck2.Gen.(int_range 0 1000) ~count:12
      (fun seed ->
        let vs = vars 10 in
        (* Counts are cross-checked on a d-DNNF manager off the random
           vtree only: without hash-consing, wide gates there take
           seconds each whatever the fold order. *)
        List.for_all
          (fun (vt, dnnf) ->
            let m = Sdd.manager vt in
            List.for_all
              (fun (width, conj) ->
                let gates, ops = wide_gate ~seed ~conj width in
                let nodes =
                  List.map (fun o -> Sdd.compile_circuit m (segment gates o)) ops
                in
                let op, unit, list_op =
                  if conj then (Sdd.conjoin, Sdd.true_ m, Sdd.conjoin_list)
                  else (Sdd.disjoin, Sdd.false_ m, Sdd.disjoin_list)
                in
                let folded = List.fold_left (op m) unit nodes in
                let whole m =
                  Sdd.compile_circuit m
                    (Circuit.of_gates gates (Array.length gates - 1))
                in
                Sdd.equal (list_op m nodes) folded
                && (width = 0
                   || Sdd.equal (whole m) folded
                      && ((not dnnf)
                         || Bigint.equal (Sdd.model_count m folded)
                              (let d = Sdd.dnnf_manager vt in
                               Sdd.model_count d (whole d)))))
              (List.concat_map
                 (fun w -> [ (w, true); (w, false) ])
                 [ 0; 1; 2; 3; 64; 65 ]))
          [
            (Vtree.balanced vs, true);
            (Vtree.random ~seed vs, false);
            (Vtree.right_linear vs, true);
          ]);
    qtest "conjoin size never exceeds product bound" QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let f = Sdd.of_boolfun_naive m (Boolfun.random ~seed (vars 4)) in
        let g = Sdd.of_boolfun_naive m (Boolfun.random ~seed:(seed + 3) (vars 4)) in
        let h = Sdd.conjoin m f g in
        (* Polytime apply bound: |f∧g| = O(|f|·|g|) (sizes +1 for literals). *)
        Sdd.size m h <= (Sdd.size m f + 2) * (Sdd.size m g + 2) * 4);
  ]

let suites = [ ("sdd", sdd_suite) ]
