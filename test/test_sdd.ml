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
        let rows = Boolfun.all_assignments vs in
        let cases =
          List.map
            (fun (width, conj) ->
              let gates, ops = wide_gate ~seed ~conj width in
              (* The whole gate and its model count off the truth table
                 (10 variables, 1,024 rows): no SDD code involved. *)
              let whole =
                if width = 0 then None
                else
                  let c = Circuit.of_gates gates (Array.length gates - 1) in
                  Some (c, List.length (List.filter (Circuit.eval c) rows))
              in
              (conj, gates, ops, whole))
            (List.concat_map
               (fun w -> [ (w, true); (w, false) ])
               [ 0; 1; 2; 3; 64; 65 ])
        in
        List.for_all
          (fun vt ->
            let m = Sdd.manager vt in
            List.for_all
              (fun (conj, gates, ops, whole) ->
                let nodes =
                  List.map (fun o -> Sdd.compile_circuit m (segment gates o)) ops
                in
                let op, unit, list_op =
                  if conj then (Sdd.conjoin, Sdd.true_ m, Sdd.conjoin_list)
                  else (Sdd.disjoin, Sdd.false_ m, Sdd.disjoin_list)
                in
                let folded = List.fold_left (op m) unit nodes in
                Sdd.equal (list_op m nodes) folded
                &&
                match whole with
                | None -> true
                | Some (c, count) ->
                  Sdd.equal (Sdd.compile_circuit m c) folded
                  && Bigint.equal (Sdd.model_count m folded) (Bigint.of_int count))
              cases)
          [ Vtree.balanced vs; Vtree.random ~seed vs; Vtree.right_linear vs ]);
    qtest "decision compresses to the node of its disjunction" ~count:200
      QCheck2.Gen.(
        let* k = int_range 1 4 in
        let* pool = list_repeat 3 (int_range 0 6) in
        let* subs = list_repeat (1 lsl k) (int_range 0 2) in
        let* pad = int_range 0 (64 - (1 lsl k)) in
        let* pad_subs = list_repeat pad (int_range 0 2) in
        let* order = shuffle_l (List.init ((1 lsl k) + pad) Fun.id) in
        return (k, pool, subs, pad_subs, order))
      (fun (k, pool, subs, pad_subs, order) ->
        (* Primes: the 2^k minterms of the root's left variables, with ⊥
           primes mixed in; subs: three functions of the right ones, so
           a sub usually heads a group of several primes. *)
        let xs = List.init k (fun i -> Printf.sprintf "x%d" i)
        and ys = [ "y0"; "y1"; "y2" ] in
        let vt =
          Vtree.of_shape
            (Vtree.N
               ( Vtree.to_shape (Vtree.balanced xs),
                 Vtree.to_shape (Vtree.balanced ys) ))
        in
        let m = Sdd.manager vt in
        let lit = Sdd.literal m in
        let minterm bits =
          Sdd.conjoin_list m
            (List.mapi (fun i x -> lit x ((bits lsr i) land 1 = 1)) xs)
        in
        let candidates =
          [|
            Sdd.false_ m;
            Sdd.true_ m;
            lit "y0" true;
            lit "y0" false;
            Sdd.conjoin m (lit "y0" true) (lit "y1" true);
            Sdd.disjoin m (lit "y1" true) (lit "y2" false);
            Sdd.conjoin m (lit "y0" false) (lit "y2" true);
          |]
        in
        let sub i = candidates.(List.nth pool i) in
        let elems =
          Array.of_list
            (List.mapi (fun bits i -> (minterm bits, sub i)) subs
            @ List.map (fun i -> (Sdd.false_ m, sub i)) pad_subs)
        in
        let elems = List.map (Array.get elems) order in
        let d = Sdd.decision m (Vtree.root vt) elems in
        let want =
          Sdd.disjoin_list m (List.map (fun (p, s) -> Sdd.conjoin m p s) elems)
        in
        Sdd.equal d want && validate_ok m d);
    case "a 64-element decision is stored sorted by prime" (fun () ->
        (* Pairs the 64 minterms of x0..x5 with the 64 minterms of
           y0..y5 in a scrambled order: no two elements share a sub, so
           the node keeps all 64, past the small-fan-out sort. *)
        let xs = List.init 6 (Printf.sprintf "x%d")
        and ys = List.init 6 (Printf.sprintf "y%d") in
        let vt =
          Vtree.of_shape
            (Vtree.N
               ( Vtree.to_shape (Vtree.balanced xs),
                 Vtree.to_shape (Vtree.balanced ys) ))
        in
        let m = Sdd.manager vt in
        let minterm vs bits =
          Sdd.conjoin_list m
            (List.mapi (fun i v -> Sdd.literal m v ((bits lsr i) land 1 = 1)) vs)
        in
        let px = Array.init 64 (minterm xs) in
        let elems = List.init 64 (fun i -> (px.((i * 37) land 63), minterm ys i)) in
        let d = Sdd.decision m (Vtree.root vt) elems in
        checkb "same node as the disjunction" true
          (Sdd.equal d
             (Sdd.disjoin_list m
                (List.map (fun (p, s) -> Sdd.conjoin m p s) elems)));
        checkb "valid" true (validate_ok m d);
        match Sdd.view m d with
        | Sdd.Decision (_, es) ->
          checki "64 elements" 64 (List.length es);
          let primes = List.map fst es in
          checkb "ascending primes" true (List.sort compare primes = primes)
        | _ -> Alcotest.fail "expected a decision");
    case "a 64-element decision with repeated subs merges them by sub" (fun () ->
        (* The 64 minterms of x0..x5 share 8 subs in a scrambled order:
           past the scanned fan-out the groups are found by hashing, and
           each group's primes must still be disjoined into one. *)
        let xs = List.init 6 (Printf.sprintf "x%d")
        and ys = List.init 3 (Printf.sprintf "y%d") in
        let vt =
          Vtree.of_shape
            (Vtree.N
               ( Vtree.to_shape (Vtree.balanced xs),
                 Vtree.to_shape (Vtree.balanced ys) ))
        in
        let m = Sdd.manager vt in
        let minterm vs bits =
          Sdd.conjoin_list m
            (List.mapi (fun i v -> Sdd.literal m v ((bits lsr i) land 1 = 1)) vs)
        in
        let elems =
          List.init 64 (fun i -> (minterm xs ((i * 37) land 63), minterm ys (i * 5 land 7)))
        in
        let d = Sdd.decision m (Vtree.root vt) elems in
        checkb "same node as the disjunction" true
          (Sdd.equal d
             (Sdd.disjoin_list m
                (List.map (fun (p, s) -> Sdd.conjoin m p s) elems)));
        checkb "valid" true (validate_ok m d);
        match Sdd.view m d with
        | Sdd.Decision (_, es) -> checki "one element per sub" 8 (List.length es)
        | _ -> Alcotest.fail "expected a decision");
    case "decision trims empty, single-group and literal decisions" (fun () ->
        let vt = Vtree.balanced [ "x"; "y" ] in
        let m = Sdd.manager vt and v = Vtree.root vt in
        let x = Sdd.literal m "x" true and nx = Sdd.literal m "x" false in
        let y = Sdd.literal m "y" true in
        let t = Sdd.true_ m and f = Sdd.false_ m in
        let node = Alcotest.testable (Sdd.pp m) Sdd.equal in
        check node "no elements" f (Sdd.decision m v []);
        check node "one group" y (Sdd.decision m v [ (x, y); (f, t); (nx, y) ]);
        check node "(p,⊤)/(¬p,⊥)" x (Sdd.decision m v [ (x, t); (nx, f) ]);
        check node "(¬p,⊥)/(p,⊤)" x (Sdd.decision m v [ (nx, f); (f, y); (x, t) ]);
        checki "nothing interned" 0 (Sdd.census m).Sdd.decisions);
    qtest "conjoin size never exceeds product bound" QCheck2.Gen.(int_range 0 20)
      (fun seed ->
        let m = Sdd.manager (Vtree.balanced (vars 4)) in
        let f = Sdd.of_boolfun_naive m (Boolfun.random ~seed (vars 4)) in
        let g = Sdd.of_boolfun_naive m (Boolfun.random ~seed:(seed + 3) (vars 4)) in
        let h = Sdd.conjoin m f g in
        (* Polytime apply bound: |f∧g| = O(|f|·|g|) (sizes +1 for literals). *)
        Sdd.size m h <= (Sdd.size m f + 2) * (Sdd.size m g + 2) * 4);
    case "cache table agrees with a Hashtbl across resizes" (fun () ->
        let st = Random.State.make [| 38 |] in
        let t = Sdd.Cache_tbl.create () and model = Hashtbl.create 16 in
        let words0 = Sdd.Cache_tbl.words t in
        (* Keys in a small range so that about a third of the writes
           rebind an existing key; apply-shaped keys reach 2^62. *)
        let key () =
          let k = Random.State.int st 3000 in
          if k land 1 = 0 then k else (k lsl 31) lor Random.State.int st 8
        in
        for _ = 1 to 3000 do
          let k = key () and v = Random.State.full_int st (1 lsl 31) in
          Sdd.Cache_tbl.replace t k v;
          Hashtbl.replace model k v;
          let k' = key () in
          checki "find"
            (Option.value ~default:(-1) (Hashtbl.find_opt model k'))
            (Sdd.Cache_tbl.find t k')
        done;
        checki "length" (Hashtbl.length model) (Sdd.Cache_tbl.length t);
        checkb "at least 3 resizes" true (Sdd.Cache_tbl.words t >= 8 * words0);
        Hashtbl.iter
          (fun k v -> checki "every binding" v (Sdd.Cache_tbl.find t k))
          model;
        checki "absent key" (-1) (Sdd.Cache_tbl.find t (1 lsl 40));
        let seen = Hashtbl.create 16 in
        Sdd.Cache_tbl.iter
          (fun k v ->
            checkb "visited once" false (Hashtbl.mem seen k);
            Hashtbl.add seen k ();
            checki "iter value" (Hashtbl.find model k) v)
          t;
        checki "iter visits every binding" (Hashtbl.length model)
          (Hashtbl.length seen));
    case "ladder compile: pinned node and cache counters" (fun () ->
        (* The caches never evict, so these counts are a function of the
           circuit and the vtree alone; a lossy cache or a reordered
           apply moves them. *)
        let c = Generators.ladder ~tracks:4 9 in
        let m = Sdd.manager (fst (Pipeline.treedec_vtree c)) in
        ignore (Sdd.compile_circuit m c);
        checki "nodes allocated" 8931 (Sdd.num_nodes_allocated m);
        let hits_lookups name =
          match
            List.find_opt
              (fun (s : Sdd.cache_stat) -> s.Sdd.cache = name)
              (Sdd.stats m)
          with
          | Some s -> (s.Sdd.hits, s.Sdd.lookups)
          | None -> Alcotest.failf "no %s statistics" name
        in
        let pair = Alcotest.(pair int int) in
        check pair "unique" (4733, 13582) (hits_lookups "sdd.unique");
        check pair "and" (80844, 93714) (hits_lookups "sdd.and_cache");
        check pair "or" (20456, 26796) (hits_lookups "sdd.or_cache");
        check pair "neg" (1243, 1329) (hits_lookups "sdd.neg_cache"));
    case "ladder compile: compaction keeps the model count" (fun () ->
        let c = Generators.ladder ~tracks:4 9 in
        let vt = fst (Pipeline.treedec_vtree c) in
        let count compact_every =
          let m = Sdd.manager ?compact_every vt in
          Bigint.to_string (Sdd.model_count m (Sdd.compile_circuit m c))
        in
        let plain = count None in
        List.iter
          (fun n ->
            Alcotest.(check string)
              (Printf.sprintf "compact_every %d" n)
              plain
              (count (Some n)))
          [ 1; 7; 64 ]);
  ]

let suites = [ ("sdd", sdd_suite) ]
