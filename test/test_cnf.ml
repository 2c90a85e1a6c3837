(* CNF preprocessing, component decomposition, and the SAT-scale
   compile_cnf path: exactness against brute-force model counts, the
   count-preservation laws, and the degraded-result contract. *)

open Test_util

(* Brute-force model count over the declared variable range (feasible
   up to ~16 variables). *)
let brute_count (d : Dimacs.t) =
  let n = d.Dimacs.num_vars in
  assert (n <= 20);
  let count = ref 0 in
  for m = 0 to (1 lsl n) - 1 do
    let sat_lit l =
      let bit = (m lsr (abs l - 1)) land 1 = 1 in
      if l > 0 then bit else not bit
    in
    if List.for_all (fun c -> List.exists sat_lit c) d.Dimacs.clauses then
      incr count
  done;
  !count

let cnf ~vars clauses = { Dimacs.num_vars = vars; clauses }

(* qcheck generator: a small CNF as (num_vars, clauses) with literals in
   ±1..vars; clauses of length 0..4, possibly duplicated/tautological. *)
let cnf_gen ~max_vars ~max_clauses =
  let open QCheck2.Gen in
  int_range 1 max_vars >>= fun vars ->
  let lit = int_range 1 vars >>= fun v -> oneofl [ v; -v ] in
  list_size (int_range 0 max_clauses) (list_size (int_range 0 4) lit)
  >>= fun clauses -> return (cnf ~vars clauses)

(* ------------------------------------------------------------------ *)
(* Preprocessing                                                       *)
(* ------------------------------------------------------------------ *)

let preprocess_tests =
  [
    case "unit chain collapses entirely" (fun () ->
        (* x1, x1→x2, ..., x4→x5: all variables forced. *)
        let d =
          cnf ~vars:5 ([ 1 ] :: List.init 4 (fun i -> [ -(i + 1); i + 2 ]))
        in
        match Cnf_preprocess.run d with
        | Unsat -> Alcotest.fail "satisfiable chain reported Unsat"
        | Simplified s ->
          checki "residual clauses" 0 (List.length s.cnf.Dimacs.clauses);
          checki "forced" 5 (List.length s.forced);
          List.iter
            (fun (_, b) -> checkb "forced true" true b)
            s.forced;
          checki "free" 0 s.free_vars;
          checkb "exact" true (Cnf_preprocess.count_exact s);
          check bigint "count" (Bigint.of_int 1)
            (Cnf_preprocess.original_count s (Bigint.of_int 1)));
    case "conflicting units are Unsat" (fun () ->
        match Cnf_preprocess.run (cnf ~vars:2 [ [ 1 ]; [ -1 ] ]) with
        | Unsat -> ()
        | Simplified _ -> Alcotest.fail "x ∧ ¬x not Unsat");
    case "empty clause is Unsat" (fun () ->
        match Cnf_preprocess.run (cnf ~vars:3 [ [ 1; 2 ]; [] ]) with
        | Unsat -> ()
        | Simplified _ -> Alcotest.fail "empty clause not Unsat");
    case "a min_int literal is out of range" (fun () ->
        try
          ignore (Cnf_preprocess.run (cnf ~vars:2 [ [ min_int ] ]));
          Alcotest.fail "min_int literal accepted"
        with Invalid_argument msg ->
          checks "message" "Cnf_preprocess.run: literal out of range" msg);
    case "tautologies and duplicates are counted and removed" (fun () ->
        let d =
          cnf ~vars:3 [ [ 1; -1; 2 ]; [ 2; 3 ]; [ 3; 2 ]; [ 2; 2; 3 ] ]
        in
        match Cnf_preprocess.run d with
        | Unsat -> Alcotest.fail "unexpected Unsat"
        | Simplified s ->
          checki "tautologies" 1 s.removed_tautologies;
          (* [3;2] and [2;2;3] both normalize to [2;3]. *)
          checki "duplicates" 2 s.removed_duplicates;
          checki "residual" 1 (List.length s.cnf.Dimacs.clauses));
    case "pure literals only at `Sat level" (fun () ->
        (* x1 occurs only positively. *)
        let d = cnf ~vars:2 [ [ 1; 2 ]; [ 1; -2 ] ] in
        (match Cnf_preprocess.run ~level:`Count d with
         | Unsat -> Alcotest.fail "unexpected Unsat"
         | Simplified s ->
           checkb "no pures at Count" true (s.pure_eliminated = []);
           checkb "exact at Count" true (Cnf_preprocess.count_exact s));
        match Cnf_preprocess.run ~level:`Sat d with
        | Unsat -> Alcotest.fail "unexpected Unsat"
        | Simplified s ->
          checkb "pures found at Sat" true (s.pure_eliminated <> []);
          checkb "not exact" false (Cnf_preprocess.count_exact s);
          let lo, hi = Cnf_preprocess.count_bounds s (Bigint.of_int 1) in
          (* True count of (x1∨x2)(x1∨¬x2) over 2 vars is 2. *)
          checkb "lo ≤ 2" true (Bigint.compare lo (Bigint.of_int 2) <= 0);
          checkb "2 ≤ hi" true (Bigint.compare (Bigint.of_int 2) hi <= 0));
    qtest ~count:300 "Count-level preprocessing preserves the model count"
      (cnf_gen ~max_vars:6 ~max_clauses:8)
      (fun d ->
        let truth = brute_count d in
        match Cnf_preprocess.run ~level:`Count d with
        | Unsat -> truth = 0
        | Simplified s ->
          let core = Bigint.of_int (brute_count s.cnf) in
          Bigint.equal (Bigint.of_int truth)
            (Cnf_preprocess.original_count s core));
    qtest ~count:300 "Sat-level bounds bracket the true count"
      (cnf_gen ~max_vars:6 ~max_clauses:8)
      (fun d ->
        let truth = Bigint.of_int (brute_count d) in
        match Cnf_preprocess.run ~level:`Sat d with
        | Unsat -> Bigint.equal truth Bigint.zero
        | Simplified s ->
          let core = Bigint.of_int (brute_count s.cnf) in
          let lo, hi = Cnf_preprocess.count_bounds s core in
          Bigint.compare lo truth <= 0 && Bigint.compare truth hi <= 0);
  ]

(* ------------------------------------------------------------------ *)
(* Component decomposition                                             *)
(* ------------------------------------------------------------------ *)

let union_find_tests =
  let module U = Ugraph.Union_find in
  [
    case "singletons" (fun () ->
        let uf = U.create 4 in
        checki "classes" 4 (U.count uf);
        checki "groups" 4 (List.length (U.groups uf)));
    case "union merges and is idempotent" (fun () ->
        let uf = U.create 5 in
        U.union uf 0 3;
        U.union uf 3 0;
        U.union uf 1 4;
        checki "classes" 3 (U.count uf);
        checki "find join" (U.find uf 0) (U.find uf 3);
        checkb "distinct classes" true (U.find uf 0 <> U.find uf 1);
        let groups = U.groups uf in
        checkb "groups partition" true
          (List.sort compare (List.concat groups) = [ 0; 1; 2; 3; 4 ]));
    case "groups ordered by smallest member" (fun () ->
        let uf = U.create 4 in
        U.union uf 2 3;
        match U.groups uf with
        | [ [ 0 ]; [ 1 ]; [ 2; 3 ] ] -> ()
        | gs ->
          Alcotest.failf "unexpected groups: %s"
            (String.concat "|"
               (List.map
                  (fun g -> String.concat "," (List.map string_of_int g))
                  gs)));
  ]

let split_tests =
  [
    case "disjoint chains split into components" (fun () ->
        let d = cnf ~vars:6 [ [ -1; 2 ]; [ -2; 3 ]; [ -4; 5 ]; [ -5; 6 ] ] in
        let comps = Cnf_preprocess.split d in
        checki "components" 2 (List.length comps);
        List.iter
          (fun c ->
            checki "vars" 3 c.Cnf_preprocess.comp_cnf.Dimacs.num_vars;
            checki "clauses" 2
              (List.length c.Cnf_preprocess.comp_cnf.Dimacs.clauses))
          comps);
    case "empty clause rides with a component" (fun () ->
        let d = cnf ~vars:2 [ [ 1; 2 ]; [] ] in
        match Cnf_preprocess.split d with
        | [ c ] ->
          checki "brute zero" 0 (brute_count c.Cnf_preprocess.comp_cnf)
        | comps -> Alcotest.failf "expected 1 component, got %d"
                     (List.length comps));
    case "variable-free CNF" (fun () ->
        checki "no clauses" 0 (List.length (Cnf_preprocess.split (cnf ~vars:3 [])));
        match Cnf_preprocess.split (cnf ~vars:3 [ [] ]) with
        | [ c ] -> checki "vars" 0 c.Cnf_preprocess.comp_cnf.Dimacs.num_vars
        | _ -> Alcotest.fail "empty-clause bundle lost");
    qtest ~count:300 "component counts multiply to the global count"
      (cnf_gen ~max_vars:8 ~max_clauses:8)
      (fun d ->
        let comps = Cnf_preprocess.split d in
        let used = Hashtbl.create 16 in
        List.iter
          (List.iter (fun l -> Hashtbl.replace used (abs l) ()))
          d.Dimacs.clauses;
        let unused = d.Dimacs.num_vars - Hashtbl.length used in
        let product =
          List.fold_left
            (fun acc c ->
              acc * brute_count c.Cnf_preprocess.comp_cnf)
            1 comps
        in
        brute_count d = product * (1 lsl unused));
    qtest ~count:300 "split partitions used variables and all clauses"
      (cnf_gen ~max_vars:8 ~max_clauses:8)
      (fun d ->
        let comps = Cnf_preprocess.split d in
        let used = Hashtbl.create 16 in
        List.iter
          (List.iter (fun l -> Hashtbl.replace used (abs l) ()))
          d.Dimacs.clauses;
        let comp_vars =
          List.concat_map
            (fun c -> Array.to_list c.Cnf_preprocess.comp_var_of_new)
            comps
        in
        List.length comp_vars = Hashtbl.length used
        && List.for_all (Hashtbl.mem used) comp_vars
        && List.fold_left
             (fun acc c ->
               acc + List.length c.Cnf_preprocess.comp_cnf.Dimacs.clauses)
             0 comps
           = List.length d.Dimacs.clauses);
    case "out-of-range literal is invalid input with or without preprocessing"
      (fun () ->
        List.iter
          (fun clauses ->
            List.iter
              (fun (preprocess, fn) ->
                match Pipeline.compile_cnf ~preprocess (cnf ~vars:2 clauses) with
                | Ok _ -> Alcotest.fail "out-of-range literal accepted"
                | Error e ->
                  checki "exit code" 3 (Ctwsdd_error.exit_code e);
                  checks "message"
                    ("invalid input: Cnf_preprocess." ^ fn
                   ^ ": literal out of range")
                    (Ctwsdd_error.to_string e))
              [ (false, "split"); (true, "run") ])
          [ [ [ 5; 1 ] ]; [ [ 1; -3 ] ]; [ [ 2 ]; [ 0; 1 ] ]; [ [ 5 ]; [] ] ]);
    case "free_var_count ignores out-of-range literals" (fun () ->
        checki "[[5; 1]] over 2" 1
          (Dimacs.free_var_count (cnf ~vars:2 [ [ 5; 1 ] ]));
        checki "[[-7]; [0]] over 3" 3
          (Dimacs.free_var_count (cnf ~vars:3 [ [ -7 ]; [ 0 ] ]));
        checki "[[1; -2]; [2]] over 3" 1
          (Dimacs.free_var_count (cnf ~vars:3 [ [ 1; -2 ]; [ 2 ] ])));
  ]

(* ------------------------------------------------------------------ *)
(* compile_cnf                                                         *)
(* ------------------------------------------------------------------ *)

let compile_ok ?budget ?preprocess ?domains ?compact_every d =
  match Pipeline.compile_cnf ?budget ?preprocess ?domains ?compact_every d with
  | Ok r -> r
  | Error e -> Alcotest.failf "compile_cnf: %s" (Ctwsdd_error.to_string e)

let compile_tests =
  [
    qtest ~count:150 "compile_cnf matches brute force (preprocess)"
      (cnf_gen ~max_vars:8 ~max_clauses:10)
      (fun d ->
        let r = compile_ok d in
        Bigint.equal r.Pipeline.count (Bigint.of_int (brute_count d)));
    qtest ~count:100 "compile_cnf matches brute force (raw)"
      (cnf_gen ~max_vars:8 ~max_clauses:10)
      (fun d ->
        let r = compile_ok ~preprocess:false d in
        Bigint.equal r.Pipeline.count (Bigint.of_int (brute_count d)));
    qtest ~count:60 "schedule and domain count do not change the count"
      (cnf_gen ~max_vars:8 ~max_clauses:10)
      (fun d ->
        let a = compile_ok ~domains:1 d in
        let b = compile_ok ~domains:4 d in
        Bigint.equal a.Pipeline.count b.Pipeline.count);
    case "multi-chain count is the product of chain counts" (fun () ->
        (* Three disjoint 5-var implication chains: 6 models each. *)
        let chain k =
          List.init 4 (fun i -> [ -(k + i + 1); k + i + 2 ])
        in
        let d = cnf ~vars:15 (chain 0 @ chain 5 @ chain 10) in
        let r = compile_ok d in
        checki "components" 3 (List.length r.Pipeline.components);
        check bigint "6^3" (Bigint.of_int 216) r.Pipeline.count);
    case "unsat CNF yields zero and no components" (fun () ->
        let r = compile_ok (cnf ~vars:3 [ [ 1 ]; [ -1 ] ]) in
        check bigint "zero" Bigint.zero r.Pipeline.count;
        checki "components" 0 (List.length r.Pipeline.components));
    case "unsat without preprocessing" (fun () ->
        (* An empty clause counts 0 without compiling a component, with
           preprocessing off and on alike. *)
        List.iter
          (fun preprocess ->
            let r = compile_ok ~preprocess (cnf ~vars:2 [ [ 1; 2 ]; [] ]) in
            check bigint "zero" Bigint.zero r.Pipeline.count;
            checki "components" 0 (List.length r.Pipeline.components))
          [ false; true ]);
    case "free and forced variables are folded into the count" (fun () ->
        (* v1 forced, v2..v3 constrained, v4..v5 free. *)
        let d = cnf ~vars:5 [ [ 1 ]; [ -2; 3 ] ] in
        let r = compile_ok d in
        checki "forced" 1 r.Pipeline.forced_vars;
        checki "free" 2 r.Pipeline.free_vars;
        check bigint "count" (Bigint.of_int 12) r.Pipeline.count);
    case "budget trip mid-component leaves a valid degraded result"
      (fun () ->
        (* A 12-var band under a node cap: the treedec rung trips, the
           ladder falls back, and whatever comes out must still count
           exactly. *)
        let d =
          cnf ~vars:12 (List.init 11 (fun i -> [ i + 1; -(i + 2) ]))
        in
        let truth = Bigint.of_int (brute_count d) in
        match
          Pipeline.compile_cnf
            ~budget:(Budget.create ~max_nodes:60 ())
            d
        with
        | Ok r ->
          check bigint "count still exact" truth r.Pipeline.count;
          (* degraded or not, the result must be self-consistent *)
          List.iter
            (fun c ->
              check bigint "component count"
                (Sdd.model_count c.Pipeline.k_manager c.Pipeline.k_root)
                c.Pipeline.k_count)
            r.Pipeline.components
        | Error e ->
          checkb "reasoned error" true (Ctwsdd_error.reason e <> None));
    case "hard node cap is a structured error" (fun () ->
        let d =
          cnf ~vars:12 (List.init 11 (fun i -> [ i + 1; -(i + 2) ]))
        in
        match
          Pipeline.compile_cnf ~budget:(Budget.create ~max_nodes:2 ()) d
        with
        | Ok _ -> Alcotest.fail "2-node cap cannot succeed"
        | Error e ->
          checkb "budget reason" true (Ctwsdd_error.reason e <> None));
    case "cancellation propagates" (fun () ->
        let budget = Budget.create ~cancel:(Atomic.make true) () in
        let d = cnf ~vars:4 [ [ 1; 2 ]; [ 3; 4 ] ] in
        match Pipeline.compile_cnf ~budget d with
        | Ok _ -> Alcotest.fail "cancelled compile succeeded"
        | Error e ->
          checkb "cancelled" true
            (Ctwsdd_error.reason e = Some Budget.Cancelled));
  ]

(* A seeded random CNF whose primal graph stays inside a partial
   [k]-tree on [n] variables: per edge, a 2-clause, a 3-clause closing
   a triangle, or nothing, with random signs.  Its treewidth is at most
   [k], so the decomposition has bags up to [k + 1] wide. *)
let ktree_cnf ~seed ~n ~k =
  let st = Random.State.make [| seed |] in
  let g = Ugraph.random_partial_ktree ~seed n k 0.6 in
  let lit v = if Random.State.bool st then v + 1 else -(v + 1) in
  let clauses =
    List.filter_map
      (fun (u, v) ->
        match Random.State.int st 4 with
        | 0 -> Some [ lit u; lit v ]
        | 1 ->
          Option.map
            (fun w -> [ lit u; lit v; lit w ])
            (List.find_opt
               (fun w -> w <> u && Ugraph.has_edge g u w)
               (Ugraph.neighbors g v))
        | _ -> None)
      (Ugraph.edges g)
  in
  cnf ~vars:n clauses

(* The tree fold, with compaction off and armed, against the circuit
   route ([Pipeline.compile] of the CNF circuit, clauses conjoined
   pairwise) pinned to the fold's composed vtree: every manager is
   canonical, so all runs agree on the count and on the sizes. *)
let fold_tests =
  [
    case "tree fold agrees with the circuit route, with compaction"
      (fun () ->
        for k = 1 to 6 do
          for i = 0 to 1 do
            let n = 30 + (18 * (k - 1) * i) in
            let d = ktree_cnf ~seed:((100 * k) + i) ~n ~k in
            let what = Printf.sprintf "k=%d n=%d" k n in
            let r = compile_ok ~domains:1 d in
            let armed = compile_ok ~compact_every:16 ~domains:1 d in
            let sizes r =
              List.map (fun c -> c.Pipeline.k_size) r.Pipeline.components
            in
            check bigint (what ^ " armed count") r.Pipeline.count
              armed.Pipeline.count;
            Alcotest.(check (list int)) (what ^ " armed sizes") (sizes r)
              (sizes armed);
            (match Pipeline.conjoin_components r with
             | None -> Alcotest.fail (what ^ ": no components")
             | Some (m, root) ->
               let c =
                 match
                   Pipeline.compile ~vtree_strategy:(`Pinned (Sdd.vtree m))
                     (Dimacs.to_circuit d)
                 with
                 | Ok c -> c
                 | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
               in
               let cm = c.Pipeline.manager and croot = c.Pipeline.root in
               checki (what ^ " size") (Sdd.size m root) (Sdd.size cm croot);
               check bigint (what ^ " count") (Sdd.model_count m root)
                 (Sdd.model_count cm croot));
            (* A component that allocates 32 nodes passes the threshold
               of 16 at some bag checkpoint. *)
            List.iter2
              (fun c a ->
                if (Sdd.census c.Pipeline.k_manager).Sdd.allocated >= 32 then
                  checkb (what ^ " armed fold compacts") true
                    (Sdd.compactions a.Pipeline.k_manager > 0))
              r.Pipeline.components armed.Pipeline.components
          done
        done);
    case "a node cap inside the fold is the error" (fun () ->
        (* The Lemma 1 fold of this 6-tree CNF allocates 199 nodes, so a
           cap of 170 trips it; the component has no lower rung. *)
        let d = ktree_cnf ~seed:485 ~n:15 ~k:6 in
        let run cap =
          Pipeline.compile_cnf ~preprocess:false ~domains:1
            ~budget:(Budget.create ~max_nodes:cap ())
            d
        in
        (match run 170 with
         | Error e ->
           checkb "node limit" true (e = Ctwsdd_error.Node_limit)
         | Ok _ -> Alcotest.fail "a 170-node cap fit the 199-node fold");
        match run 199 with
        | Ok r ->
          check bigint "count at the fold's own need"
            (Bigint.of_int (brute_count d)) r.Pipeline.count;
          checkb "not degraded" true (r.Pipeline.cnf_degraded = None)
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Against the bucket-elimination oracle                               *)
(* ------------------------------------------------------------------ *)

let band ~width ~offset n =
  List.init (n - width + 1) (fun i ->
      List.init width (fun j ->
          let v = offset + i + j + 1 in
          if j mod 2 = 0 then v else -v))

(* The cnf-count benchmark's families (bench/perf/workload.ml), rebuilt
   at about [n] variables. *)
let count_family ~seed family n =
  match family with
  | "chain" -> cnf ~vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))
  | "band3" -> cnf ~vars:n (band ~width:3 ~offset:0 n)
  | "band5" -> cnf ~vars:n (band ~width:5 ~offset:0 n)
  | "grid" ->
    let rows = 3 + (seed mod 4) in
    let cols = n / rows in
    let v c r = (c * rows) + r + 1 in
    cnf ~vars:(cols * rows)
      (List.concat
         (List.init cols (fun c ->
              List.concat
                (List.init rows (fun r ->
                     (if c + 1 < cols then [ [ -v c r; v (c + 1) r ] ] else [])
                     @ if r + 1 < rows then [ [ -v c r; v c (r + 1) ] ] else [])))))
  | "band3x8" ->
    let k = n / 8 in
    cnf ~vars:(8 * k)
      (List.concat (List.init 8 (fun c -> band ~width:3 ~offset:(c * k) k)))
  | "rand3-w6" ->
    let st = Random.State.make [| seed; n |] in
    let clause () =
      let start = 1 + Random.State.int st (n - 5) in
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let o = Random.State.int st 6 in
          if List.mem o acc then pick acc else pick (o :: acc)
      in
      List.map
        (fun o -> if Random.State.bool st then start + o else -(start + o))
        (pick [])
    in
    cnf ~vars:n (List.init (3 * n / 2) (fun _ -> clause ()))
  | f -> invalid_arg ("count_family: " ^ f)

let count_families = [ "chain"; "band3"; "band5"; "grid"; "band3x8"; "rand3-w6" ]

let oracle (d : Dimacs.t) =
  Bucket_oracle.cnf_count ~num_vars:d.Dimacs.num_vars d.Dimacs.clauses

(* [compile_cnf] with preprocessing on and off, each with compaction
   off and armed every 16 nodes, against the oracle. *)
let check_modes what d =
  let want = oracle d in
  List.iter
    (fun (preprocess, compact_every) ->
      let r = compile_ok ~preprocess ?compact_every ~domains:1 d in
      checks
        (Printf.sprintf "%s preprocess=%b compact_every=%s" what preprocess
           (match compact_every with Some k -> string_of_int k | None -> "off"))
        want
        (Bigint.to_string r.Pipeline.count))
    [ (true, None); (false, None); (true, Some 16); (false, Some 16) ]

(* [`Sat]-level preprocessing also drops pure literals, which can lose
   models: the count of what is left, scaled by [count_bounds], must
   bracket the oracle's count of the input. *)
let check_bounds what d =
  let want = Bigint.of_string (oracle d) in
  match Cnf_preprocess.run ~level:`Sat d with
  | Cnf_preprocess.Unsat -> check bigint (what ^ " unsat") Bigint.zero want
  | Cnf_preprocess.Simplified s ->
    let core = compile_ok ~preprocess:false ~domains:1 s.Cnf_preprocess.cnf in
    checks (what ^ " core") (oracle s.Cnf_preprocess.cnf)
      (Bigint.to_string core.Pipeline.count);
    let lo, hi = Cnf_preprocess.count_bounds s core.Pipeline.count in
    checkb (what ^ " lo <= count") true (Bigint.compare lo want <= 0);
    checkb (what ^ " count <= hi") true (Bigint.compare want hi <= 0)

let oracle_tests =
  [
    case "k-tree CNFs: compile_cnf counts what the oracle counts" (fun () ->
        for k = 2 to 6 do
          List.iter
            (fun n ->
              for i = 0 to 1 do
                let d = ktree_cnf ~seed:((1000 * k) + (10 * n) + i) ~n ~k in
                let what = Printf.sprintf "k=%d n=%d i=%d" k n i in
                check_modes what d;
                check_bounds what d
              done)
            [ 20; 40; 64 ]
        done);
    case "cnf-count families at 40-300 variables" (fun () ->
        List.iteri
          (fun seed family ->
            List.iter
              (fun n ->
                let d = count_family ~seed family n in
                let what = Printf.sprintf "%s n=%d" family n in
                check_modes what d;
                check_bounds what d)
              [ 40; 120; 300 ])
          count_families);
  ]

(* ------------------------------------------------------------------ *)
(* Forest composition and cross-manager import                         *)
(* ------------------------------------------------------------------ *)

let conjoin_tests =
  [
    case "of_forest offsets give each part a contiguous id range"
      (fun () ->
        let t1 = Vtree.balanced [ "a"; "b"; "c" ] in
        let t2 = Vtree.right_linear [ "d"; "e" ] in
        let t3 = Vtree.balanced [ "f" ] in
        let t, offsets = Vtree.of_forest [ t1; t2; t3 ] in
        checki "total nodes" (2 + Vtree.num_nodes t1 + Vtree.num_nodes t2
                              + Vtree.num_nodes t3)
          (Vtree.num_nodes t);
        List.iteri
          (fun i part ->
            List.iter
              (fun v ->
                if Vtree.is_leaf part v then
                  checks "leaf survives"
                    (Vtree.var_of_leaf part v)
                    (Vtree.var_of_leaf t (offsets.(i) + v)))
              (Vtree.nodes part))
          [ t1; t2; t3 ]);
    case "of_forest rejects empty and duplicate inputs" (fun () ->
        (try
           ignore (Vtree.of_forest []);
           Alcotest.fail "empty forest accepted"
         with Invalid_argument _ -> ());
        try
          ignore
            (Vtree.of_forest
               [ Vtree.balanced [ "x" ]; Vtree.balanced [ "x" ] ]);
          Alcotest.fail "duplicate variables accepted"
        with Invalid_argument _ -> ());
    case "import preserves the function across managers" (fun () ->
        let vt = Vtree.balanced (small_vars 4) in
        let src = Sdd.manager vt in
        let f =
          Sdd.disjoin src
            (Sdd.conjoin src
               (Sdd.literal src "x01" true)
               (Sdd.literal src "x02" false))
            (Sdd.literal src "x03" true)
        in
        let dst = Sdd.manager vt in
        let g = Sdd.import ~dst ~map:(fun v -> v) src f in
        checkb "same function" true
          (Boolfun.equal (Sdd.to_boolfun src f) (Sdd.to_boolfun dst g)));
    case "conjoin_components multiplies out the component counts"
      (fun () ->
        let d = cnf ~vars:6 [ [ -1; 2 ]; [ 3; 4 ]; [ -5; -6 ] ] in
        let r = compile_ok d in
        checki "components" 3 (List.length r.Pipeline.components);
        match Pipeline.conjoin_components r with
        | None -> Alcotest.fail "no conjoined SDD"
        | Some (m, root) ->
          check bigint "conjoined count matches"
            (Bigint.of_int (brute_count d))
            (Bigint.mul
               (Sdd.model_count m root)
               (Bigint.pow2 r.Pipeline.free_vars));
          checkb "valid SDD" true (Sdd.validate m root = Ok ()));
    case "conjoin_components on an unsat result is None" (fun () ->
        let r = compile_ok (cnf ~vars:2 [ [ 1 ]; [ -1 ] ]) in
        checkb "none" true (Pipeline.conjoin_components r = None));
  ]

(* ------------------------------------------------------------------ *)
(* DIMACS parsing                                                      *)
(* ------------------------------------------------------------------ *)

let parse_tests =
  [
    case "tabs and \\r separate literals" (fun () ->
        let d = Dimacs.parse "p cnf 3 2\r\n1\t-2 0\r\n\t2  3\t0\r\n" in
        checki "vars" 3 d.Dimacs.num_vars;
        checkb "clauses" true (d.Dimacs.clauses = [ [ 1; -2 ]; [ 2; 3 ] ]));
    case "trailing comment without newline" (fun () ->
        let d = Dimacs.parse "p cnf 2 1\n1 2 0\nc the end" in
        checkb "clauses" true (d.Dimacs.clauses = [ [ 1; 2 ] ]));
    case "SATLIB footer is not an empty clause" (fun () ->
        let d = Dimacs.parse "c satlib\np cnf 2 2\n1 2 0\n-1 2 0\n%\n0\n\n" in
        checki "clauses" 2 (List.length d.Dimacs.clauses);
        checkb "no empty clause" true
          (List.for_all (fun c -> c <> []) d.Dimacs.clauses));
    case "clause spanning lines" (fun () ->
        let d = Dimacs.parse "p cnf 3 1\n1\n2\n3 0\n" in
        checkb "one clause" true (d.Dimacs.clauses = [ [ 1; 2; 3 ] ]));
    case "malformed header still rejected" (fun () ->
        try
          ignore (Dimacs.parse "p dnf 2 1\n1 2 0\n");
          Alcotest.fail "accepted a p dnf header"
        with Invalid_argument _ -> ());
  ]
  @ List.map
      (fun (name, text, msg) ->
        case name (fun () ->
            match Ctwsdd_error.guard (fun () -> Dimacs.parse text) with
            | Ok _ -> Alcotest.fail "malformed input accepted"
            | Error e ->
              checki "exit code" 3 (Ctwsdd_error.exit_code e);
              checks "message" ("invalid input: Dimacs.parse: " ^ msg)
                (Ctwsdd_error.to_string e)))
      [
        ( "min_int literal is out of range",
          Printf.sprintf "p cnf 2 1\n%d 0\n" min_int,
          "literal out of range" );
        ( "min_int literal before a valid clause is out of range",
          Printf.sprintf "p cnf 2 2\n%d 0\n1 2 0\n" min_int,
          "literal out of range" );
        ("negative variable count", "p cnf -3 1\n1 0\n", "bad header numbers");
        ("negative clause count", "p cnf 3 -1\n1 0\n", "bad header numbers");
      ]

let suites =
  [
    ("cnf-preprocess", preprocess_tests);
    ("cnf-union-find", union_find_tests);
    ("cnf-split", split_tests);
    ("cnf-compile", compile_tests);
    ("cnf-fold", fold_tests);
    ("cnf-oracle", oracle_tests);
    ("cnf-conjoin", conjoin_tests);
    ("cnf-parse", parse_tests);
  ]
