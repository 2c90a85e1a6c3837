(* The arena node store: generational compaction, plus the strict
   parsing of the CTWSDD_DOMAINS / CTWSDD_RING environment knobs.

   Invariants under test: compaction preserves the represented function,
   canonicity and the model count while driving tombstones and garbage
   words to zero; dynamic edits followed by compaction and import
   round-trip the function; a budget trip during compaction rolls back
   before any mutation. *)

open Test_util

let validate_ok m node =
  match Sdd.validate m node with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid SDD: %s" msg

(* A manager with garbage: compile the circuit, then run a throwaway
   conjunction whose intermediates become unreachable. *)
let with_garbage c mk_vt =
  let m = Sdd.manager (mk_vt (Circuit.variables c)) in
  let node = Sdd.compile_circuit m c in
  let vars = Circuit.variables c in
  ignore
    (List.fold_left
       (fun acc v -> Sdd.conjoin m acc (Sdd.literal m v true))
       (Sdd.true_ m) vars);
  (m, node)

let fixtures () =
  [
    (Generators.band_cnf ~width:3 8, Vtree.balanced);
    (Generators.chain_implications 9, Vtree.right_linear);
    (Generators.random_formula ~seed:11 ~vars:8 ~depth:4, Vtree.balanced);
  ]

let compaction_suite =
  [
    case "compact preserves function, canonicity and model count" (fun () ->
        List.iter
          (fun (c, mk_vt) ->
            let m, node = with_garbage c mk_vt in
            let f0 = Sdd.to_boolfun m node in
            let count0 = Sdd.model_count m node in
            let gen0 = Sdd.generation m in
            let node = Sdd.compact m node in
            checkb "function" true (Boolfun.equal f0 (Sdd.to_boolfun m node));
            checkb "count" true
              (Bigint.equal count0 (Sdd.model_count m node));
            checkb "valid" true (validate_ok m node);
            checki "generation bumped" (gen0 + 1) (Sdd.generation m);
            let cs = Sdd.census m in
            checki "no tombstones" 0 cs.Sdd.tombstones;
            checki "no garbage words" 0 cs.Sdd.garbage_words)
          (fixtures ()));
    case "compact_roots relocates positionally" (fun () ->
        let c = Generators.band_cnf ~width:3 8 in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let a = Sdd.compile_circuit m c in
        let b = Sdd.negate m a in
        let fa = Sdd.to_boolfun m a and fb = Sdd.to_boolfun m b in
        (match Sdd.compact_roots m [| a; b |] with
         | [| a'; b' |] ->
           checkb "root 0" true (Boolfun.equal fa (Sdd.to_boolfun m a'));
           checkb "root 1" true (Boolfun.equal fb (Sdd.to_boolfun m b'));
           checkb "negation survives" true (Sdd.negate m a' = b')
         | _ -> Alcotest.fail "arity");
        ());
    case "edit, compact, import round-trips the function" (fun () ->
        List.iter
          (fun (c, mk_vt) ->
            let m = Sdd.manager (mk_vt (Circuit.variables c)) in
            let node = Sdd.compile_circuit m c in
            let f0 = Sdd.to_boolfun m node in
            (* Dynamic edits leave tombstones behind... *)
            let node = ref node in
            List.iter
              (fun (mv, _) -> node := Sdd.apply_move m mv !node)
              (match Vtree.local_moves_with (Sdd.vtree m) with
               | [] -> []
               | mv :: _ -> [ mv ]);
            let cs = Sdd.census m in
            checkb "edits left garbage" true
              (cs.Sdd.tombstones > 0 && cs.Sdd.garbage_words > 0);
            (* ...compaction reclaims them... *)
            node := Sdd.compact m !node;
            let cs = Sdd.census m in
            checki "tombstones reclaimed" 0 cs.Sdd.tombstones;
            checkb "still valid" true (validate_ok m !node);
            checkb "function preserved" true
              (Boolfun.equal f0 (Sdd.to_boolfun m !node));
            (* ...and the compacted SDD imports cleanly. *)
            let dst = Sdd.manager (Sdd.vtree m) in
            let imported = Sdd.import ~dst ~map:(fun v -> v) m !node in
            checkb "import preserved" true
              (Boolfun.equal f0 (Sdd.to_boolfun dst imported));
            checkb "import valid" true (validate_ok dst imported))
          (fixtures ()));
    case "maybe_compact fires on the threshold" (fun () ->
        let c = Generators.chain_implications 12 in
        let m =
          Sdd.manager ~compact_every:16
            (Vtree.balanced (Circuit.variables c))
        in
        let node = Sdd.compile_circuit m c in
        let f0 = Sdd.to_boolfun m node in
        let node = Sdd.maybe_compact m node in
        checkb "compactions ran" true (Sdd.compactions m > 0);
        checki "generation = compactions" (Sdd.compactions m)
          (Sdd.generation m);
        checkb "function preserved" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        Sdd.set_compact_every m max_int;
        let before = Sdd.compactions m in
        let node' = Sdd.maybe_compact m node in
        checki "disarmed: no pass" before (Sdd.compactions m);
        checkb "disarmed: identity" true (node' = node));
    case "budget trip during compaction rolls back cleanly" (fun () ->
        let c = Generators.band_cnf ~width:3 8 in
        let m, node = with_garbage c Vtree.balanced in
        let f0 = Sdd.to_boolfun m node in
        let cs0 = Sdd.census m in
        let b = Budget.create () in
        Budget.cancel_now b;
        Sdd.set_budget m b;
        (match Sdd.compact m node with
         | _ -> Alcotest.fail "expected Budget.Exhausted"
         | exception Budget.Exhausted _ -> ());
        (* Nothing moved: same census, same handle, same function. *)
        Sdd.set_budget m Budget.unlimited;
        let cs1 = Sdd.census m in
        checki "allocated unchanged" cs0.Sdd.allocated cs1.Sdd.allocated;
        checki "generation unchanged" cs0.Sdd.generation cs1.Sdd.generation;
        checkb "handle still valid" true (validate_ok m node);
        checkb "function unchanged" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        (* And with the budget lifted the same compaction succeeds. *)
        let node = Sdd.compact m node in
        checkb "retry succeeds" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node)));
  ]

let parallel_suite =
  [
    case "CTWSDD_DOMAINS is validated strictly" (fun () ->
        let check_env v expect =
          Unix.putenv "CTWSDD_DOMAINS" v;
          let r = Obs.Worker.domains_env () in
          Unix.putenv "CTWSDD_DOMAINS" "1";
          match (r, expect) with
          | Ok got, `Ok want ->
            checkb (Printf.sprintf "%S accepted" v) true (got = want)
          | Error _, `Error -> ()
          | Ok _, `Error ->
            Alcotest.failf "%S unexpectedly accepted" v
          | Error msg, `Ok _ ->
            Alcotest.failf "%S unexpectedly rejected: %s" v msg
        in
        check_env "3" (`Ok (Some 3));
        check_env " 2 " (`Ok (Some 2));
        check_env "0" `Error;
        check_env "-4" `Error;
        check_env "lots" `Error;
        check_env "" `Error);
    case "CTWSDD_RING is validated strictly" (fun () ->
        let check_env v expect =
          Unix.putenv "CTWSDD_RING" v;
          let r = Flight_recorder.ring_env () in
          Unix.putenv "CTWSDD_RING" "4096";
          match (r, expect) with
          | Ok got, `Ok want ->
            checkb (Printf.sprintf "%S accepted" v) true (got = want)
          | Error _, `Error -> ()
          | Ok _, `Error -> Alcotest.failf "%S unexpectedly accepted" v
          | Error msg, `Ok _ ->
            Alcotest.failf "%S unexpectedly rejected: %s" v msg
        in
        check_env "64" (`Ok (Some 64));
        check_env " 128 " (`Ok (Some 128));
        check_env "0" `Error;
        check_env "-1" `Error;
        check_env "banana" `Error;
        check_env "" `Error);
  ]

let suites =
  [
    ("arena compaction", compaction_suite);
    ("parallel apply", parallel_suite);
  ]
