(* The arena node store: generational compaction, plus the strict
   parsing of the CTWSDD_DOMAINS environment knob.

   Invariants under test: compaction preserves the represented function,
   canonicity and the model count and leaves only live slots; dynamic
   edits leave no dead slots, and edits followed by compaction and
   import round-trip the function; a budget trip during an edit or a
   compaction puts the manager back as it was. *)

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
            let gen0 = Sdd.compactions m in
            let node = Sdd.compact m node in
            checkb "function" true (Boolfun.equal f0 (Sdd.to_boolfun m node));
            checkb "count" true
              (Bigint.equal count0 (Sdd.model_count m node));
            checkb "valid" true (validate_ok m node);
            checki "generation bumped" (gen0 + 1) (Sdd.compactions m);
            let cs = Sdd.census m in
            checki "only live slots"
              (2 + cs.Sdd.decisions + cs.Sdd.literals) cs.Sdd.allocated)
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
            (* A dynamic edit leaves no dead slots... *)
            let node = ref node in
            List.iter
              (fun (mv, _) -> node := Sdd.apply_move m mv !node)
              (match Vtree.local_moves_with (Sdd.vtree m) with
               | [] -> []
               | mv :: _ -> [ mv ]);
            let cs = Sdd.census m in
            checki "an edit leaves no dead slots"
              (2 + cs.Sdd.decisions + cs.Sdd.literals) cs.Sdd.allocated;
            (* ...compaction keeps the function... *)
            node := Sdd.compact m !node;
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
        checkb "function preserved" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        Sdd.set_compact_every m max_int;
        let before = Sdd.compactions m in
        let node' = Sdd.maybe_compact m node in
        checki "disarmed: no pass" before (Sdd.compactions m);
        checkb "disarmed: identity" true (node' = node));
    case "each compaction records one ring entry" (fun () ->
        let c = Generators.chain_implications 12 in
        List.iter
          (fun collecting ->
            Obs.set_enabled collecting;
            Obs.reset ();
            Fun.protect
              ~finally:(fun () -> Obs.set_enabled false)
              (fun () ->
                let m =
                  Sdd.manager ~compact_every:16
                    (Vtree.balanced (Circuit.variables c))
                in
                ignore (Sdd.maybe_compact m (Sdd.compile_circuit m c));
                let entries =
                  List.filter
                    (fun e -> e.Obs.Ring.name = "sdd.compaction")
                    (Obs.Ring.tail ())
                in
                checkb "compactions ran" true (Sdd.compactions m > 0);
                checki
                  (Printf.sprintf "one entry per pass (collecting=%b)"
                     collecting)
                  (Sdd.compactions m) (List.length entries)))
          [ false; true ]);
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
        checki "generation unchanged" cs0.Sdd.compactions cs1.Sdd.compactions;
        checkb "handle still valid" true (validate_ok m node);
        checkb "function unchanged" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        (* And with the budget lifted the same compaction succeeds. *)
        let node = Sdd.compact m node in
        checkb "retry succeeds" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node)));
  ]

(* Every decision reachable from [roots] names only smaller ids: the
   arena is append-only, so ascending ids are a dependency order. *)
let check_elements_below m roots =
  let seen = Hashtbl.create 64 in
  let rec go a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      match Sdd.view m a with
      | Sdd.Decision (_, elems) ->
        List.iter
          (fun (p, s) ->
            if compare p a >= 0 || compare s a >= 0 then
              Alcotest.fail "an element id is not below its decision's";
            go p;
            go s)
          elems
      | _ -> ()
    end
  in
  Array.iter go roots

(* Random circuits (at most 10 variables) on balanced, right-linear and
   random vtrees, driven through random edits (each maybe undone by its
   inverse), compactions over 1-3 roots and budgeted attempts of either
   under a random node cap or a cancelled token.  A committed step keeps
   every held root's function, validity and model count, and leaves
   only live slots, each decision after its elements; a tripped one
   leaves the vtree, the node count, the generation, the held roots and
   the cached negations as they were. *)
let relocation_property =
  qtest ~count:100 "edits, compactions and trips keep the arena sound"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 4242 |] in
      let pick n = Random.State.int rng n in
      let c =
        Generators.random_formula ~seed ~vars:(3 + pick 8) ~depth:(3 + pick 3)
      in
      let vars = Circuit.variables c in
      let vt =
        match pick 3 with
        | 0 -> Vtree.balanced vars
        | 1 -> Vtree.right_linear vars
        | _ -> Vtree.random ~seed vars
      in
      let m = Sdd.manager vt in
      let roots = ref [| Sdd.compile_circuit m c |] in
      let funs = ref [||] and counts = ref [||] in
      let hold rs =
        roots := rs;
        funs := Array.map (Sdd.to_boolfun m) rs;
        counts := Array.map (Sdd.model_count m) rs
      in
      hold !roots;
      let check_roots () =
        Array.iteri
          (fun i r ->
            checkb "valid" true (validate_ok m r);
            checkb "function" true (Boolfun.equal !funs.(i) (Sdd.to_boolfun m r));
            checkb "model count" true
              (Bigint.equal !counts.(i) (Sdd.model_count m r)))
          !roots
      in
      let check_committed () =
        check_roots ();
        let cs = Sdd.census m in
        checki "no dead slots" (2 + cs.Sdd.decisions + cs.Sdd.literals)
          cs.Sdd.allocated;
        check_elements_below m !roots
      in
      (* An edit keeps only the root it is given; a compaction takes
         1-3 roots derived from it, chosen before the step so that a
         budgeted attempt runs the pass alone. *)
      let random_move () =
        match Vtree.local_moves_with (Sdd.vtree m) with
        | [] -> None
        | moves -> Some (fst (List.nth moves (pick (List.length moves))))
      in
      let edit mv =
        roots := [| Sdd.apply_move m mv !roots.(0) |];
        funs := [| !funs.(0) |];
        counts := [| !counts.(0) |]
      in
      let prepare_compaction () =
        let r = !roots.(0) in
        let lit = Sdd.literal m (List.hd vars) true in
        hold
          (Array.sub [| r; Sdd.negate m r; Sdd.conjoin m r lit |] 0
             (1 + pick 3))
      in
      let compaction () = roots := Sdd.compact_roots m !roots in
      for _ = 1 to 8 do
        match pick 3 with
        | 0 ->
          Option.iter
            (fun mv ->
              edit mv;
              if pick 2 = 0 then edit (Vtree.inverse_move mv))
            (random_move ());
          check_committed ()
        | 1 ->
          prepare_compaction ();
          compaction ();
          check_committed ()
        | _ ->
          let step, is_edit =
            match (pick 2, random_move ()) with
            | 0, Some mv -> ((fun () -> edit mv), true)
            | _ -> prepare_compaction (); (compaction, false)
          in
          let cap = pick 2 = 0 in
          let negs = Array.map (Sdd.negate m) !roots in
          let fp = Vtree.fingerprint (Sdd.vtree m)
          and n = Sdd.num_nodes_allocated m
          and gen = Sdd.compactions m in
          let b =
            if cap then Budget.create ~max_nodes:(n + pick 4) ()
            else begin
              let b = Budget.create () in
              Budget.cancel_now b;
              b
            end
          in
          Sdd.set_budget m b;
          (match step () with
           | () ->
             Sdd.set_budget m Budget.unlimited;
             check_committed ()
           | exception Budget.Exhausted _ ->
             Sdd.set_budget m Budget.unlimited;
             checkb "a node cap trips only an edit" true ((not cap) || is_edit);
             checki "vtree" fp (Vtree.fingerprint (Sdd.vtree m));
             checki "node count" n (Sdd.num_nodes_allocated m);
             checki "generation" gen (Sdd.compactions m);
             checkb "cached negations" true
               (Array.for_all2 (fun r nr -> Sdd.negate m r = nr) !roots negs);
             checki "answered from the cache" n (Sdd.num_nodes_allocated m);
             check_roots ())
      done;
      true)

(* Rebuilding every decision reachable from [root] with [Sdd.decision]
   must find it in the unique table: the same id back, nothing
   allocated. *)
let check_interned label m root =
  let seen = Hashtbl.create 64 in
  let before = Sdd.num_nodes_allocated m in
  let rec go a =
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      match Sdd.view m a with
      | Sdd.Decision (v, elems) ->
        List.iter (fun (p, s) -> go p; go s) elems;
        if not (Sdd.equal a (Sdd.decision m v elems)) then
          Alcotest.failf "%s: a decision rebuilt to another id" label
      | _ -> ()
    end
  in
  go root;
  checkb (label ^ ": decisions reached") true
    (Sdd.node_count m root > 0);
  checki (label ^ ": nothing allocated") before (Sdd.num_nodes_allocated m)

let unique_suite =
  [
    case "every decision is interned across growth, compact, swap, rollback"
      (fun () ->
        let c = Generators.band_cnf ~width:3 24 in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let slots0 = (Sdd.census m).Sdd.unique_slots in
        let root = Sdd.compile_circuit m c in
        checkb "table grew" true ((Sdd.census m).Sdd.unique_slots > slots0);
        check_interned "grown" m root;
        let root = Sdd.compact m root in
        check_interned "compacted" m root;
        let root = Sdd.swap m (Vtree.root (Sdd.vtree m)) root in
        check_interned "swapped" m root;
        (* An edit tripped by a node cap at the current count rolls
           back; the restored table must still hold every decision. *)
        let tripped =
          List.exists
            (fun (mv, _) ->
              let count = Sdd.num_nodes_allocated m in
              Sdd.set_budget m (Budget.create ~max_nodes:count ());
              match Sdd.apply_move m mv root with
              | _ -> Alcotest.fail "an edit fit under a cap of zero new nodes"
              | exception Budget.Exhausted _ ->
                Sdd.set_budget m Budget.unlimited;
                checki "count restored" count (Sdd.num_nodes_allocated m);
                true)
            (Vtree.local_moves_with (Sdd.vtree m))
        in
        checkb "an edit tripped" true tripped;
        check_interned "rolled back" m root);
    case "64-element decisions differing in the last pair are distinct"
      (fun () ->
        let xs = List.init 6 (Printf.sprintf "x%d")
        and ys = List.init 6 (Printf.sprintf "y%d") in
        let shape vars = Vtree.to_shape (Vtree.balanced vars) in
        let vt = Vtree.of_shape (Vtree.N (shape xs, shape ys)) in
        let m = Sdd.manager vt in
        let minterm vars i =
          Sdd.conjoin_list m
            (List.mapi (fun j v -> Sdd.literal m v ((i lsr j) land 1 = 1)) vars)
        in
        let decision last =
          Sdd.decision m (Vtree.root vt)
            (List.init 64 (fun i ->
                 (minterm xs i, if i = 63 then last else minterm ys i)))
        in
        (* The last sub: ⊥, the last minterm, or that minterm or'ed
           with one of the others — 65 keys differing in one cell. *)
        let lasts =
          Sdd.false_ m
          :: List.init 64 (fun j ->
                 if j = 63 then minterm ys 63
                 else Sdd.disjoin m (minterm ys 63) (minterm ys j))
        in
        let ds = List.map decision lasts in
        List.iter
          (fun d ->
            match Sdd.view m d with
            | Sdd.Decision (_, elems) -> checki "64 elements" 64 (List.length elems)
            | _ -> Alcotest.fail "not a decision")
          ds;
        checki "distinct ids" 65
          (List.length (List.sort_uniq compare ds));
        checkb "each interned" true
          (List.for_all2 (fun d last -> Sdd.equal d (decision last)) ds lasts));
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
  ]

let suites =
  [
    ("arena compaction", compaction_suite @ [ relocation_property ]);
    ("unique table", unique_suite);
    ("parallel apply", parallel_suite);
  ]
