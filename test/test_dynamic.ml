(* Dynamic in-manager vtree edits and the circuit-native pipeline.

   The invariants under test: every local move (swap / rotation) applied
   to a live manager preserves the represented function, canonicity and
   the SDD validity conditions; the in-manager hill climb reaches the
   same result as the recompile-based one; and the pipeline evaluates
   lineages beyond the truth-table limit exactly. *)

open Test_util

let validate_ok m node =
  match Sdd.validate m node with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid SDD after edit: %s" msg

(* Every (manager, function) fixture used by the move properties:
   structured circuits and random functions on assorted vtrees. *)
let fixtures () =
  let circuit_fixtures =
    [
      (Generators.band_cnf ~width:3 8, Vtree.balanced);
      (Generators.chain_implications 9, Vtree.right_linear);
      (Generators.parity_chain 7, fun vars -> Vtree.random ~seed:3 vars);
      (Generators.random_formula ~seed:11 ~vars:8 ~depth:4, Vtree.balanced);
    ]
  in
  let of_circuit (c, mk_vt) =
    let m = Sdd.manager (mk_vt (Circuit.variables c)) in
    let node = Sdd.compile_circuit m c in
    (m, node, Circuit.to_boolfun c)
  in
  let of_fun i f =
    let vt =
      match i mod 3 with
      | 0 -> Vtree.balanced (Boolfun.variables f)
      | 1 -> Vtree.right_linear (Boolfun.variables f)
      | _ -> Vtree.random ~seed:i (Boolfun.variables f)
    in
    let m = Sdd.manager vt in
    (m, Compile.sdd_of_boolfun m f, f)
  in
  List.map of_circuit circuit_fixtures
  @ List.mapi of_fun (random_functions ~vars:6 ~count:6)

let all_moves vt = List.map fst (Vtree.local_moves_with vt)

let moves_suite =
  [
    case "each move preserves the function (to_boolfun)" (fun () ->
        List.iter
          (fun (m, node, f) ->
            let reference = Boolfun.lift f (Vtree.variables (Sdd.vtree m)) in
            List.iter
              (fun mv ->
                (* Fresh manager per move so the fixtures stay pristine. *)
                let m2 = Sdd.manager (Sdd.vtree m) in
                let n2 = Sdd.compile_circuit m2 (Sdd.to_nnf_circuit m node) in
                let n2' = Sdd.apply_move m2 mv n2 in
                checkb
                  (Format.asprintf "%a" Vtree.pp_move mv)
                  true
                  (Boolfun.equal reference (Sdd.to_boolfun m2 n2'));
                checkb "valid" true (validate_ok m2 n2'))
              (all_moves (Sdd.vtree m)))
          (fixtures ()));
    case "move then inverse restores vtree, function and size" (fun () ->
        List.iter
          (fun (m, node, _) ->
            let vt0 = Sdd.vtree m in
            let size0 = Sdd.size m node in
            let f0 = Sdd.to_boolfun m node in
            let node = ref node in
            List.iter
              (fun mv ->
                node := Sdd.apply_move m mv !node;
                node := Sdd.apply_move m (Vtree.inverse_move mv) !node;
                checkb "vtree restored" true (Vtree.equal vt0 (Sdd.vtree m));
                checki "size restored" size0 (Sdd.size m !node);
                checkb "function restored" true
                  (Boolfun.equal f0 (Sdd.to_boolfun m !node)))
              (all_moves vt0))
          (fixtures ()));
    case "edited manager stays canonical (apply agrees)" (fun () ->
        (* After an edit, conjoin of forwarded handles must equal the
           compile of the conjunction — i.e. the unique table was re-keyed
           consistently and handle equality is still function equality. *)
        let c1 = Generators.band_cnf ~width:3 8 in
        let c2 = Generators.chain_implications 8 in
        let vars = Circuit.variables c1 in
        let m = Sdd.manager (Vtree.balanced vars) in
        let n1 = Sdd.compile_circuit m c1 in
        let n2 = Sdd.compile_circuit m c2 in
        let conj = Sdd.conjoin m n1 n2 in
        List.iter
          (fun mv ->
            let n1' = Sdd.apply_move m mv n1 in
            (* Forward the other handles by conditioning on nothing: use a
               second edit round-trip instead — handles are invalidated, so
               recompile them in the edited manager. *)
            let n2' = Sdd.compile_circuit m c2 in
            let conj' = Sdd.conjoin m n1' n2' in
            checkb "conjoin consistent" true
              (Boolfun.equal
                 (Sdd.to_boolfun m conj')
                 (Boolfun.lift
                    (Boolfun.and_ (Circuit.to_boolfun c1) (Circuit.to_boolfun c2))
                    (Vtree.variables (Sdd.vtree m))));
            ignore conj)
          [ List.hd (all_moves (Sdd.vtree m)) ]);
    qtest "random move sequences preserve eval" QCheck2.Gen.(int_range 0 40)
      (fun seed ->
        let st = Random.State.make [| seed; 31337 |] in
        let f = Boolfun.random ~seed:(seed + 500) (small_vars 7) in
        let m = Sdd.manager (Vtree.random ~seed (small_vars 7)) in
        let node = ref (Compile.sdd_of_boolfun m f) in
        for _ = 1 to 6 do
          let moves = all_moves (Sdd.vtree m) in
          if moves <> [] then begin
            let mv = List.nth moves (Random.State.int st (List.length moves)) in
            node := Sdd.apply_move m mv !node
          end
        done;
        List.for_all
          (fun asg -> Boolfun.eval f asg = Sdd.eval m !node asg)
          (Boolfun.all_assignments (small_vars 7))
        && validate_ok m !node);
  ]

(* Above the tabulation limit: spot-check semantics through eval and
   model_count, which never materialize a truth table. *)
let large_suite =
  [
    case "24-var circuit: model_count invariant under edits" (fun () ->
        let n = 24 in
        let c = Generators.band_cnf ~width:3 n in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let node = ref (Sdd.compile_circuit m c) in
        let count0 = Sdd.model_count m !node in
        let spot_asgs =
          List.map
            (fun seed ->
              let st = Random.State.make [| seed |] in
              List.fold_left
                (fun acc v -> Boolfun.Smap.add v (Random.State.bool st) acc)
                Boolfun.Smap.empty (Circuit.variables c))
            [ 1; 2; 3; 4; 5 ]
        in
        let spot0 = List.map (fun a -> Sdd.eval m !node a) spot_asgs in
        List.iteri
          (fun i a ->
            checkb (Printf.sprintf "spot %d vs circuit" i)
              (Circuit.eval c a)
              (List.nth spot0 i) |> ignore;
            ignore a)
          spot_asgs;
        (* Re-derive the applicable moves from the current vtree each
           round: a move valid on the starting vtree need not apply
           after the tree has changed. *)
        for step = 1 to 8 do
          let moves = all_moves (Sdd.vtree m) in
          let mv = List.nth moves (step * 7 mod List.length moves) in
          node := Sdd.apply_move m mv !node;
          check bigint "model count stable" count0 (Sdd.model_count m !node);
          let spot = List.map (fun a -> Sdd.eval m !node a) spot_asgs in
          checkb "spot evals stable" true (spot = spot0)
        done;
        checkb "still valid" true (validate_ok m !node));
    case "24-var minimize_manager: count invariant, still valid" (fun () ->
        let n = 24 in
        let c = Generators.band_cnf ~width:3 n in
        (* Balanced start: compiles in milliseconds yet is far from the
           band-friendly local optimum, so the climb has real work. *)
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let node = Sdd.compile_circuit m c in
        let count0 = Sdd.model_count m node in
        let size0 = Sdd.size m node in
        let node', size' = Vtree_search.minimize_manager_exn ~max_steps:3 m node in
        checkb "size not worse" true (size' <= size0);
        checki "size reported correctly" size' (Sdd.size m node');
        check bigint "model count stable" count0 (Sdd.model_count m node');
        checkb "valid after minimize" true (validate_ok m node'));
    case "a climb leaves an arena the size of the live SDD" (fun () ->
        (* Every edit rebuilds the live SDD into a fresh arena, so after
           the climb's hundreds of applied and reverted edits the arena
           holds the live SDD, the literals and the last edit's
           re-derivations (190 slots here), not every edit's
           leftovers. *)
        let c = Generators.band_cnf ~width:3 24 in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let root, size =
          Vtree_search.minimize_manager_exn ~max_steps:5 m
            (Sdd.compile_circuit m c)
        in
        checki "size" 210 size;
        checkb "arena within twice the live SDD and literals" true
          (Sdd.num_nodes_allocated m
          <= 2 * (2 + Sdd.node_count m root + (2 * 24))))
  ]

(* In-manager search must retrace the recompile-based search exactly:
   same deterministic candidate order, same scores (canonicity), hence
   the same final vtree and size. *)
let parity_suite =
  [
    case "minimize_manager == recompile minimize (<=12 vars)" (fun () ->
        let cases =
          [
            Circuit.to_boolfun (Generators.band_cnf ~width:3 10);
            Circuit.to_boolfun (Generators.chain_implications 12);
            Boolfun.random ~seed:9 (small_vars 8);
            Families.threshold 3 9;
          ]
        in
        List.iter
          (fun f ->
            let vt0 = Vtree.right_linear (Boolfun.variables f) in
            let vt_re, s_re =
              Vtree_search.minimize_exn ~max_steps:25 ~domains:1
                ~score:(Vtree_search.sdd_size_score f) vt0
            in
            let m = Sdd.manager vt0 in
            let node = Compile.sdd_of_boolfun m f in
            let node', s_mgr =
              Vtree_search.minimize_manager_exn ~max_steps:25 m node
            in
            checki "same final size" s_re s_mgr;
            checkb "same final vtree" true (Vtree.equal vt_re (Sdd.vtree m));
            checkb "function preserved" true
              (Boolfun.equal
                 (Boolfun.lift f (Vtree.variables (Sdd.vtree m)))
                 (Sdd.to_boolfun m node')))
          cases);
  ]

let suites =
  [
    ("dynamic-edits", moves_suite);
    ("dynamic-large", large_suite);
    ("dynamic-parity", parity_suite);
  ]
