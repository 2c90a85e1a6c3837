(* Differential tests for the arena counting pass behind
   [Sdd.model_count], [Sdd.probability] and [Sdd.probability_ratio].
   The oracles share no code with it: [Snnf.probability_ratio] on the
   exported NNF circuit, a sum over the models of the circuit's truth
   table, [Boolfun.count_models], [Prob.brute] over subdatabases and
   [Lifted] safe plans.  Vtree shapes with gaps, extra variables,
   constant and single-literal roots, and weights with mixed
   denominators (including 0 and 1) run through every backend. *)

open Test_util

let backends : (string * Backend.tag) list =
  [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf) ]

let mixed =
  [|
    Ratio.of_ints 1 3;
    Ratio.of_ints 2 5;
    Ratio.of_ints 5 7;
    Ratio.zero;
    Ratio.one;
  |]

(* Cycles through [mixed] in the order of [vars]. *)
let mixed_weight vars =
  let idx = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace idx v i) vars;
  fun v -> mixed.(Hashtbl.find idx v mod Array.length mixed)

(* Σ over the circuit's models of Π of the literal weights. *)
let brute_probability c w =
  List.fold_left
    (fun acc asg ->
      Ratio.add acc
        (Boolfun.Smap.fold
           (fun v b p -> Ratio.mul p (if b then w v else Ratio.sub Ratio.one (w v)))
           asg Ratio.one))
    Ratio.zero
    (Boolfun.models (Circuit.to_boolfun c))

let shapes vars =
  [
    ("right-linear", Vtree.right_linear vars);
    ("left-linear", Vtree.left_linear vars);
    ("balanced", Vtree.balanced vars);
    ("random", Vtree.random ~seed:7 vars);
  ]

(* Compiles [c] over the pinned [vt] on every backend and checks the
   three counters against the oracles. *)
let check_counters ~label c vt =
  let vars = Vtree.variables vt in
  let w = mixed_weight vars in
  let exact = brute_probability c w in
  let extra = List.length vars - List.length (Circuit.variables c) in
  let count =
    Bigint.shift_left (Boolfun.count_models (Circuit.to_boolfun c)) extra
  in
  List.iter
    (fun (name, b) ->
      let label = Printf.sprintf "%s via %s" label name in
      let m, root =
        Pipeline.compile_exn ~vtree_strategy:(`Pinned vt) ~backend:b c
      in
      let got = Sdd.probability_ratio m root w in
      check ratio (label ^ ": brute") exact got;
      check ratio (label ^ ": Snnf")
        (Snnf.probability_ratio (Sdd.to_nnf_circuit m root) w)
        got;
      check bigint (label ^ ": model_count") count (Sdd.model_count m root);
      let p = Sdd.probability m root (fun v -> Ratio.to_float (w v)) in
      if not (Float.abs (p -. Ratio.to_float exact) <= 1e-9) then
        Alcotest.failf "%s: float %h vs exact %s" label p
          (Ratio.to_string exact))
    backends

let random_circuits =
  List.init 6 (fun i ->
      Generators.random_formula ~seed:(100 + i) ~vars:(4 + i) ~depth:4)
  @ List.init 6 (fun i ->
        Generators.random_window ~seed:(200 + i) ~window:3 ~vars:(5 + (i mod 4))
          ~gates:(12 + (2 * i)))
  @ [ Generators.band_cnf ~width:3 8; Generators.parity_chain 7 ]

let circuit_suite =
  [
    case "random circuits on every vtree shape and backend" (fun () ->
        List.iteri
          (fun i c ->
            let vars = Circuit.variables c in
            let lemma1, _ = Lemma1.vtree_of_circuit c in
            List.iter
              (fun (shape, vt) ->
                check_counters ~label:(Printf.sprintf "circuit %d %s" i shape)
                  c vt)
              (("lemma1", lemma1) :: shapes vars))
          random_circuits);
    case "vtrees with variables the circuit does not mention" (fun () ->
        List.iteri
          (fun i c ->
            let vars = Circuit.variables c in
            (* Interleave fresh variables so gaps open inside the vtree. *)
            let padded =
              List.concat_map (fun v -> [ v; v ^ "_pad" ]) vars @ [ "pad_end" ]
            in
            List.iter
              (fun (shape, vt) ->
                check_counters ~label:(Printf.sprintf "padded %d %s" i shape)
                  c vt)
              (shapes padded))
          (List.filteri (fun i _ -> i mod 3 = 0) random_circuits));
    case "roots that are true, false or one literal" (fun () ->
        let vars = [ "x"; "y"; "z"; "u" ] in
        List.iter
          (fun src ->
            List.iter
              (fun (shape, vt) -> check_counters ~label:(src ^ " " ^ shape)
                  (Circuit.of_string src) vt)
              (shapes vars))
          [ "(or x (not x))"; "(and y (not y))"; "x"; "(not z)"; "u" ]);
  ]

(* Small tuple-independent databases over {1, 2, 3} with the [mixed]
   probabilities.  At most 8 facts: [Prob.brute] is exponential, and
   so is compiling the union query on the [`Dnnf] backend over a
   left-linear vtree (12-14 s at 10 facts). *)
let random_db seed =
  let st = Random.State.make [| seed |] in
  let dom = [ "1"; "2"; "3" ] in
  let candidates =
    List.map (fun a -> Pdb.tuple "R" [ a ]) dom
    @ List.concat_map
        (fun a -> List.map (fun b -> Pdb.tuple "S" [ a; b ]) dom)
        dom
    @ List.map (fun a -> Pdb.tuple "T" [ a ]) dom
  in
  let picked =
    List.filteri (fun i _ -> i < 8)
      (List.filter (fun _ -> Random.State.int st 3 > 0) candidates)
  in
  Pdb.make
    (List.mapi (fun i t -> (t, mixed.((i + seed) mod Array.length mixed))) picked)

let queries =
  List.map Ucq.of_string
    [
      "R(x), S(x,y)";
      "R(x), S(x,y), T(y)";
      "R(x) | T(y)";
      "S(x,y), T(y)";
      "R(x), S(x,y) | S(x,y), T(y)";
    ]

let query_suite =
  [
    case "UCQ/db pairs: every backend and vtree against brute force"
      (fun () ->
        for seed = 0 to 5 do
          let db = random_db seed in
          let facts = Lineage.variables db in
          List.iteri
            (fun qi q ->
              let expected = Prob.brute q db in
              (match Lifted.probability q db with
               | Some p -> check ratio "lifted agrees with brute" expected p
               | None -> ());
              let label = Printf.sprintf "db %d query %d" seed qi in
              let run ?vtree name b =
                match Prob.via ?vtree ~backend:b q db with
                | Error e ->
                  Alcotest.failf "%s %s: %s" label name
                    (Ctwsdd_error.to_string e)
                | Ok a -> check ratio (label ^ " " ^ name) expected a.Prob.probability
              in
              List.iter (fun (name, b) -> run name b) (("auto", `Auto) :: backends);
              if facts <> [] then
                List.iter
                  (fun (shape, vt) ->
                    List.iter
                      (fun (name, b) -> run ~vtree:vt (shape ^ " " ^ name) b)
                      backends)
                  (shapes facts))
            queries
        done);
    case "weights are asked only about variables with a reachable literal"
      (fun () ->
        let db =
          Pdb.make
            [
              (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 3);
              (Pdb.tuple "R" [ "2" ], Ratio.of_ints 2 5);
              (Pdb.tuple "S" [ "1"; "2" ], Ratio.of_ints 5 7);
              (Pdb.tuple "S" [ "2"; "2" ], Ratio.of_ints 1 2);
            ]
        in
        let q = Ucq.of_string "R(x), S(x,y)" in
        let c = Lineage.circuit q db in
        let expected = Prob.brute q db in
        (* The pinned vtree also carries variables that are not facts; a
           weight function built from the database rejects them. *)
        let vars =
          List.concat
            (List.mapi
               (fun i v -> [ Printf.sprintf "aux%d" i; v ])
               (Lineage.variables db))
        in
        let weight v = db.Pdb.prob (Pdb.tuple_of_var v) in
        (match weight "aux0" with
         | _ -> Alcotest.fail "the weight function should reject aux0"
         | exception Invalid_argument _ -> ());
        List.iter
          (fun (shape, vt) ->
            List.iter
              (fun (name, b) ->
                let label = shape ^ " " ^ name in
                let m, root =
                  Pipeline.compile_exn ~vtree_strategy:(`Pinned vt) ~backend:b c
                in
                check ratio label expected (Sdd.probability_ratio m root weight);
                let p =
                  Sdd.probability m root (fun v -> Ratio.to_float (weight v))
                in
                if not (Float.abs (p -. Ratio.to_float expected) <= 1e-9) then
                  Alcotest.failf "%s: float %h" label p;
                match Prob.via ~vtree:vt ~backend:b q db with
                | Ok a -> check ratio (label ^ " via Prob") expected a.Prob.probability
                | Error e -> Alcotest.failf "%s: %s" label (Ctwsdd_error.to_string e))
              backends)
          (shapes vars));
  ]

let suites = [ ("wmc circuits", circuit_suite); ("wmc queries", query_suite) ]
