open Test_util

let q_rs = Ucq.of_string "R(x), S(x,y)"
let q_rst = Ucq.of_string "R(x), S(x,y), T(y)"

let tiny_db =
  Pdb.make
    [
      (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 2);
      (Pdb.tuple "R" [ "2" ], Ratio.of_ints 1 3);
      (Pdb.tuple "S" [ "1"; "1" ], Ratio.of_ints 1 4);
      (Pdb.tuple "S" [ "2"; "1" ], Ratio.of_ints 2 3);
      (Pdb.tuple "T" [ "1" ], Ratio.of_ints 3 4);
    ]

let ucq_suite =
  [
    case "parse and print roundtrip" (fun () ->
        List.iter
          (fun s ->
            let q = Ucq.of_string s in
            let q' = Ucq.of_string (Ucq.to_string q) in
            checkb s true (q = q'))
          [
            "R(x), S(x,y), T(y)";
            "R(x) | S(x,y)";
            "R(x), x != y, S(y,x)";
            "R(#1,x)";
            "E()";
          ]);
    case "parse errors" (fun () ->
        List.iter
          (fun s ->
            match Ucq.of_string s with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "expected parse failure on %S" s)
          [ ""; "R(x"; ","; "x != y" ]);
    case "relations and arities" (fun () ->
        Alcotest.(check (list (pair string int)))
          "rels" [ ("R", 1); ("S", 2); ("T", 1) ] (Ucq.relations q_rst);
        Alcotest.check_raises "inconsistent arity"
          (Invalid_argument "Ucq.relations: R used with arities 1 and 2")
          (fun () -> ignore (Ucq.relations (Ucq.of_string "R(x), R(x,y)"))));
    case "holds semantics" (fun () ->
        let facts = [ Pdb.tuple "R" [ "1" ]; Pdb.tuple "S" [ "1"; "2" ] ] in
        checkb "R,S holds" true (Ucq.holds q_rs facts);
        checkb "R,S,T fails" false (Ucq.holds q_rst facts);
        checkb "needs join" false
          (Ucq.holds q_rs [ Pdb.tuple "R" [ "1" ]; Pdb.tuple "S" [ "2"; "2" ] ]));
    case "inequalities in holds" (fun () ->
        let q = Ucq.of_string "S(x,y), x != y" in
        checkb "S(1,2)" true (Ucq.holds q [ Pdb.tuple "S" [ "1"; "2" ] ]);
        checkb "S(1,1)" false (Ucq.holds q [ Pdb.tuple "S" [ "1"; "1" ] ]));
    case "constants in atoms" (fun () ->
        let q = Ucq.of_string "R(#1,x)" in
        checkb "matches" true (Ucq.holds q [ Pdb.tuple "R" [ "1"; "2" ] ]);
        checkb "no match" false (Ucq.holds q [ Pdb.tuple "R" [ "2"; "2" ] ]));
    case "self join detection" (fun () ->
        checkb "no" false (Ucq.has_self_join (List.hd q_rst));
        checkb "yes" true
          (Ucq.has_self_join (List.hd (Ucq.of_string "R(x), R(y), S(x,y)"))));
  ]

let pdb_suite =
  [
    case "var_name roundtrip" (fun () ->
        let t = Pdb.tuple "S" [ "a"; "b" ] in
        checks "name" "S(a,b)" (Pdb.var_name t);
        checkb "roundtrip" true (Pdb.tuple_of_var (Pdb.var_name t) = t));
    case "duplicate facts rejected" (fun () ->
        Alcotest.check_raises "raise" (Invalid_argument "Pdb.make: duplicate facts")
          (fun () ->
            ignore
              (Pdb.make
                 [ (Pdb.tuple "R" [ "1" ], Ratio.one); (Pdb.tuple "R" [ "1" ], Ratio.one) ])));
    case "probabilities outside [0, 1] rejected" (fun () ->
        let db p = Pdb.make [ (Pdb.tuple "R" [ "a" ], p) ] in
        List.iter
          (fun p ->
            match db p with
            | _ -> Alcotest.failf "P = %s accepted" (Ratio.to_string p)
            | exception Invalid_argument _ -> ())
          [ Ratio.of_ints 3 2; Ratio.of_ints (-1) 2 ];
        List.iter
          (fun p ->
            check ratio "in range kept" p
              ((db p).Pdb.prob (Pdb.tuple "R" [ "a" ])))
          [ Ratio.zero; Ratio.of_ints 1 2; Ratio.one ]);
    case "subdatabases count" (fun () ->
        checki "2^5" 32 (List.length (Pdb.subdatabases tiny_db)));
    case "subset probabilities sum to one" (fun () ->
        let total =
          Ratio.sum (List.map (Pdb.prob_of_subset tiny_db) (Pdb.subdatabases tiny_db))
        in
        check ratio "1" Ratio.one total);
    case "generators shapes" (fun () ->
        checki "complete_rst 3" (3 + 9 + 3) (List.length (Pdb.complete_rst 3).Pdb.facts);
        checki "chain k=2 n=2" (2 + 8 + 2)
          (List.length (Pdb.chain_database ~k:2 2).Pdb.facts));
  ]

let lineage_suite =
  [
    case "lineage of R(x),S(x,y) on tiny db" (fun () ->
        let f = Lineage.boolfun q_rs tiny_db in
        (* Lineage = R(1)S(1,1) ∨ R(2)S(2,1). *)
        let expected =
          Boolfun.or_
            (Boolfun.and_ (Boolfun.var "R(1)") (Boolfun.var "S(1,1)"))
            (Boolfun.and_ (Boolfun.var "R(2)") (Boolfun.var "S(2,1)"))
        in
        check boolfun "lineage" (Boolfun.lift expected (Lineage.variables tiny_db)) f);
    case "lineage is monotone" (fun () ->
        let c = Lineage.circuit q_rst (Pdb.complete_rst 2) in
        (* And/Or over positive literals: NNF without negations. *)
        checkb "nnf" true (Circuit.is_nnf c));
    case "a fact without its join partner names no input gate" (fun () ->
        (* R(2) has S(2,1) but no U(2,1), and U(2,2) no S(2,2): the
           component under x = 2 has no fact for one of its atoms, so it
           is false before R(2) is named. *)
        let q = Ucq.of_string "R(x), S(x,y), U(x,y)" in
        let db =
          Pdb.uniform (Ratio.of_ints 1 2)
            (List.map
               (fun (r, args) -> Pdb.tuple r args)
               [
                 ("R", [ "1" ]); ("R", [ "2" ]); ("S", [ "1"; "1" ]);
                 ("U", [ "1"; "1" ]); ("S", [ "2"; "1" ]); ("U", [ "2"; "2" ]);
               ])
        in
        let c = Lineage.circuit q db in
        Alcotest.(check (list string))
          "inputs" [ "R(1)"; "S(1,1)"; "U(1,1)" ] (Circuit.variables c);
        checkb "no R(2) gate" false
          (Array.exists (( = ) (Circuit.Var "R(2)")) c.Circuit.gates);
        checkb "same function as the DNF" true
          (Circuit.equivalent c (Dnf_lineage.circuit q db)));
    case "an inequality over a variable no atom binds is rejected" (fun () ->
        let q = Ucq.of_string "R(x), x != y" in
        List.iter
          (fun db ->
            match Lineage.circuit q db with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [ tiny_db; Pdb.make [] ]);
    qtest "lineage circuit agrees with brute force" QCheck2.Gen.(int_range 1 2)
      (fun n ->
        let db = Pdb.complete_rst n in
        List.for_all
          (fun q -> Boolfun.equal (Lineage.boolfun q db) (Lineage.brute_force q db))
          [ q_rs; q_rst; Ucq.of_string "R(x) | T(y)"; Ucq.of_string "S(x,x)" ]);
    case "lineage with inequality" (fun () ->
        let q = Ucq.of_string "S(x,y), x != y" in
        let db =
          Pdb.uniform (Ratio.of_ints 1 2)
            [ Pdb.tuple "S" [ "1"; "1" ]; Pdb.tuple "S" [ "1"; "2" ] ]
        in
        check boolfun "only off-diagonal"
          (Boolfun.lift (Boolfun.var "S(1,2)") (Lineage.variables db))
          (Lineage.boolfun q db));
  ]

let safety_suite =
  [
    case "hierarchical queries" (fun () ->
        checkb "R,S hierarchical" true (Qsafety.hierarchical q_rs);
        checkb "R,S,T not" false (Qsafety.hierarchical q_rst);
        checkb "witness" true
          (Qsafety.witness_non_hierarchical (List.hd q_rst) <> None);
        checkb "single atom" true (Qsafety.hierarchical (Ucq.of_string "R(x,y)")));
    case "inversion_free" (fun () ->
        checkb "R,S" true (Qsafety.inversion_free q_rs);
        checkb "R,S,T" false (Qsafety.inversion_free q_rst);
        checkb "self join" false (Qsafety.inversion_free (Ucq.of_string "R(x), R(y)")));
    case "hierarchical order exists iff hierarchical" (fun () ->
        checkb "R,S some" true
          (Qsafety.hierarchical_variable_order (List.hd q_rs) tiny_db <> None);
        checkb "R,S,T none" true
          (Qsafety.hierarchical_variable_order (List.hd q_rst) tiny_db = None));
    case "hierarchical order gives constant OBDD width across n" (fun () ->
        let widths =
          List.map
            (fun n ->
              let db = Pdb.complete_rst n in
              let order =
                Option.get (Qsafety.hierarchical_variable_order (List.hd q_rs) db)
              in
              let m = Sdd.Obdd.manager order in
              Sdd.Obdd.width m (Sdd.compile_circuit m (Lineage.circuit q_rs db)))
            [ 1; 2; 3; 4 ]
        in
        checkb "bounded by 3" true (List.for_all (fun w -> w <= 3) widths));
    case "non-hierarchical query has growing OBDD width (any fixed order)"
      (fun () ->
        let width n =
          let db = Pdb.complete_rst n in
          let order = Lineage.variables db in
          let m = Sdd.Obdd.manager order in
          Sdd.Obdd.width m (Sdd.compile_circuit m (Lineage.circuit q_rst db))
        in
        checkb "grows" true (width 4 > width 2));
  ]

let prob_suite =
  [
    case "brute force on tiny db" (fun () ->
        (* P(R,S) with independent tuples. *)
        let p = Prob.brute q_rs tiny_db in
        (* P = 1 - (1 - pR1 pS11)(1 - pR2 pS21) *)
        let open Ratio in
        let p1 = mul (of_ints 1 2) (of_ints 1 4) in
        let p2 = mul (of_ints 1 3) (of_ints 2 3) in
        let expected = sub one (mul (sub one p1) (sub one p2)) in
        check ratio "prob" expected p);
    case "compiled routes agree with brute force" (fun () ->
        List.iter
          (fun q ->
            let expected = Prob.brute q tiny_db in
            let via_o, _ = Prob.via_obdd_exn q tiny_db in
            let via_s, _ = Prob.via_exn q tiny_db in
            let via_a, _ = Prob.via_exn ~backend:`Auto q tiny_db in
            let via_m, _ =
              Prob.via_exn
                ~vtree:(Vtree.right_linear (Lineage.variables tiny_db))
                ~minimize:true q tiny_db
            in
            check ratio "obdd" expected via_o;
            check ratio "sdd" expected via_s;
            check ratio "auto" expected via_a;
            check ratio "sdd on a pinned vtree, minimized" expected via_m)
          [ q_rs; q_rst; Ucq.of_string "R(x) | T(x)"; Ucq.of_string "S(x,y), x != y" ]);
    qtest "routes agree on complete_rst 2" QCheck2.Gen.(int_range 0 5) (fun _ ->
        let db = Pdb.complete_rst 2 in
        let q = q_rst in
        let expected = Prob.brute q db in
        let via_o, _ = Prob.via_obdd_exn q db in
        let via_s, _ = Prob.via_exn q db in
        Ratio.equal expected via_o && Ratio.equal expected via_s)
      ~count:1;
    case "empty database: every route answers P = 0 with size 0" (fun () ->
        let db = Pdb.make [] in
        List.iter
          (fun q ->
            let expect name = function
              | Ok a ->
                check ratio (name ^ " P") Ratio.zero a.Prob.probability;
                checki (name ^ " size") 0 a.Prob.size
              | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            in
            expect "via_obdd" (Prob.via_obdd q db);
            List.iter
              (fun (name, backend) -> expect name (Prob.via ~backend q db))
              [ ("sdd", `Sdd); ("obdd", `Obdd); ("auto", `Auto) ])
          [ q_rs; q_rst ]);
    case "the obdd cross-check keeps the run's backend selection" (fun () ->
        ignore (Prob.via ~backend:`Auto q_rs tiny_db);
        let selected = Backend.last_selection () in
        checkb "auto recorded" true (selected <> None);
        ignore (Prob.via_obdd q_rst tiny_db);
        checkb "unchanged" true (Backend.last_selection () = selected));
  ]

let jha_suciu_suite =
  [
    case "query shape" (fun () ->
        let q = Jha_suciu.query 2 in
        checks "printed" "R(x), S1(x,y), S2(x,y), T(y)" (Ucq.to_string q);
        checkb "contains an inversion" true (not (Qsafety.inversion_free q)));
    case "lineage over the paper alphabet" (fun () ->
        let f = Jha_suciu.lineage ~k:1 2 in
        Alcotest.(check (list string)) "vars"
          (List.sort compare (Families.xs 2 @ Families.ys 2
                              @ [ Families.zij 1 1 1; Families.zij 1 1 2;
                                  Families.zij 1 2 1; Families.zij 1 2 2 ]))
          (Boolfun.variables f));
    case "lemma 7 for k = 1" (fun () ->
        checkb "n=2" true (Jha_suciu.check_lemma7 ~k:1 2);
        checkb "n=3" true (Jha_suciu.check_lemma7 ~k:1 3));
    case "lemma 7 for k = 2" (fun () ->
        checkb "n=2" true (Jha_suciu.check_lemma7 ~k:2 2));
    case "restriction bounds checked" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Jha_suciu.restriction: need 0 <= i <= k")
          (fun () -> ignore (Jha_suciu.restriction ~k:2 ~i:3 2)));
    case "lineage variable count is O(n^2)" (fun () ->
        let f = Jha_suciu.lineage ~k:2 2 in
        checki "2n + k n^2" (4 + 8) (Boolfun.num_vars f));
  ]

(* ------------------------------------------------------------------ *)
(* References for the differential tests below                         *)
(* ------------------------------------------------------------------ *)

(* [Qsafety.hierarchical_variable_order] before it indexed the facts:
   the recursion runs over the whole active domain and every ground atom
   rescans every fact.  Kept as the reference for the order test. *)
let reference_atom_vars (a : Ucq.atom) =
  List.concat_map (function Ucq.Var v -> [ v ] | Ucq.Const _ -> []) a.Ucq.args

let reference_components atoms =
  let n = List.length atoms in
  let arr = Array.of_list atoms in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let vi = reference_atom_vars arr.(i) and vj = reference_atom_vars arr.(j) in
      if List.exists (fun v -> List.mem v vj) vi then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end
    done
  done;
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i a ->
      let r = find i in
      match Hashtbl.find_opt groups r with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add groups r (ref [ a ]))
    arr;
  Hashtbl.fold (fun _ l acc -> List.rev !l :: acc) groups []

let reference_substitute x c (a : Ucq.atom) =
  {
    a with
    Ucq.args =
      List.map
        (function Ucq.Var v when v = x -> Ucq.Const c | t -> t)
        a.Ucq.args;
  }

let reference_matching_facts (a : Ucq.atom) facts =
  List.filter
    (fun (f : Pdb.tuple) ->
      f.Pdb.rel = a.Ucq.rel
      && List.length f.Pdb.args = List.length a.Ucq.args
      && List.for_all2
           (fun t c -> match t with Ucq.Const k -> k = c | Ucq.Var _ -> true)
           a.Ucq.args f.Pdb.args)
    facts

let reference_order cq db =
  if (not (Qsafety.hierarchical_cq cq)) || Ucq.has_self_join cq then None
  else begin
    let domain = Pdb.active_domain db in
    let rec order atoms =
      List.concat_map
        (fun comp ->
          let vars =
            List.sort_uniq compare (List.concat_map reference_atom_vars comp)
          in
          if vars = [] then
            List.concat_map
              (fun a ->
                List.map Pdb.var_name (reference_matching_facts a db.Pdb.facts))
              comp
          else begin
            let root =
              List.find
                (fun x ->
                  List.for_all
                    (fun a -> List.mem x (reference_atom_vars a))
                    comp)
                vars
            in
            List.concat_map
              (fun c ->
                order
                  (reference_components
                     (List.map (reference_substitute root c) comp)))
              domain
          end)
        atoms
    in
    let main = order (reference_components cq.Ucq.atoms) in
    let rest =
      List.filter
        (fun v -> not (List.mem v main))
        (List.map Pdb.var_name db.Pdb.facts)
    in
    Some (main @ List.sort compare rest)
  end

(* A random hierarchical self-join-free conjunct: a forest of at most
   three levels of variables, each atom's variables a root-to-node path
   (every leaf carries an atom), shuffled, with a constant or a repeated
   variable mixed in now and then, plus an occasional ground atom.
   Relations are named [prefix ^ i]. *)
let random_hierarchical_cq st ~prefix =
  let pick n = Random.State.int st n in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let const () = string_of_int (1 + pick 3) in
  let nvars = ref 0 and atoms = ref [] in
  let add args =
    let rel = prefix ^ string_of_int (List.length !atoms) in
    atoms := { Ucq.rel; args = shuffle args } :: !atoms
  in
  let rec grow path depth =
    let x = Printf.sprintf "x%d" !nvars in
    incr nvars;
    let path = x :: path in
    let children = if depth < 3 then pick 3 else 0 in
    for _ = 1 to children do
      grow path (depth + 1)
    done;
    if children = 0 || pick 2 = 0 then begin
      let args = List.map (fun v -> Ucq.Var v) path in
      let args =
        if pick 4 = 0 then Ucq.Var (List.nth path (pick (List.length path))) :: args
        else args
      in
      add (if pick 3 = 0 then Ucq.Const (const ()) :: args else args)
    end
  in
  for _ = 0 to pick 2 do
    grow [] 1
  done;
  if pick 4 = 0 then add (List.init (pick 3) (fun _ -> Ucq.Const (const ())));
  { Ucq.atoms = shuffle !atoms; neqs = [] }

(* A random database for the relations of [q] over the constants 1..4,
   in shuffled fact order: ground copies of the atoms under random
   assignments (so joins succeed), random tuples, facts of the wrong
   arity, a relation the query does not use, and now and then one
   relation left empty. *)
let random_db st q =
  let pick n = Random.State.int st n in
  let value () = string_of_int (1 + pick 4) in
  let atoms = List.concat_map (fun cq -> cq.Ucq.atoms) q in
  let empty =
    if atoms <> [] && pick 3 = 0 then
      [ (List.nth atoms (pick (List.length atoms))).Ucq.rel ]
    else []
  in
  let facts = ref [ Pdb.tuple "U" [ value () ]; Pdb.tuple "U" [] ] in
  let add rel args =
    if not (List.mem rel empty) then facts := Pdb.tuple rel args :: !facts
  in
  for _ = 1 to 1 + pick 8 do
    let env = Hashtbl.create 8 in
    List.iter
      (fun (a : Ucq.atom) ->
        if pick 4 > 0 then
          add a.Ucq.rel
            (List.map
               (function
                 | Ucq.Const c -> c
                 | Ucq.Var v ->
                   (match Hashtbl.find_opt env v with
                    | Some c -> c
                    | None ->
                      let c = value () in
                      Hashtbl.add env v c;
                      c))
               a.Ucq.args))
      atoms
  done;
  List.iter
    (fun (a : Ucq.atom) ->
      let arity = List.length a.Ucq.args in
      for _ = 1 to pick 5 do
        add a.Ucq.rel (List.init arity (fun _ -> value ()))
      done;
      if pick 3 = 0 then add a.Ucq.rel (List.init (arity + 1) (fun _ -> value ())))
    atoms;
  let facts = List.sort_uniq compare !facts in
  Pdb.uniform (Ratio.of_ints 1 2)
    (List.map snd
       (List.sort compare (List.map (fun f -> (Random.State.bits st, f)) facts)))

(* [random_hierarchical_cq] with what breaks the hierarchy or the
   read-once form mixed in: a self-join, a var≠var or var≠const
   inequality, and a non-hierarchical chain [A(x), B(x,y), C(y)] hung
   off one of its variables.  One or two conjuncts, on disjoint
   relations. *)
let random_ucq st =
  let pick n = Random.State.int st n in
  List.init
    (1 + pick 2)
    (fun i ->
      let prefix = Printf.sprintf "R%d_" i in
      let cq = random_hierarchical_cq st ~prefix in
      let vars = Ucq.cq_variables cq in
      let var () = Ucq.Var (List.nth vars (pick (List.length vars))) in
      let cq =
        match cq.Ucq.atoms with
        | a :: _ when pick 3 = 0 ->
          let fresh =
            List.map (function Ucq.Var v -> Ucq.Var (v ^ "'") | t -> t) a.Ucq.args
          in
          { cq with Ucq.atoms = cq.Ucq.atoms @ [ { a with Ucq.args = fresh } ] }
        | _ -> cq
      in
      let cq =
        if vars <> [] && pick 3 = 0 then
          {
            cq with
            Ucq.neqs =
              [ (var (), if pick 2 = 0 then var () else Ucq.Const (string_of_int (1 + pick 4))) ];
          }
        else cq
      in
      if vars <> [] && pick 3 = 0 then
        let x = var () in
        let y = Ucq.Var (prefix ^ "y") in
        {
          cq with
          Ucq.atoms =
            cq.Ucq.atoms
            @ [
                { Ucq.rel = prefix ^ "A"; args = [ x ] };
                { Ucq.rel = prefix ^ "B"; args = [ x; y ] };
                { Ucq.rel = prefix ^ "C"; args = [ y ] };
              ];
        }
      else cq)

(* The database with each fact's probability redrawn as k/8 (now and
   then 0 or 1), and the numerators by lineage variable for
   [Bucket_oracle]. *)
let weighted st db =
  let ks =
    List.map
      (fun f ->
        let k =
          match Random.State.int st 10 with 0 -> 0 | 1 -> 8 | _ -> 1 + Random.State.int st 7
        in
        (f, k))
      db.Pdb.facts
  in
  let by_name = Hashtbl.create 16 in
  List.iter (fun (f, k) -> Hashtbl.replace by_name (Pdb.var_name f) k) ks;
  ( Pdb.make (List.map (fun (f, k) -> (f, Ratio.of_ints k 8)) ks),
    Hashtbl.find by_name )

(* Both circuits agree on [k] random assignments of [vars]. *)
let agree_on_samples st vars k c c' =
  List.for_all
    (fun _ ->
      let a =
        List.fold_left
          (fun m v -> Boolfun.Smap.add v (Random.State.bool st) m)
          Boolfun.Smap.empty vars
      in
      Circuit.eval c a = Circuit.eval c' a)
    (List.init k Fun.id)

(* [p · 8^n] in decimal, for comparison with [Bucket_oracle] over [n]
   variables of weight k/8. *)
let scaled p n =
  let r = Ratio.mul p (Ratio.of_bigint (Bigint.pow2 (3 * n))) in
  if Bigint.equal (Ratio.den r) Bigint.one then Bigint.to_string (Ratio.num r)
  else "not an integer: " ^ Ratio.to_string r

let differential_suite =
  [
    case "self-join-free hierarchical conjuncts give read-once lineages"
      (fun () ->
        let read_once c =
          let fanout = Circuit.fanout_counts c in
          let ok = ref true in
          Array.iteri
            (fun i g ->
              match g with
              | Circuit.Var _ -> if fanout.(i) > 1 then ok := false
              | _ -> ())
            c.Circuit.gates;
          !ok
        in
        List.iter
          (fun (q, db) ->
            let c = Lineage.circuit (Ucq.of_string q) db in
            checkb q true (read_once c && List.length (Circuit.variables c) > 4))
          [
            ("R(x), S(x,y)", Pdb.complete_rst 4);
            ("S1(x,y), S2(x,y), R(x)", Pdb.chain_database ~k:2 3);
            ("S1(x,y), S2(x,z), R(x)", Pdb.chain_database ~k:2 3);
            ("S1(x,x), S2(x,y), T(#2)", Pdb.chain_database ~k:2 3);
          ];
        (* And on random hierarchical conjuncts with constants and
           repeated variables. *)
        for seed = 0 to 99 do
          let st = Random.State.make [| seed |] in
          let cq = random_hierarchical_cq st ~prefix:"R" in
          checkb (Ucq.to_string [ cq ]) true
            (read_once (Lineage.circuit [ cq ] (random_db st [ cq ])))
        done);
    qtest ~count:300 "hierarchical order matches the full-domain reference"
      QCheck2.Gen.int
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let cq = random_hierarchical_cq st ~prefix:"R" in
        let db = random_db st [ cq ] in
        let got = Qsafety.hierarchical_variable_order cq db in
        got <> None && got = reference_order cq db);
    case "hierarchical order on fixed shapes matches the reference" (fun () ->
        List.iter
          (fun (q, db) ->
            let cq = List.hd (Ucq.of_string q) in
            checkb q true
              (Qsafety.hierarchical_variable_order cq db = reference_order cq db))
          [
            ("R(x), S(x,y)", tiny_db);
            ("R(x), S(x,y), T(y)", tiny_db);
            ("S(x,x)", tiny_db);
            ("S(#2,y), R(y)", tiny_db);
            ("E()", Pdb.uniform (Ratio.of_ints 1 2) [ Pdb.tuple "E" []; Pdb.tuple "R" [ "1" ] ]);
            ("R(x), S(x,y)", Pdb.chain_database ~k:2 3);
            ("R(x)", Pdb.uniform (Ratio.of_ints 1 2) []);
          ]);
    qtest ~count:200 "lineage circuit matches the DNF reference as a function"
      QCheck2.Gen.int
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let q = random_ucq st in
        let db, weight = weighted st (random_db st q) in
        let c = Lineage.circuit q db and dnf = Dnf_lineage.circuit q db in
        let vars = Circuit.variables c in
        List.for_all
          (fun cq ->
            Ucq.matchings cq db.Pdb.facts = Dnf_lineage.matchings cq db.Pdb.facts)
          q
        && vars = Circuit.variables dnf
        && (List.length db.Pdb.facts > 12
           || Boolfun.equal (Lineage.boolfun q db) (Lineage.brute_force q db))
        &&
        if List.length vars <= 16 then Circuit.equivalent c dnf
        else
          (* Past truth tables: the probabilities under random weights,
             when the DNF is narrow enough for the oracle (a DNF's width
             can reach its variable count), and always random points. *)
          agree_on_samples st vars 256 c dnf
          && (Bucket_oracle.width dnf > 12
             || Bucket_oracle.weighted_count c ~weight
                = Bucket_oracle.weighted_count dnf ~weight));
    qtest ~count:100 "bucket elimination agrees with Lifted, the compiler and brute force"
      QCheck2.Gen.int
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let q =
          if Random.State.bool st then [ random_hierarchical_cq st ~prefix:"R" ]
          else random_ucq st
        in
        let db, weight = weighted st (random_db st q) in
        let c = Lineage.circuit q db in
        let n = List.length (Circuit.variables c) in
        let count = Bucket_oracle.weighted_count c ~weight in
        (match Lifted.probability q db with
         | Some p -> count = scaled p n
         | None -> true)
        && count = scaled (fst (Prob.via_exn q db)) n
        && (List.length db.Pdb.facts > 12 || count = scaled (Prob.brute q db) n));
    case "bucket elimination reaches the benchmark's lineages" (fun () ->
        (* The query-sdd families at density 0.7 and weights k/8: [rs] at
           d = 30 (some 650 facts), [su], [rsu] and [rs|tu] at their
           workload domains.  Far past truth tables; the oracle counts
           the factored lineage and the DNF alike. *)
        List.iter
          (fun (q, d) ->
            let q = Ucq.of_string q in
            let st = Random.State.make [| d |] in
            let facts =
              List.concat_map
                (fun (rel, arity) ->
                  (* In lexicographic order, as the workload lists
                     them: the DNF's terms for one [x] are then
                     contiguous, and so its Or chain stays narrow. *)
                  let rec tuples k =
                    if k = 0 then [ [] ]
                    else
                      List.concat_map
                        (fun i ->
                          List.map (fun t -> string_of_int (i + 1) :: t) (tuples (k - 1)))
                        (List.init d Fun.id)
                  in
                  List.filter_map
                    (fun args ->
                      if Random.State.float st 1.0 < 0.7 then Some (Pdb.tuple rel args)
                      else None)
                    (tuples arity))
                (Ucq.relations q)
            in
            let db, weight = weighted st (Pdb.uniform Ratio.zero facts) in
            let label = Printf.sprintf "%s d=%d" (Ucq.to_string q) d in
            let c = Lineage.circuit q db in
            let n = List.length (Circuit.variables c) in
            let count = Bucket_oracle.weighted_count c ~weight in
            checks (label ^ ": DNF") count
              (Bucket_oracle.weighted_count (Dnf_lineage.circuit q db) ~weight);
            (match Lifted.probability q db with
             | Some p -> checks (label ^ ": Lifted") count (scaled p n)
             | None -> Alcotest.failf "%s: not liftable" label);
            checks (label ^ ": compiled") count (scaled (fst (Prob.via_exn q db)) n))
          [
            ("R(x), S(x,y)", 30);
            ("R(x), S(x,y), U(x,y)", 8);
            ("S(x,y), U(x,z)", 7);
            ("R(x), S(x,y) | T(z), U(z,w)", 5);
          ]);
  ]

let suites =
  [
    ("jha_suciu", jha_suciu_suite);
    ("ucq", ucq_suite);
    ("pdb", pdb_suite);
    ("lineage", lineage_suite);
    ("qsafety", safety_suite);
    ("prob", prob_suite);
    ("pdb_differential", differential_suite);
  ]
