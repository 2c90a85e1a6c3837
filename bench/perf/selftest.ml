(* perf.exe selftest: every oracle against brute-force enumeration on
   instances of each family with at most 14 variables. *)

let checks = ref 0
let failures = ref []

let check name expected got =
  incr checks;
  if expected <> got then
    failures := Printf.sprintf "%s: oracle %s, brute force %s" name expected got :: !failures

(* Models of a circuit by [Circuit.eval] over every assignment of its
   variables (times 2 per declared variable the circuit misses). *)
let brute_count ?(extra_vars = 0) c =
  let vars = Array.of_list (Circuit.variables c) in
  let n = Array.length vars in
  if n + extra_vars > 14 then invalid_arg "Selftest.brute_count: too many variables";
  let models = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    let asg = ref Boolfun.Smap.empty in
    Array.iteri (fun i v -> asg := Boolfun.Smap.add v ((a lsr i) land 1 = 1) !asg) vars;
    if Circuit.eval c !asg then incr models
  done;
  string_of_int (!models lsl extra_vars)

let cnf_families () =
  let st = Random.State.make [| 14 |] in
  List.iter
    (fun family ->
      List.iter
        (fun (stratum, n) ->
          let num_vars, clauses =
            if family = "band3x8" then Workload.band_copies ~copies:3 n
            else Workload.cnf_family st family ~stratum n
          in
          let text = Workload.dimacs_text ~family ~num_vars clauses in
          let d = Dimacs.parse text in
          check
            (Printf.sprintf "cnf %s n=%d" family num_vars)
            (Oracle.dimacs_count text)
            (brute_count ~extra_vars:(Dimacs.free_var_count d) (Dimacs.to_circuit d)))
        [ (0, 12); (1, 12); (2, 10); (3, 12); (4, 14) ])
    Workload.cnf_families

let circuit_families () =
  for n = 2 to 14 do
    check (Printf.sprintf "chain-impl n=%d" n) (Oracle.chain_count n)
      (brute_count (Generators.chain_implications n))
  done;
  for n = 1 to 14 do
    check (Printf.sprintf "parity-chain n=%d" n) (Oracle.parity_count n)
      (brute_count (Generators.parity_chain n))
  done;
  for n = 3 to 14 do
    check (Printf.sprintf "band3 n=%d" n)
      (Oracle.band_circuit_count ~width:3 n)
      (brute_count (Generators.band_cnf ~width:3 n))
  done;
  List.iter
    (fun (tracks, n) ->
      check
        (Printf.sprintf "ladder-%d n=%d" tracks n)
        (Oracle.ladder_count ~tracks n)
        (brute_count (Generators.ladder ~tracks n)))
    [ (2, 1); (2, 3); (2, 5); (3, 1); (3, 2); (3, 3); (4, 1); (4, 2) ]

(* Probability by summing over every subset of the facts. *)
let brute_probability q (db : Pdb.t) =
  let facts = Array.of_list db.Pdb.facts in
  let n = Array.length facts in
  if n > 14 then invalid_arg "Selftest.brute_probability: too many facts";
  let total = ref Ratio.zero in
  for a = 0 to (1 lsl n) - 1 do
    let present = List.filteri (fun i _ -> (a lsr i) land 1 = 1) (Array.to_list facts) in
    if Ucq.holds q present then begin
      let p = ref Ratio.one in
      Array.iteri
        (fun i f ->
          let pf = db.Pdb.prob f in
          p := Ratio.mul !p (if (a lsr i) land 1 = 1 then pf else Ratio.sub Ratio.one pf))
        facts;
      total := Ratio.add !total !p
    end
  done;
  !total

let query_families () =
  let st = Random.State.make [| 15 |] in
  List.iter
    (fun (name, text) ->
      let q = Ucq.of_string text in
      for _ = 1 to 6 do
        let db = Workload.random_db st q ~d:2 ~density:0.7 in
        let oracle =
          match Lifted.probability q db with
          | Some p -> Ratio.to_string p
          | None -> "none"
        in
        check
          (Printf.sprintf "query %s (%d facts)" name (List.length db.Pdb.facts))
          oracle
          (Ratio.to_string (brute_probability q db))
      done)
    Workload.queries

let nat () =
  let st = Random.State.make [| 16 |] in
  for k = 0 to 300 do
    check (Printf.sprintf "2^%d" k)
      (Oracle.Nat.to_string (Oracle.Nat.pow2 k))
      (Bigint.to_string (Bigint.pow2 k))
  done;
  for _ = 1 to 200 do
    let a = Random.State.bits st and b = Random.State.bits st in
    let x = Oracle.Nat.pow2 (Random.State.int st 200) and y = Oracle.Nat.of_int a in
    let big s = Bigint.of_string (Oracle.Nat.to_string s) in
    check "nat add"
      (Oracle.Nat.to_string (Oracle.Nat.add (Oracle.Nat.add x y) (Oracle.Nat.of_int b)))
      (Bigint.to_string (Bigint.add (Bigint.add (big x) (Bigint.of_int a)) (Bigint.of_int b)))
  done

let run () =
  nat ();
  cnf_families ();
  circuit_families ();
  query_families ();
  match List.rev !failures with
  | [] -> Printf.printf "selftest: %d checks ok\n" !checks
  | fs ->
    List.iter prerr_endline fs;
    Printf.printf "selftest: %d of %d checks failed\n" (List.length fs) !checks;
    exit 1
