(* Bechamel micro-benchmarks for the core operations: one Test per
   algorithmic kernel of the library.  Run with `main.exe --bechamel`. *)

open Bechamel
open Toolkit

let test_sdd_conjoin =
  Test.make ~name:"sdd/conjoin-8vars"
    (Staged.stage (fun () ->
         let vars = Families.xs 8 in
         let m = Sdd.manager (Vtree.balanced vars) in
         let f = Sdd.compile_circuit m (Generators.chain_implications 8) in
         let g = Sdd.compile_circuit m (Generators.parity_chain 8) in
         ignore (Sdd.conjoin m f g)))

let test_obdd_compile =
  Test.make ~name:"obdd/compile-chain-12"
    (Staged.stage (fun () ->
         let m = Sdd.Obdd.manager (Families.xs 12) in
         ignore (Sdd.compile_circuit m (Generators.chain_implications 12))))

let test_factors =
  let f = Boolfun.random ~seed:9 (Families.xs 12) in
  Test.make ~name:"boolfun/factor_ids-12vars"
    (Staged.stage (fun () -> ignore (Boolfun.factor_ids f (Families.xs 6))))

let test_rank =
  let m = Comm.matrix (Families.disjointness 3) (Families.xs 3) (Families.ys 3) in
  Test.make ~name:"comm/rank-8x8" (Staged.stage (fun () -> ignore (Comm.rank m)))

let test_lineage =
  let q = Ucq.of_string "R(x), S(x,y), T(y)" in
  let db = Pdb.complete_rst 4 in
  Test.make ~name:"pdb/lineage-rst-4"
    (Staged.stage (fun () -> ignore (Lineage.circuit q db)))

let test_cnnf =
  let c = Generators.chain_implications 10 in
  let vt, _ = Lemma1.vtree_of_circuit c in
  let f = Circuit.to_boolfun c in
  Test.make ~name:"core/cnnf-chain-10"
    (Staged.stage (fun () -> ignore (Compile.cnnf f vt)))

let test_sdd_semantic =
  let c = Generators.chain_implications 12 in
  let vt, _ = Lemma1.vtree_of_circuit c in
  let f = Circuit.to_boolfun c in
  Test.make ~name:"core/sdd_of_boolfun-chain-12"
    (Staged.stage (fun () ->
         let m = Sdd.manager vt in
         ignore (Compile.sdd_of_boolfun m f)))

let test_treewidth =
  let g = Ugraph.random_gnp ~seed:5 14 0.25 in
  Test.make ~name:"graph/treewidth-exact-14"
    (Staged.stage (fun () -> ignore (Treewidth.exact g)))

let tests =
  Test.make_grouped ~name:"ctwsdd"
    [
      test_sdd_conjoin;
      test_obdd_compile;
      test_factors;
      test_rank;
      test_lineage;
      test_cnnf;
      test_sdd_semantic;
      test_treewidth;
    ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel micro-benchmarks (ns per run)\n";
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-34s %12.0f ns\n" name est
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    (List.sort compare entries)
