let () =
  Alcotest.run "ctwsdd"
    (Test_bigint.suites @ Test_graph.suites @ Test_boolfun.suites
   @ Test_circuit.suites @ Test_vtree.suites @ Test_bdd.suites
   @ Test_sdd.suites @ Test_nnf.suites @ Test_comm.suites @ Test_core.suites @ Test_pdb.suites @ Test_extensions.suites @ Test_depth.suites @ Test_misc.suites @ Test_obs.suites @ Test_flight.suites @ Test_refine.suites @ Test_dynamic.suites @ Test_pipeline.suites @ Test_budget.suites
   @ Test_cnf.suites @ Test_arena.suites @ Test_backend.suites @ Test_wmc.suites)
