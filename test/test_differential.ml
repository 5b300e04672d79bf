(* The simulator, placer and basis differential suites. They run as an
   executable of their own (CI runs each by name) so that their long suite
   names do not widen the main suite's report, which would change how it
   truncates every test name. *)
let () =
  Alcotest.run "repro-differential"
    [
      ("sim-differential", Test_sim_differential.suite);
      ("place-differential", Test_place_differential.suite);
      ("basis-differential", Test_basis_differential.suite);
    ]
