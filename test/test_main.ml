let () =
  Alcotest.run "repro"
    [
      ("support", Test_support.suite);
      ("pool", Test_pool.suite);
      ("trace", Test_trace.suite);
      ("dataflow", Test_dataflow.suite);
      ("netlist", Test_netlist.suite);
      ("techmap", Test_techmap.suite);
      ("milp", Test_milp.suite);
      ("milp-differential", Test_milp_differential.suite);
      ("sim", Test_sim.suite);
      ("hls", Test_hls.suite);
      ("timing", Test_timing.suite);
      ("buffering", Test_buffering.suite);
      ("placeroute", Test_placeroute.suite);
      ("core", Test_core.suite);
      ("lint", Test_lint.suite);
      ("tv", Test_tv.suite);
      ("absint", Test_absint.suite);
      ("analysis", Test_analysis.suite);
      ("endtoend", Test_endtoend.suite);
      ("regressions", Test_regressions.suite);
      ("extensions", Test_extensions.suite);
      ("gatelevel", Test_gatelevel.suite);
      ("cache", Test_cache.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
    ]
