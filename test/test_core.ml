module G = Dataflow.Graph

let check = Alcotest.check

(* The loop fixture is tiny, so the complete flows run in well under a
   second and still exercise synthesis, timing models, the MILP, the
   level check and the subset iteration. *)

let test_seed_back_edges () =
  let g, back = Fixtures.loop ~buffered:false () in
  let seeded = Core.Flow.seed_back_edges g in
  check Alcotest.bool "back edge seeded" true (List.mem back seeded);
  check Alcotest.bool "buffer placed" true (G.buffer g back <> None)

let test_iterative_on_loop () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let outcome = Core.Flow.iterative g in
  check Alcotest.bool "has iterations" true (outcome.Core.Flow.iterations <> []);
  check Alcotest.bool "final levels positive" true (outcome.Core.Flow.final_levels > 0);
  check Alcotest.bool "buffers placed" true (outcome.Core.Flow.total_buffers >= 1);
  (* the optimised circuit must still be a live elastic circuit *)
  let r = Sim.Elastic.run outcome.Core.Flow.graph in
  check Alcotest.bool "still functional" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "same result" (Some 10) r.Sim.Elastic.exit_value

let test_baseline_on_loop () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let outcome = Core.Flow.baseline g in
  check Alcotest.int "single shot" 1 (List.length outcome.Core.Flow.iterations);
  let r = Sim.Elastic.run outcome.Core.Flow.graph in
  check Alcotest.bool "functional" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "same result" (Some 10) r.Sim.Elastic.exit_value

let test_input_not_mutated () =
  let g, back = Fixtures.loop ~buffered:false () in
  let _ = Core.Flow.iterative g in
  check Alcotest.bool "input untouched" true (G.buffer g back = None)

let test_tight_target_iterates () =
  (* an unreachably tight level target must exhaust the iteration budget
     without crashing *)
  let g, _ = Fixtures.loop ~buffered:false () in
  let config =
    {
      Core.Flow.default_config with
      Core.Flow.target_levels = 1;
      max_iterations = 2;
      milp = { Core.Flow.default_config.Core.Flow.milp with Buffering.Formulation.cp_target = 0.7 };
    }
  in
  let outcome = Core.Flow.iterative ~config g in
  check Alcotest.bool "did not meet target" false outcome.Core.Flow.met_target;
  check Alcotest.int "used the budget" 2 (List.length outcome.Core.Flow.iterations)

(* Slack matching runs before the final level check, so every recorded
   final field describes the circuit the flow actually returns: the
   padded graph, its netlist, and its mapping all agree. *)
let test_slack_matched_outcome () =
  let run slack_match =
    let config = { Fixtures.cheap_flow_config with Core.Flow.slack_match } in
    Core.Flow.iterative ~config (Hls.Kernels.graph Fixtures.tsum)
  in
  let off = run false and on = run true in
  check Alcotest.bool "slack padding placed extra buffers" true
    (on.Core.Flow.total_buffers > off.Core.Flow.total_buffers);
  (* re-synthesise the returned graph: the recorded netlist and mapping
     must be those of the post-slack circuit, not a stale pre-slack one *)
  let renet = Elaborate.run on.Core.Flow.graph in
  let relg = Techmap.Mapper.run ~k:Techmap.Lutgraph.lut_k (Techmap.Synth.run renet) in
  check Alcotest.int "final_levels is the post-slack level count"
    relg.Techmap.Lutgraph.max_level on.Core.Flow.final_levels;
  check Alcotest.int "lutgraph matches the final circuit's levels"
    relg.Techmap.Lutgraph.max_level on.Core.Flow.lutgraph.Techmap.Lutgraph.max_level;
  check Alcotest.int "lutgraph matches the final circuit's LUT count"
    (Techmap.Lutgraph.n_luts relg) (Techmap.Lutgraph.n_luts on.Core.Flow.lutgraph);
  check Alcotest.int "net matches the final circuit's gate count"
    (Net.n_gates renet) (Net.n_gates on.Core.Flow.net);
  check Alcotest.bool "met_target judged on the post-slack levels" true
    (on.Core.Flow.met_target
     = (on.Core.Flow.final_levels <= Fixtures.cheap_flow_config.Core.Flow.target_levels))

(* Experiment.measure reads the flow's own final netlist instead of
   re-synthesising: the reported metrics must be exactly an STA of the
   outcome's [net]/[lutgraph]. *)
let test_measure_uses_flow_netlist () =
  let config = Fixtures.cheap_flow_config in
  List.iter
    (fun flavor ->
      let metrics, outcome =
        Core.Experiment.run_flow ~config ~flavor Fixtures.tsum
      in
      let pr =
        Placeroute.Sta.analyze ~seed:7 outcome.Core.Flow.net
          outcome.Core.Flow.lutgraph
      in
      check (Alcotest.float 1e-9) "cp from the outcome netlist"
        pr.Placeroute.Sta.cp metrics.Core.Experiment.cp;
      check Alcotest.int "luts from the outcome netlist"
        pr.Placeroute.Sta.n_luts metrics.Core.Experiment.luts;
      check Alcotest.int "ffs from the outcome netlist"
        pr.Placeroute.Sta.n_ffs metrics.Core.Experiment.ffs;
      check Alcotest.int "levels are the outcome's final levels"
        outcome.Core.Flow.final_levels metrics.Core.Experiment.levels)
    [ `Baseline; `Iterative ]

(* [value_ok] checks the memory the circuit writes, not only its exit
   value: a circuit that exits with the interpreter's value but stores
   one different word is not ok. *)
let test_value_ok_compares_memories () =
  let kernel src = Fixtures.tiny_kernel "tstore" src (fun () -> [ ("a", [| 1; 2; 3; 4 |]) ]) in
  let source add =
    Printf.sprintf {|
int tstore(int a[4]) {
  a[2] = a[1] + %d;
  return a[0];
}
|} add
  in
  let reference = kernel (source 5) in
  let measure add =
    let outcome =
      Core.Flow.baseline ~config:Fixtures.cheap_flow_config (Hls.Kernels.graph (kernel (source add)))
    in
    Core.Experiment.measure ~session:(Core.Session.make ()) outcome reference
  in
  let own = measure 5 and other = measure 6 in
  check Alcotest.bool "the kernel's own circuit" true own.Core.Experiment.value_ok;
  check Alcotest.int "the exit value matches" 1 (Hls.Kernels.reference reference);
  check Alcotest.bool "one memory word differs" false other.Core.Experiment.value_ok

(* Both flavors finish with the final-dfg lint gate; the baseline used
   to skip it entirely. *)
let test_final_lint_gate_runs () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let baseline = Core.Flow.baseline g in
  let iterative = Core.Flow.iterative g in
  check Alcotest.bool "baseline audit ends with final-dfg" true
    (List.mem "final-dfg" baseline.Core.Flow.lint_stages);
  check Alcotest.bool "iterative audit ends with final-dfg" true
    (List.mem "final-dfg" iterative.Core.Flow.lint_stages)

(* The exact gate order and status stream of both flavors on the loop
   fixture (one iteration, narrowing changes the graph). The daemon
   streams the status events to clients, and the audit trail is the
   flow's own account of what it checked, so both orders are part of
   the flows' contract. *)
let test_flow_stage_and_status_order () =
  let run flow =
    let g, _ = Fixtures.loop ~buffered:false () in
    let status = ref [] in
    let session = Core.Session.make ~on_status:(fun s -> status := s :: !status) () in
    let o = flow ~session g in
    (o.Core.Flow.lint_stages, List.rev !status)
  in
  let strings = Alcotest.(list string) in
  let stages, status = run (fun ~session g -> Core.Flow.iterative ~session g) in
  check strings "iterative gate order"
    [ "dfg"; "range"; "tv-narrow"; "netlist"; "tv"; "lut-mapping"; "milp"; "tv-buffer"; "perf";
      "tv-final"; "final-dfg" ]
    stages;
  check strings "iterative status stream" [ "absint"; "iteration 1"; "milp" ] status;
  let stages, status = run (fun ~session g -> Core.Flow.baseline ~session g) in
  check strings "baseline gate order"
    [ "dfg"; "range"; "tv-narrow"; "milp"; "tv-buffer"; "perf"; "tv"; "final-dfg" ]
    stages;
  check strings "baseline status stream" [ "absint"; "model"; "milp" ] status

(* The LUT input count is not a cosmetic default: mapping the same
   netlist at a different k changes the level count, so the flow, the
   mapper's default and the translation validator all read the one
   [Techmap.Lutgraph.lut_k]. *)
let test_mapper_k_matters () =
  let g = Hls.Kernels.graph Fixtures.tsum in
  ignore (Core.Flow.seed_back_edges g);
  let synth = Techmap.Synth.run (Elaborate.run g) in
  let at k = (Techmap.Mapper.run ~k synth).Techmap.Lutgraph.max_level in
  check Alcotest.int "flow default is 6-LUT" 6 Techmap.Lutgraph.lut_k;
  check Alcotest.bool "k=3 maps deeper than k=6" true (at 3 > at 6)

let test_report_pct () =
  check Alcotest.string "negative" "-50%" (Core.Report.pct 50. 100.);
  check Alcotest.string "positive" "+25%" (Core.Report.pct 125. 100.);
  check Alcotest.string "zero" "+0%" (Core.Report.pct 100. 100.)

let test_report_renders () =
  let m =
    {
      Core.Experiment.cp = 4.5;
      cycles = 100;
      exec_ns = 450.;
      luts = 10;
      ffs = 5;
      levels = 6;
      buffers = 3;
      iterations = 1;
      met_target = true;
      value_ok = true;
    }
  in
  let row = { Core.Experiment.bench = "demo"; prev = m; iter = m } in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Core.Report.table1 fmt [ row ];
  Core.Report.figure5 fmt [ row ];
  Core.Report.iterations fmt [ row ];
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions benchmark" true (contains s "demo")

let test_report_csv () =
  let m =
    {
      Core.Experiment.cp = 4.5;
      cycles = 100;
      exec_ns = 450.;
      luts = 10;
      ffs = 5;
      levels = 6;
      buffers = 3;
      iterations = 1;
      met_target = true;
      value_ok = true;
    }
  in
  let row = { Core.Experiment.bench = "demo"; prev = m; iter = m } in
  let s = Format.asprintf "%a" Core.Report.csv [ row ] in
  let lines = String.split_on_char '\n' (String.trim s) in
  check Alcotest.int "header + 2 rows" 3 (List.length lines);
  check Alcotest.bool "header columns" true
    (List.hd lines = "bench,flow,cp_ns,cycles,exec_ns,luts,ffs,levels,buffers,iterations,met_target,value_ok")

(* perfbench's four compile tasks at its fixed budget (200 nodes, the
   wall lifted so only the node budget binds): their outcome digests are
   a function of the code alone, so a change that claims to be
   byte-identical must leave all four where they are *)
let test_perfbench_digests () =
  List.iter
    (fun (kernel, flavor, expected) ->
      let session = Core.Session.make ~milp_nodes:200 ~milp_budget_s:1e9 () in
      let o = Core.Flow.run ~session flavor (Hls.Kernels.graph (Hls.Kernels.by_name kernel)) in
      check Alcotest.string
        (kernel ^ " " ^ Core.Flow.flavor_name flavor)
        expected (Serve.Protocol.outcome_digest o))
    [
      ("gsum", `Iterative, "9d14bb97d51ac47eba112d9434d32dfef87142580d8fe1fe97cfb117b5015813");
      ("gsum", `Baseline, "444b0d63e94011ab723f164c26133577013ba356b00fa0def6a66e86c21eefc4");
      ("gsumif", `Iterative, "b19fa36211553741d1b7a62338c9a1b6bea7aea5f65085efd377ebd595edd55e");
      ("gsumif", `Baseline, "f3d52a3d83b59c21682e4d4e1d78e4854afa8b6f48b8e0171a9fb285d5f778a4");
    ]

let suite =
  [
    ("seed back edges", `Quick, test_seed_back_edges);
    ("iterative flow on loop", `Quick, test_iterative_on_loop);
    ("baseline flow on loop", `Quick, test_baseline_on_loop);
    ("input graph not mutated", `Quick, test_input_not_mutated);
    ("tight target exhausts iterations", `Quick, test_tight_target_iterates);
    ("slack matching precedes the final record", `Quick, test_slack_matched_outcome);
    ("measure reads the flow netlist", `Quick, test_measure_uses_flow_netlist);
    ("final lint gate runs in both flavors", `Quick, test_final_lint_gate_runs);
    ("exact gate order and status stream", `Quick, test_flow_stage_and_status_order);
    ("mapper k changes levels", `Quick, test_mapper_k_matters);
    ("report pct", `Quick, test_report_pct);
    ("report renders", `Quick, test_report_renders);
    ("report csv", `Quick, test_report_csv);
    ("perfbench task digests", `Quick, test_perfbench_digests);
    ("value_ok compares memories", `Quick, test_value_ok_compares_memories);
  ]
