(* Command-line driver for the mapping-aware frequency-regulation flow.

   regulate list
   regulate show <kernel> [--dot FILE]
   regulate flow <kernel> [--flavor iterative|baseline] [--levels N]
   regulate compare <kernel> ...
*)

open Cmdliner
module J = Support.Json

let kernels_arg = Cli.kernels_arg ~tool:"regulate"

let kernel_arg =
  let doc = "Benchmark kernel name (see `regulate list`)." in
  Arg.(required & pos 0 (some Cli.kernel_conv) None & info [] ~docv:"KERNEL" ~doc)

(* The MILP configuration of a [levels] target, for the commands that
   solve the buffer MILP outside a flow. *)
let milp_at levels = (Core.Flow.with_levels levels Core.Flow.default_config).Core.Flow.milp

let cycle_cap_arg =
  let doc =
    "Simple-cycle enumeration cap for CFDFC extraction and the certifier (default: 512 for \
     the certifier / 256 for CFDFCs). \
     Raise it so a cycle-rich kernel's enumeration is exhaustive and the \
     $(b,perf-cycle-limit-truncated) warning clears; the cost is MILP rows per extra cycle."
  in
  Arg.(value & opt (some Cli.pos_int) None & info [ "cycle-cap" ] ~docv:"N" ~doc)

(* A wall-clock budget in seconds: a non-positive one is a usage error. *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | Some _ -> Error (`Msg (Printf.sprintf "expected a number > 0, got %S" s))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let milp_nodes_arg =
  let doc =
    Printf.sprintf
      "Per-solve MILP branch-and-bound node budget (default %d). A solve that exhausts it fails \
       with a clean $(b,node budget exhausted) error instead of running unbounded."
      Buffering.Formulation.default_config.Buffering.Formulation.node_limit
  in
  Arg.(value & opt (some Cli.pos_int) None & info [ "milp-nodes" ] ~docv:"N" ~doc)

let milp_budget_arg =
  let doc =
    Printf.sprintf
      "Per-solve MILP wall-clock budget in seconds (default %g). Exhaustion is reported like a \
       node-budget blowout: a clean error, never a hang."
      Buffering.Formulation.default_config.Buffering.Formulation.time_limit
  in
  Arg.(value & opt (some pos_float) None & info [ "milp-budget-s" ] ~docv:"SECONDS" ~doc)

(* Open an output file named by a CLI flag: create missing parent
   directories, and turn an unwritable path into a cmdliner `Msg error
   (clean usage-style message) instead of an exception backtrace. *)
let with_out_file path f =
  match
    Support.Trace.ensure_parent_dir path;
    Out_channel.with_open_text path f
  with
  | v -> Ok v
  | exception Sys_error msg -> Error (`Msg msg)

let kernel_name k = k.Hls.Kernels.name

let json_int i = J.Num (float_of_int i)

(* A --json FILE document: one line, parent directories created. *)
let write_json path j =
  Support.Trace.ensure_parent_dir path;
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string j ^ "\n"))

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun k ->
        let g = Hls.Kernels.graph k in
        Printf.printf "%-15s %3d units %3d channels\n" k.Hls.Kernels.name
          (Dataflow.Graph.n_units g) (Dataflow.Graph.n_channels g))
      Hls.Kernels.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels.") Term.(const run $ const ())

(* ---- show ---- *)

let show_cmd =
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write Graphviz to $(docv).")
  in
  let run k dot =
    let g = Hls.Kernels.graph k in
    Printf.printf "%s: %d units, %d channels, %d marked back edges\n" k.Hls.Kernels.name
      (Dataflow.Graph.n_units g) (Dataflow.Graph.n_channels g)
      (List.length (Dataflow.Graph.marked_back_edges g));
    let net = Elaborate.run (let g' = Dataflow.Graph.copy g in ignore (Core.Flow.seed_back_edges g'); g') in
    let synth = Techmap.Synth.run net in
    let lg = Techmap.Mapper.run synth in
    Printf.printf "seeded circuit: %d gates, %d FFs, %d LUTs, %d levels\n" (Net.n_gates net)
      (Net.count_ffs net) (Techmap.Lutgraph.n_luts lg) lg.Techmap.Lutgraph.max_level;
    match dot with
    | None -> Ok ()
    | Some file ->
      Result.map
        (fun () -> Printf.printf "wrote %s\n" file)
        (with_out_file file (fun oc -> Dataflow.Dot.to_channel oc g))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print kernel circuit statistics.")
    (Term.term_result Term.(const run $ kernel_arg $ dot))

(* ---- flow ---- *)

let flow_cmd =
  let flavor =
    Arg.(
      value
      & opt (enum Core.Flow.flavors) `Iterative
      & info [ "flavor" ] ~docv:"FLAVOR" ~doc:"iterative or baseline.")
  in
  let routing = Arg.(value & flag & info [ "routing-aware" ] ~doc:"Fold placement wire estimates into the model.") in
  let slack = Arg.(value & flag & info [ "slack-match" ] ~doc:"Pad reconvergent paths with transparent capacity.") in
  let balance = Arg.(value & flag & info [ "balance" ] ~doc:"Run AND re-association before mapping.") in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Also print $(b,digest=)$(i,HEX): the canonical digest of the flow outcome (circuit \
             plus every per-iteration decision), byte-comparable against the $(b,done) events of \
             `regulate serve`.")
  in
  let run k flavor levels routing slack balance no_narrow digest milp_nodes
      milp_budget_s trace cache_dir =
    let config =
      {
        (Core.Flow.with_levels levels Core.Flow.default_config) with
        Core.Flow.routing_aware = routing;
        slack_match = slack;
        balance;
        narrow = not no_narrow;
      }
    in
    Cli.with_cache_session cache_dir @@ fun cache ->
    Cli.traced ~name:"regulate:flow" trace @@ fun () ->
    let session = Core.Session.make ~cache ?milp_nodes ?milp_budget_s () in
    let metrics, outcome = Core.Experiment.run_flow ~config ~session ~flavor k in
    List.iter
      (fun (it : Core.Flow.iteration) ->
        Printf.printf
          "iteration %d: %d pairs, %d delay nodes (%d fake), %d buffers proposed, levels=%d%s\n"
          it.Core.Flow.it_index it.Core.Flow.model_pairs it.Core.Flow.delay_nodes
          it.Core.Flow.fake_nodes it.Core.Flow.proposed_buffers it.Core.Flow.achieved_levels
          (if it.Core.Flow.kept_as_fixed > 0 then
             Printf.sprintf " -> keeping %d sparse min-penalty buffers" it.Core.Flow.kept_as_fixed
           else "")
      )
      outcome.Core.Flow.iterations;
    (match outcome.Core.Flow.narrowing with
    | Some r when Absint.Narrow.changed r ->
      Printf.printf "narrowing: %d widths shrunk (%d -> %d channel bits)\n"
        (List.length r.Absint.Narrow.r_narrowed)
        r.Absint.Narrow.r_bits_before r.Absint.Narrow.r_bits_after
    | _ -> ());
    (match List.rev outcome.Core.Flow.iterations with
    | last :: _ ->
      Format.printf "throughput: milp phi=%.4f vs %a@." last.Core.Flow.milp_phi
        Analysis.Certify.pp outcome.Core.Flow.certified
    | [] -> ());
    Printf.printf
      "final: levels=%d (target %d, met=%b) buffers=%d cp=%.2fns cycles=%d exec=%.0fns luts=%d ffs=%d ok=%b\n"
      metrics.Core.Experiment.levels levels metrics.Core.Experiment.met_target
      metrics.Core.Experiment.buffers metrics.Core.Experiment.cp metrics.Core.Experiment.cycles
      metrics.Core.Experiment.exec_ns metrics.Core.Experiment.luts metrics.Core.Experiment.ffs
      metrics.Core.Experiment.value_ok;
    if digest then Printf.printf "digest=%s\n" (Serve.Protocol.outcome_digest outcome)
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Run one buffering flow on one kernel.")
    (Term.term_result
       Term.(
         const run $ kernel_arg $ flavor $ Cli.levels_arg $ routing $ slack $ balance
         $ Cli.no_narrow_arg $ digest $ milp_nodes_arg $ milp_budget_arg $ Cli.trace_arg
         $ Cli.cache_dir_arg))

(* ---- export ---- *)

let export_cmd =
  let run k =
    let name = k.Hls.Kernels.name in
    let outcome = Core.Flow.iterative (Hls.Kernels.graph k) in
    let g = outcome.Core.Flow.graph in
    Out_channel.with_open_text (name ^ ".dot") (fun oc -> Dataflow.Dot.to_channel oc g);
    Out_channel.with_open_text (name ^ ".blif") (fun oc ->
        Techmap.Blif.to_channel oc outcome.Core.Flow.net outcome.Core.Flow.lutgraph);
    let r =
      Out_channel.with_open_text (name ^ ".vcd") (fun oc ->
          Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) ~vcd:oc g)
    in
    Printf.printf "wrote %s.dot %s.blif %s.vcd (%d cycles)\n" name name name r.Sim.Elastic.cycles
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Optimise a kernel and export DOT, BLIF and VCD artefacts.")
    Term.(const run $ kernel_arg)

(* ---- compile (user-provided mini-C file) ---- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-C source file.")
  in
  let simulate =
    Arg.(value & flag & info [ "run" ] ~doc:"Also optimise and simulate (zero-initialised memories).")
  in
  let run file simulate =
    let src = In_channel.with_open_text file In_channel.input_all in
    let f =
      match Hls.Parser.parse src with
      | f -> f
      | exception e -> (
        match Hls.Parser.error_message e with
        | Some msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 1
        | None -> raise e)
    in
    let g = Hls.Compile.compile f in
    Printf.printf "%s: %d units, %d channels, %d loops\n" f.Hls.Ast.fname
      (Dataflow.Graph.n_units g) (Dataflow.Graph.n_channels g)
      (List.length (Dataflow.Graph.marked_back_edges g));
    if simulate then begin
      let outcome = Core.Flow.iterative g in
      let r = Sim.Elastic.run outcome.Core.Flow.graph in
      let expected = Hls.Interp.run f ~args:[] ~memories:[] in
      Printf.printf
        "optimised: %d buffers, %d levels; simulated %d cycles -> %s (interpreter: %d)\n"
        outcome.Core.Flow.total_buffers outcome.Core.Flow.final_levels r.Sim.Elastic.cycles
        (match r.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "-")
        expected
    end
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a mini-C file to a dataflow circuit.")
    Term.(const run $ file $ simulate)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seeds =
    Arg.(value & opt (Cli.int_at_least 0) 200 & info [ "seeds" ] ~docv:"N" ~doc:"Seed count (default 200).")
  in
  let start_seed =
    Arg.(value & opt (Cli.int_at_least 0) 0 & info [ "start-seed" ] ~docv:"N" ~doc:"First seed (default 0).")
  in
  let budget =
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget: stop submitting new kernel batches once exceeded. The kernels \
             already checked still count; the stats record the early stop.")
  in
  let mutate =
    Arg.(
      value & opt (Cli.int_at_least 0) 2
      & info [ "mutate" ] ~docv:"N"
          ~doc:"Additive DFG mutants derived per kernel per flavor (default 2, 0 disables).")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ] ~doc:"Report findings with the original (unshrunk) kernel source.")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write one minimized repro fixture per finding into $(docv).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the campaign statistics (coverage and failure histograms) as JSON.")
  in
  let run seeds start_seed budget mutate no_minimize repro_dir json jobs trace cache_dir =
    Cli.with_cache_session cache_dir @@ fun cache ->
    Cli.traced ~name:"regulate:fuzz" trace @@ fun () ->
    let session = Core.Session.make ~cache () in
    let result =
      Support.Pool.run ~jobs (fun pool ->
          Fuzz.Harness.run ~session ~mutations:mutate ?budget_s:budget ~minimize:(not no_minimize)
            ~log:(fun l -> Printf.eprintf "%s\n%!" l)
            ~pool ~start_seed ~seeds ())
    in
    let s = result.Fuzz.Harness.stats in
    Printf.printf "fuzz: %d kernels checked in %.1fs%s: %d violations, %d explained\n"
      s.Fuzz.Harness.s_kernels s.Fuzz.Harness.s_duration_s
      (if s.Fuzz.Harness.s_budget_hit then " (budget hit)" else "")
      s.Fuzz.Harness.s_violations s.Fuzz.Harness.s_explained;
    Printf.printf "feature coverage:\n";
    List.iter
      (fun k ->
        let n = Option.value (List.assoc_opt k s.Fuzz.Harness.s_features) ~default:0 in
        Printf.printf "  %-12s %d\n" k n)
      Hls.Generate.feature_keys;
    if s.Fuzz.Harness.s_explained_by_kind <> [] then begin
      Printf.printf "explained (resource limits):\n";
      List.iter
        (fun (k, n) -> Printf.printf "  %-24s %d\n" k n)
        s.Fuzz.Harness.s_explained_by_kind
    end;
    List.iter
      (fun (f : Fuzz.Harness.finding) ->
        Printf.printf "\nFINDING seed=%d invariant=%s flavor=%s\n  %s\n" f.Fuzz.Harness.f_seed
          f.Fuzz.Harness.f_kind f.Fuzz.Harness.f_flavor f.Fuzz.Harness.f_detail;
        Printf.printf "minimized to %d statements:\n%s\n" f.Fuzz.Harness.f_min_stmts
          f.Fuzz.Harness.f_minimized;
        match repro_dir with
        | None -> ()
        | Some dir ->
          let path = Fuzz.Harness.write_repro ~dir f in
          Printf.printf "repro written to %s\n" path)
      result.Fuzz.Harness.findings;
    (match json with
    | None -> ()
    | Some path ->
      write_json path (Fuzz.Harness.stats_to_json s);
      Printf.printf "stats written to %s\n" path);
    if s.Fuzz.Harness.s_violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate seeded random kernels and pump them through both flows, checking the \
          differential oracle: interpreter/simulator equivalence, lint & tv gates, MILP claims \
          vs the certified bound, cache determinism and mutation robustness. Failures are \
          auto-minimized.")
    (Term.term_result
       Term.(
         const run $ seeds $ start_seed $ budget $ mutate $ no_minimize $ repro_dir $ json
         $ Cli.jobs_arg $ Cli.trace_arg $ Cli.cache_dir_arg))

(* ---- profile ---- *)

let profile_cmd =
  let run k =
    let name = k.Hls.Kernels.name in
    let outcome = Core.Flow.iterative (Hls.Kernels.graph k) in
    let g = outcome.Core.Flow.graph in
    let r = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
    Printf.printf "%s: %d cycles, %d transfers\n\n" name r.Sim.Elastic.cycles r.Sim.Elastic.transfers;
    (* the ten most stalled channels: where more capacity would help *)
    let ranked =
      Array.to_list (Array.mapi (fun cid st -> (cid, st)) r.Sim.Elastic.channel_stats)
      |> List.sort (fun (_, a) (_, b) -> compare b.Sim.Elastic.cs_stalls a.Sim.Elastic.cs_stalls)
    in
    Printf.printf "most back-pressured channels (stall cycles):\n";
    List.iteri
      (fun i (cid, st) ->
        if i < 10 && st.Sim.Elastic.cs_stalls > 0 then begin
          let c = Dataflow.Graph.channel g cid in
          Printf.printf "  %-30s stalls=%-6d transfers=%d\n"
            (Printf.sprintf "%s -> %s"
               (Dataflow.Graph.unit_node g c.Dataflow.Graph.src).Dataflow.Graph.label
               (Dataflow.Graph.unit_node g c.Dataflow.Graph.dst).Dataflow.Graph.label)
            st.Sim.Elastic.cs_stalls st.Sim.Elastic.cs_transfers
        end)
      ranked;
    (* the placed critical path, on the flow's own final synthesis *)
    let lg = outcome.Core.Flow.lutgraph in
    let pr = Placeroute.Sta.analyze ~seed:7 outcome.Core.Flow.net lg in
    Format.printf "@\n%a" (fun fmt () -> Placeroute.Sta.pp_critical_path fmt g lg pr) ()
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Simulate a kernel and report hot channels and the critical path.")
    Term.(const run $ kernel_arg)

(* ---- lint ---- *)

(* Runs every stage of the flow once (seed, elaborate, synthesise, map,
   model, MILP) purely to audit the artefacts with the lint rule set; no
   simulation or placement, so this is much cheaper than `flow`. *)
let lint_kernel ~levels ~cycle_cap k =
  let raw = Hls.Kernels.graph k in
  let pre = Lint.Engine.check_graph ~stage:Lint.Dfg_rules.Pre_buffering raw in
  let g = Dataflow.Graph.copy raw in
  ignore (Core.Flow.seed_back_edges g);
  let post = Lint.Engine.check_graph g in
  (* value-range family: needs the abstract-interpretation result; the
     inferred interval rides along in each diagnostic's extra field *)
  let r_ranges = Lint.Engine.check_ranges ~result:(Absint.Analyze.run g) g in
  let net = Elaborate.run g in
  let r_net = Lint.Engine.check_netlist g net in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  let tg, model = Timing.Mapping_aware.build_with_graph g ~net lg in
  let r_map = Lint.Engine.check_mapping g lg tg model in
  let milp_cfg = milp_at levels in
  let cp_target = milp_cfg.Buffering.Formulation.cp_target in
  let cfdfcs = Buffering.Cfdfc.extract ?cycle_limit:cycle_cap g in
  let r_milp, r_perf =
    match Buffering.Formulation.solve milp_cfg g model cfdfcs with
    | Error failure ->
      ( Lint.Engine.of_diagnostics
          [ Lint.Milp_rules.solve_failure (Buffering.Formulation.failure_message failure) ],
        Lint.Engine.empty )
    | Ok p ->
      let r_milp =
        Lint.Engine.check_milp ~cp_target ~buffered:p.Buffering.Formulation.all_buffered model
          p.Buffering.Formulation.lp p.Buffering.Formulation.solution
      in
      (* the LP-free oracle: certify the placement the MILP proposed and
         audit its throughput claims against the certified bound *)
      let _, _, r_perf = Core.Flow.audit_placement ~cfdfcs p g in
      (r_milp, r_perf)
  in
  List.fold_left Lint.Engine.merge Lint.Engine.empty
    [ pre; post; r_ranges; r_net; r_map; r_milp; r_perf ]

let lint_cmd =
  let fail_on_warning =
    Arg.(value & flag & info [ "fail-on-warning" ] ~doc:"Exit non-zero on warnings too.")
  in
  let rules = Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.") in
  let run ks json fail_on_warning levels cycle_cap rules jobs =
    if rules then Format.printf "%a" Lint.Engine.pp_catalogue ()
    else if
      Cli.report ~json ~jobs ~label:kernel_name ~check:(lint_kernel ~levels ~cycle_cap)
        ~to_json:(fun k r -> Lint.Engine.report_to_json ~label:(kernel_name k) r)
        ~print:(fun k r -> Format.printf "%-15s %a@." (kernel_name k) Lint.Engine.pp_report r)
        ~failed:(fun r ->
          (not (Lint.Engine.ok r)) || (fail_on_warning && not (Lint.Engine.clean r)))
        ks
    then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify kernels: DFG structure, netlist, LUT mapping, MILP certificate.")
    Term.(
      const run $ kernels_arg $ json_arg $ fail_on_warning $ Cli.levels_arg $ cycle_cap_arg $ rules
      $ Cli.jobs_arg)

(* ---- absint ---- *)

(* The value-range analysis as a first-class surface: run the abstract
   interpreter over a kernel's seeded graph, print every unit's proven
   output envelope, what the verified narrowing pass does with it, and
   the range-* lint findings. Pure graph analysis — no synthesis, MILP
   or simulation — so it is fast enough to run over the whole suite in
   CI. *)
let absint_kernel k =
  let g = Dataflow.Graph.copy (Hls.Kernels.graph k) in
  ignore (Core.Flow.seed_back_edges g);
  let res = Absint.Analyze.run g in
  let _, report = Absint.Narrow.run res g in
  let lint = Lint.Engine.check_ranges ~result:res g in
  let unit_ranges =
    List.init (Dataflow.Graph.n_units g) (fun uid ->
        let n = Dataflow.Graph.unit_node g uid in
        let outs =
          Array.to_list n.Dataflow.Graph.outs
          |> List.filter_map (fun c -> c)
          |> List.map (fun cid ->
                 Absint.Value.to_string ~width:n.Dataflow.Graph.width (Absint.Analyze.value res cid))
        in
        (n, outs))
  in
  (g, res, report, lint, unit_ranges)

let absint_cmd =
  let to_json k (_, res, report, lint, unit_ranges) =
    let unit_json (n, outs) =
      J.Obj
        [
          ("uid", json_int n.Dataflow.Graph.uid);
          ("kind", J.Str (Dataflow.Unit_kind.name n.Dataflow.Graph.kind));
          ("label", J.Str n.Dataflow.Graph.label);
          ("width", json_int n.Dataflow.Graph.width);
          ("outs", J.Arr (List.map (fun s -> J.Str s) outs));
        ]
    in
    J.Obj
      [
        ("label", J.Str (kernel_name k));
        ("diverged", J.Bool res.Absint.Analyze.diverged);
        ("evals", json_int res.Absint.Analyze.evals);
        ("units", J.Arr (List.map unit_json unit_ranges));
        ( "narrowing",
          J.Obj
            [
              ("narrowed", json_int (List.length report.Absint.Narrow.r_narrowed));
              ("bits_before", json_int report.Absint.Narrow.r_bits_before);
              ("bits_after", json_int report.Absint.Narrow.r_bits_after);
            ] );
        ("report", Lint.Engine.report_to_json lint);
      ]
  in
  let print k (g, res, report, lint, unit_ranges) =
    Printf.printf "%s: %d units, %d evals%s\n" (kernel_name k) (Dataflow.Graph.n_units g)
      res.Absint.Analyze.evals
      (if res.Absint.Analyze.diverged then " (DIVERGED: all values top)" else "");
    List.iter
      (fun (n, outs) ->
        if outs <> [] then
          Printf.printf "  %3d %-12s %-24s w=%-2d %s\n" n.Dataflow.Graph.uid
            (Dataflow.Unit_kind.name n.Dataflow.Graph.kind)
            n.Dataflow.Graph.label n.Dataflow.Graph.width (String.concat " " outs))
      unit_ranges;
    Format.printf "%a@." Absint.Narrow.pp_report report;
    Format.printf "%a@." Lint.Engine.pp_report lint
  in
  let run ks json =
    if
      Cli.report ~json ~jobs:1 ~label:kernel_name ~check:absint_kernel ~to_json ~print
        ~failed:(fun (_, _, _, lint, _) -> not (Lint.Engine.ok lint))
        ks
    then exit 1
  in
  Cmd.v
    (Cmd.info "absint"
       ~doc:
         "Run the abstract-interpretation value analysis over kernels: per-unit value envelopes \
          (intervals plus known bits), the verified narrowing report (width shrinks, constant \
          folds, dead-code deletions), and the range-* lint findings. Exits non-zero on any \
          range-* error.")
    Term.(const run $ kernels_arg $ json_arg)

(* ---- verify ---- *)

(* The throughput & liveness certifier as a first-class surface. The
   default mode is pure graph analysis (seed back-edge buffers, then
   certify): instant even on the biggest kernels, which is what CI runs
   across the whole suite. [--milp] additionally solves the
   pre-characterised buffer MILP and audits its phi claims against the
   certified bound of the placement it proposed. *)
let verify_kernel ~levels ~milp ~cycle_cap ~cache k =
  let g = Dataflow.Graph.copy (Hls.Kernels.graph k) in
  ignore (Core.Flow.seed_back_edges g);
  if not milp then begin
    let cert = Analysis.Certify.certify g in
    let _, truncated = Dataflow.Analysis.simple_cycles_capped ?limit:cycle_cap g in
    (cert, Lint.Engine.check_perf ~truncated ~phi:[] cert g)
  end
  else begin
    let model = Timing.Precharacterized.build ~cache g in
    let cfdfcs = Buffering.Cfdfc.extract ?cycle_limit:cycle_cap g in
    let cfg = { (milp_at levels) with Buffering.Formulation.use_penalty = false } in
    match Buffering.Formulation.solve ~cache cfg g model cfdfcs with
    | Error failure ->
      ( Analysis.Certify.certify g,
        Lint.Engine.of_diagnostics
          [ Lint.Milp_rules.solve_failure (Buffering.Formulation.failure_message failure) ] )
    | Ok p ->
      let _, cert, r = Core.Flow.audit_placement ~cfdfcs p g in
      (cert, r)
  end

let verify_cmd =
  let milp =
    Arg.(
      value & flag
      & info [ "milp" ]
          ~doc:
            "Also solve the pre-characterised buffer MILP and audit its throughput claims \
             against the certificate (slower on big kernels).")
  in
  let fail_on_warning =
    Arg.(value & flag & info [ "fail-on-warning" ] ~doc:"Exit non-zero on warnings too.")
  in
  let to_json k (cert, r) =
    J.Obj
      [
        ("label", J.Str (kernel_name k));
        ("certificate", Analysis.Certify.to_json cert);
        ("report", Lint.Engine.report_to_json r);
      ]
  in
  let print k (cert, r) =
    Format.printf "%-15s %a (Howard/Karp %s)@." (kernel_name k) Analysis.Certify.pp cert
      (if Analysis.Certify.karp_agrees cert then "agree" else "DISAGREE");
    if r.Lint.Engine.diagnostics <> [] then Format.printf "  %a@." Lint.Engine.pp_report r
  in
  let run ks json milp fail_on_warning levels cycle_cap trace cache_dir =
    (* a kernel whose certification throws is an error row; the non-zero
       exit happens only after the trace sink (if any) is written *)
    let body cache () =
      Cli.report ~json ~jobs:1 ~label:kernel_name
        ~check:(verify_kernel ~levels ~milp ~cycle_cap ~cache)
        ~to_json ~print
        ~failed:(fun (cert, r) ->
          (not (Lint.Engine.ok r))
          || (fail_on_warning && not (Lint.Engine.clean r))
          || not (Analysis.Certify.karp_agrees cert))
        ks
    in
    match
      Cli.with_cache_session cache_dir (fun cache -> Cli.traced ~name:"regulate:verify" trace (body cache))
    with
    | Error _ as e -> e
    | Ok failed -> if failed then exit 1 else Ok ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Certify kernel throughput bounds and liveness (LP-free Howard/Karp min cycle ratio); \
          with --milp, audit the MILP's claims against them.")
    (Term.term_result
       Term.(
         const run $ kernels_arg $ json_arg $ milp $ fail_on_warning $ Cli.levels_arg $ cycle_cap_arg
         $ Cli.trace_arg $ Cli.cache_dir_arg))

(* ---- tv ---- *)

(* End-to-end translation validation as a first-class surface. Runs the
   full flow for a kernel (whose own tv gates already validate every
   intermediate iteration), then re-checks the final netlist / AIG / LUT
   cover triple once more to report its semantic signature and witness
   counts alongside the wall time. *)
let tv_kernel ~levels ~session flavor k =
  let config = Core.Flow.with_levels levels Core.Flow.default_config in
  let g = Hls.Kernels.graph k in
  let t0 = Unix.gettimeofday () in
  let res =
    match Core.Flow.run ~config ~session flavor g with
    | outcome ->
      let ds, tv =
        Lint.Equiv_rules.check_translation outcome.Core.Flow.net outcome.Core.Flow.lutgraph
      in
      Ok (Lint.Engine.of_diagnostics ds, tv)
    | exception Lint.Engine.Lint_error report -> Error (`Lint report)
    | exception Core.Flow.Milp_failed (name, failure) ->
      Error (`Exn (Core.Flow.milp_failed_message name failure))
    | exception e -> Error (`Exn (Printexc.to_string e))
  in
  (res, (Unix.gettimeofday () -. t0) *. 1000.)

let tv_cmd =
  let flavor =
    let fconv =
      Arg.enum
        ((Core.Flow.flavors :> (string * [ Core.Flow.flavor | `Both ]) list) @ [ ("both", `Both) ])
    in
    Arg.(
      value & opt fconv `Both
      & info [ "flavor" ] ~docv:"FLAVOR" ~doc:"iterative, baseline or both (default both).")
  in
  let ok = function Ok (r, _) -> Lint.Engine.ok r | Error _ -> false in
  let to_json (k, fl) (res, ms) =
    let fields =
      match res with
      | Ok (r, tv) ->
        [
          ("luts", json_int tv.Tv.Equiv.luts_checked);
          ("cos", json_int tv.Tv.Equiv.cos_checked);
          ("vectors", json_int tv.Tv.Equiv.vectors);
          ("signature", J.Str (Tv.Equiv.signature_hex tv));
          ("report", Lint.Engine.report_to_json r);
        ]
      | Error (`Lint r) -> [ ("report", Lint.Engine.report_to_json r) ]
      | Error (`Exn msg) -> [ ("error", J.Str msg) ]
    in
    J.Obj
      (("label", J.Str (kernel_name k))
      :: ("flavor", J.Str (Core.Flow.flavor_name fl))
      :: ("ok", J.Bool (ok res))
      :: ("wall_ms", J.Num ms) :: fields)
  in
  let print (k, fl) (res, ms) =
    let name = kernel_name k and fn = Core.Flow.flavor_name fl in
    match res with
    | Ok (r, tv) ->
      Printf.printf "%-15s %-9s %s luts=%-5d cos=%-4d vectors=%d sig=%s %7.1f ms\n" name fn
        (if ok res then "ok  " else "FAIL")
        tv.Tv.Equiv.luts_checked tv.Tv.Equiv.cos_checked tv.Tv.Equiv.vectors
        (Tv.Equiv.signature_hex tv) ms;
      if not (ok res) then Format.printf "  %a@." Lint.Engine.pp_report r
    | Error (`Lint r) ->
      Printf.printf "%-15s %-9s FAIL (lint gate) %7.1f ms\n" name fn ms;
      Format.printf "  %a@." Lint.Engine.pp_report r
    | Error (`Exn msg) -> Printf.printf "%-15s %-9s ERROR: %s %7.1f ms\n" name fn msg ms
  in
  let run ks json flavor levels jobs trace cache_dir =
    let flavors =
      match flavor with `Both -> List.map snd Core.Flow.flavors | #Core.Flow.flavor as fl -> [ fl ]
    in
    let tasks = List.concat_map (fun k -> List.map (fun fl -> (k, fl)) flavors) ks in
    let body cache () =
      let session = Core.Session.make ~cache () in
      Cli.report ~json ~jobs
        ~label:(fun (k, _) -> kernel_name k)
        ~check:(fun (k, fl) -> tv_kernel ~levels ~session fl k)
        ~to_json ~print
        ~failed:(fun (res, _) -> not (ok res))
        tasks
    in
    match
      Cli.with_cache_session cache_dir (fun cache -> Cli.traced ~name:"regulate:tv" trace (body cache))
    with
    | Error _ as e -> e
    | Ok failed -> if failed then exit 1 else Ok ()
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:
         "Translation-validate kernels end to end: combinational equivalence \
          (netlist/AIG/LUT-cover), label & domain soundness, and buffer-insertion refinement.")
    (Term.term_result
       Term.(
         const run $ kernels_arg $ json_arg $ flavor $ Cli.levels_arg $ Cli.jobs_arg $ Cli.trace_arg
         $ Cli.cache_dir_arg))

(* ---- compare ---- *)

let compare_cmd =
  let run kernels no_narrow milp_nodes milp_budget_s jobs trace cache_dir =
    let config = { Core.Flow.default_config with Core.Flow.narrow = not no_narrow } in
    Cli.with_cache_session cache_dir @@ fun cache ->
    Cli.traced ~name:"regulate:compare" trace @@ fun () ->
    let session = Core.Session.make ~cache ?milp_nodes ?milp_budget_s () in
    let rows, _, _ = Core.Experiment.run_all ~config ~session ~jobs kernels in
    Core.Report.table1 Format.std_formatter rows;
    Format.print_newline ();
    Core.Report.figure5 Format.std_formatter rows;
    Format.print_newline ();
    Core.Report.iterations Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Reproduce Table I / Figure 5 for the given kernels.")
    (Term.term_result
       Term.(
         const run $ kernels_arg $ Cli.no_narrow_arg $ milp_nodes_arg $ milp_budget_arg $ Cli.jobs_arg
         $ Cli.trace_arg $ Cli.cache_dir_arg))

(* ---- cache ---- *)

let cache_cmd =
  let dir_term =
    let resolve dir =
      match Cache.Session.resolve_dir dir with
      | Some d -> Ok d
      | None -> Error (`Msg "no cache directory: pass --cache-dir or set REPRO_CACHE")
    in
    Term.(term_result (const resolve $ Cli.cache_dir_arg))
  in
  let stats_cmd =
    let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object.") in
    let run dir json =
      if json then print_endline (J.to_string (Cache.Store.stats_json dir))
      else begin
        let s = Cache.Store.disk_stats dir in
        let rate h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
        Printf.printf "cache %s\n" dir;
        Printf.printf "  entries   %d\n" s.Cache.Store.ds_entries;
        Printf.printf "  bytes     %d\n" s.Cache.Store.ds_bytes;
        Printf.printf "  sessions  %d\n" s.Cache.Store.ds_sessions;
        Printf.printf "  hits      %d\n" s.Cache.Store.ds_hits;
        Printf.printf "  misses    %d\n" s.Cache.Store.ds_misses;
        Printf.printf "  puts      %d\n" s.Cache.Store.ds_puts;
        Printf.printf "  hit rate  %.3f\n" (rate s.Cache.Store.ds_hits s.Cache.Store.ds_misses);
        match s.Cache.Store.ds_last with
        | None -> ()
        | Some (h, m, p) ->
          Printf.printf "  last session: hits %d misses %d puts %d (hit rate %.3f)\n" h m p
            (rate h m)
      end
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Report entry counts, sizes and hit rates for a cache directory.")
      Term.(const run $ dir_term $ json)
  in
  let gc_cmd =
    let max_bytes =
      let doc = "Evict entries (oldest last-use first) until at most $(docv) entry bytes remain." in
      Arg.(required & opt (some int) None & info [ "max-bytes" ] ~docv:"BYTES" ~doc)
    in
    let run dir max_bytes =
      let removed, freed = Cache.Store.gc dir ~max_bytes in
      Printf.printf "removed %d entries (%d bytes) from %s\n" removed freed dir
    in
    Cmd.v
      (Cmd.info "gc" ~doc:"Shrink a cache directory to a byte budget.")
      Term.(const run $ dir_term $ max_bytes)
  in
  let clear_cmd =
    let run dir =
      Cache.Store.clear dir;
      Printf.printf "cleared %s\n" dir
    in
    Cmd.v (Cmd.info "clear" ~doc:"Delete all cache entries and stats.") Term.(const run $ dir_term)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain the artifact cache (see --cache-dir / REPRO_CACHE).")
    [ stats_cmd; gc_cmd; clear_cmd ]

(* ---- serve ---- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket bound at $(docv) (any number of concurrent clients) \
             instead of line-delimited JSON on stdin/stdout.")
  in
  let queue_limit =
    let doc =
      "Admission control: the maximum number of accepted-but-unfinished compile requests \
       (default 8). Requests beyond it are rejected with $(b,server-busy), not queued \
       unboundedly."
    in
    Arg.(value & opt Cli.pos_int 8 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let levels =
    Arg.(
      value
      & opt (some Cli.pos_int) None
      & info [ "levels" ] ~docv:"N"
          ~doc:"Server-wide target logic levels (requests may override per request).")
  in
  let run socket jobs queue_limit levels no_narrow milp_nodes milp_budget_s cache_dir =
    (* the daemon owns its cache session outright and shares it across
       concurrent requests; [Serve.Server.drain] finishes it *)
    match Cli.open_cache cache_dir with
    | Error _ as e -> e
    | Ok cache ->
      let flow = { Core.Flow.default_config with Core.Flow.narrow = not no_narrow } in
      let flow = match levels with Some n -> Core.Flow.with_levels n flow | None -> flow in
      let cfg = { Serve.Server.jobs; queue_limit; milp_nodes; milp_budget_s; cache; flow } in
      let t = Serve.Server.create cfg in
      (match socket with
      | None -> Serve.Server.serve_channels t stdin stdout
      | Some path ->
        Printf.eprintf "[serve] listening on %s (jobs=%d queue=%d cache=%s)\n%!" path jobs
          queue_limit
          (match Cache.Session.store cache with Some s -> Cache.Store.dir s | None -> "off");
        Serve.Server.serve_socket t path);
      Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile daemon: kernel-compilation requests as line-delimited JSON over \
          stdin/stdout or a Unix-domain socket, served concurrently on a worker pool sharing \
          one artifact cache. Responses carry the outcome digest, phi vs the certified bound \
          and measured metrics; budget blowouts and malformed requests are structured errors, \
          never crashes.")
    (Term.term_result
       Term.(
         const run $ socket $ Cli.jobs_arg $ queue_limit $ levels $ Cli.no_narrow_arg $ milp_nodes_arg
         $ milp_budget_arg $ Cli.cache_dir_arg))

(* ---- loadgen ---- *)

let loadgen_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")
  in
  let count =
    Arg.(value & opt Cli.pos_int 200 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Request count (default 200).")
  in
  let window =
    Arg.(
      value & opt Cli.pos_int 4
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Pipelining window: at most $(docv) requests outstanding (default 4). Keep it at or \
             below the daemon's --queue-limit or requests bounce off admission control.")
  in
  let kernels =
    Arg.(
      value & pos_all Cli.kernel_conv []
      & info [] ~docv:"KERNEL" ~doc:"Kernels to cycle through (default: gsum).")
  in
  let flavor =
    Arg.(
      value
      & opt (enum Core.Flow.flavors) `Iterative
      & info [ "flavor" ] ~docv:"FLAVOR" ~doc:"iterative or baseline.")
  in
  let levels =
    Arg.(
      value & opt (some Cli.pos_int) None & info [ "levels" ] ~docv:"N" ~doc:"Per-request target levels.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the latency/throughput/hit-rate summary as one JSON object to $(docv).")
  in
  let compare_oneshot =
    Arg.(
      value & flag
      & info [ "compare-oneshot" ]
          ~doc:
            "Also run every distinct request shape through sequential one-shot $(b,regulate \
             flow --digest) processes and report the daemon's speedup; exits non-zero if any \
             served digest differs from its one-shot digest.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Send a shutdown to the daemon afterwards.")
  in
  let run socket count window kernels flavor levels milp_nodes milp_budget_s json
      compare_oneshot shutdown =
    let kernels =
      match kernels with [] -> [ "gsum" ] | ks -> List.map (fun k -> k.Hls.Kernels.name) ks
    in
    let nk = List.length kernels in
    let requests =
      List.init count (fun i ->
          {
            Serve.Protocol.id = Printf.sprintf "r%d" (i + 1);
            kernel = Some (List.nth kernels (i mod nk));
            source = None;
            flavor;
            levels;
            milp_nodes;
            milp_budget_s;
          })
    in
    let res = Serve.Loadgen.run ~window ~socket requests in
    Printf.printf
      "loadgen: %d sent, %d completed, %d errors, %d rejected, %d cancelled in %.2fs\n"
      res.Serve.Loadgen.l_sent res.Serve.Loadgen.l_completed res.Serve.Loadgen.l_errors
      res.Serve.Loadgen.l_rejected res.Serve.Loadgen.l_cancelled res.Serve.Loadgen.l_wall_s;
    Printf.printf "latency: mean=%.1fms p50=%.1fms p99=%.1fms; throughput=%.2f req/s\n"
      res.Serve.Loadgen.l_mean_ms res.Serve.Loadgen.l_p50_ms res.Serve.Loadgen.l_p99_ms
      res.Serve.Loadgen.l_throughput;
    Printf.printf "cache: %d hits, %d misses (hit rate %.3f)\n" res.Serve.Loadgen.l_hits
      res.Serve.Loadgen.l_misses
      (Serve.Protocol.hit_rate res.Serve.Loadgen.l_hits res.Serve.Loadgen.l_misses);
    let comparison =
      if not compare_oneshot then Ok []
      else begin
        (* one sequential cold process per distinct request shape: the
           workflow the daemon replaces. Digests must agree shape by
           shape with everything the daemon served. *)
        let shape (r : Serve.Protocol.request) = { r with Serve.Protocol.id = "" } in
        let distinct =
          List.fold_left
            (fun acc r -> if List.mem (shape r) (List.map shape acc) then acc else r :: acc)
            [] requests
          |> List.rev
        in
        let one = Serve.Loadgen.run_oneshot ~exe:Sys.executable_name distinct in
        let oneshot_rps =
          if one.Serve.Loadgen.o_wall_s > 0. then
            float_of_int (List.length distinct) /. one.Serve.Loadgen.o_wall_s
          else 0.
        in
        let speedup =
          if oneshot_rps > 0. then res.Serve.Loadgen.l_throughput /. oneshot_rps else 0.
        in
        (* request shape -> its one-shot digest; a served digest mismatches
           when the one-shot run of its shape digested differently *)
        let shape_of_id = Hashtbl.create 16 and oneshot = Hashtbl.create 16 in
        List.iter
          (fun (r : Serve.Protocol.request) -> Hashtbl.replace shape_of_id r.id (shape r))
          requests;
        List.iter
          (fun (id, d) -> Hashtbl.replace oneshot (Hashtbl.find shape_of_id id) d)
          one.Serve.Loadgen.o_digests;
        let mismatches =
          List.filter
            (fun (id, d) ->
              match Option.bind (Hashtbl.find_opt shape_of_id id) (Hashtbl.find_opt oneshot) with
              | Some od -> od <> d
              | None -> false)
            res.Serve.Loadgen.l_digests
        in
        Printf.printf
          "one-shot: %d distinct runs in %.2fs (%.3f req/s) -> daemon speedup x%.1f\n"
          (List.length distinct) one.Serve.Loadgen.o_wall_s oneshot_rps speedup;
        if mismatches = [] then begin
          Printf.printf "digests: all %d served results byte-identical to one-shot runs\n"
            (List.length res.Serve.Loadgen.l_digests);
          Ok
            [
              ("oneshot_rps", J.Num oneshot_rps);
              ("speedup", J.Num speedup);
              ("digests_match", J.Bool true);
            ]
        end
        else
          Error
            (`Msg
              (Printf.sprintf "digest mismatch on %d request(s), e.g. %s"
                 (List.length mismatches)
                 (fst (List.hd mismatches))))
      end
    in
    Result.bind comparison @@ fun extra ->
    (match json with
    | None -> ()
    | Some path ->
      let base =
        match Serve.Loadgen.result_to_json res with J.Obj kvs -> kvs | j -> [ ("result", j) ]
      in
      write_json path (J.Obj (base @ extra));
      Printf.printf "summary written to %s\n" path);
    if shutdown then Serve.Loadgen.shutdown ~socket;
    if res.Serve.Loadgen.l_completed < res.Serve.Loadgen.l_sent then
      Error (`Msg "not every request completed (errors, rejections or cancellations above)")
    else Ok ()
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a serving daemon with a pipelined request stream and report client-observed \
          p50/p99 latency, throughput and the cache hit rate; optionally race it against \
          sequential one-shot flows and cross-check outcome digests.")
    (Term.term_result
       Term.(
         const run $ socket $ count $ window $ kernels $ flavor $ levels $ milp_nodes_arg
         $ milp_budget_arg $ json $ compare_oneshot $ shutdown))

let () =
  let doc = "Mapping-aware iterative buffer placement for dataflow circuits (DAC'23 reproduction)." in
  let info = Cmd.info "regulate" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            show_cmd;
            flow_cmd;
            absint_cmd;
            lint_cmd;
            verify_cmd;
            tv_cmd;
            compare_cmd;
            cache_cmd;
            export_cmd;
            profile_cmd;
            compile_cmd;
            fuzz_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))
