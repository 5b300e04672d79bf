(* Every shipped lint rule is exercised on a deliberately broken fixture
   (positive: the rule fires) and, where cheap, on a sound one (negative:
   it stays quiet). *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module D = Lint.Diagnostic
module E = Lint.Engine
module L = Techmap.Lutgraph
module LM = Timing.Lut_map
module M = Timing.Model
module Lp = Milp.Lp

let check = Alcotest.check

let fired rule (r : E.report) = List.exists (fun d -> d.D.rule = rule) r.E.diagnostics

let expect_fired rule r = check Alcotest.bool (rule ^ " fires") true (fired rule r)
let expect_quiet rule r = check Alcotest.bool (rule ^ " quiet") false (fired rule r)

let opaque = Some { G.transparent = false; slots = 2 }

(* ------------------------------------------------------------------ *)
(* DFG rules *)

let test_unconnected_port () =
  let g = G.create "broken" in
  let _ = G.add_unit g (K.Fork 2) in
  let r = E.check_graph g in
  expect_fired "dfg-unconnected-port" r;
  (* one diagnostic per dangling port: 1 input + 2 outputs *)
  check Alcotest.int "three dangling ports" 3 r.E.errors

let test_unreachable_unit () =
  (* an island of two opaque buffer units: fully wired, cyclic, but with
     no entry/source feeding it *)
  let g, _, _, _, _ = Fixtures.fig2 () in
  let b1 = G.add_unit g ~label:"island1" (K.Buffer { transparent = false; slots = 1 }) in
  let b2 = G.add_unit g ~label:"island2" (K.Buffer { transparent = false; slots = 1 }) in
  ignore (G.connect g ~src:b1 ~src_port:0 ~dst:b2 ~dst_port:0);
  ignore (G.connect g ~src:b2 ~src_port:0 ~dst:b1 ~dst_port:0);
  let r = E.check_graph g in
  expect_fired "dfg-unreachable-unit" r;
  (* the opaque buffer units break the island's cycle combinationally *)
  expect_quiet "dfg-comb-cycle" r

let test_comb_cycle () =
  let g, _ = Fixtures.loop ~buffered:false () in
  expect_fired "dfg-comb-cycle" (E.check_graph g);
  let g, _ = Fixtures.loop ~buffered:true () in
  expect_quiet "dfg-comb-cycle" (E.check_graph g)

let test_no_back_edge () =
  let g, back = Fixtures.loop ~buffered:false () in
  let r = E.check_graph ~stage:Lint.Dfg_rules.Pre_buffering g in
  expect_fired "dfg-no-back-edge" r;
  G.set_back_edge g back;
  expect_quiet "dfg-no-back-edge" (E.check_graph ~stage:Lint.Dfg_rules.Pre_buffering g)

let self_loop_graph () =
  let g = G.create "selfloop" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let sink1 = G.add_unit g K.Sink in
  let f = G.add_unit g ~width:8 (K.Fork 2) in
  let sink2 = G.add_unit g K.Sink in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:sink1 ~dst_port:0);
  let self = G.connect g ~src:f ~src_port:0 ~dst:f ~dst_port:0 in
  ignore (G.connect g ~src:f ~src_port:1 ~dst:sink2 ~dst_port:0);
  (g, self)

let test_self_loop () =
  let g, self = self_loop_graph () in
  expect_fired "dfg-self-loop" (E.check_graph g);
  G.set_buffer g self opaque;
  expect_quiet "dfg-self-loop" (E.check_graph g)

let width_graph ~wide =
  let g = G.create "widths" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let ef = G.add_unit g ~width:0 (K.Fork 2) in
  let c8 = G.add_unit g ~width:8 (K.Const 5) in
  let cw = G.add_unit g ~width:wide (K.Const 3) in
  let add = G.add_unit g ~width:8 (K.operator Dataflow.Ops.Add) in
  let sink = G.add_unit g K.Sink in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:ef ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:0 ~dst:c8 ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:1 ~dst:cw ~dst_port:0);
  ignore (G.connect g ~src:c8 ~src_port:0 ~dst:add ~dst_port:0);
  ignore (G.connect g ~src:cw ~src_port:0 ~dst:add ~dst_port:1);
  ignore (G.connect g ~src:add ~src_port:0 ~dst:sink ~dst_port:0);
  g

let test_width_mismatch () =
  (* a 16-bit operand into an 8-bit adder is silently truncated: warn *)
  expect_fired "dfg-width-mismatch" (E.check_graph (width_graph ~wide:16));
  (* a narrower operand is zero-extended by elaboration: legitimate *)
  expect_quiet "dfg-width-mismatch" (E.check_graph (width_graph ~wide:4))

let test_dfg_clean_fixtures () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  check Alcotest.bool "fig2 clean" true (E.clean (E.check_graph g));
  let g, _ = Fixtures.loop () in
  check Alcotest.bool "buffered loop clean" true (E.clean (E.check_graph g))

(* ------------------------------------------------------------------ *)
(* Netlist rules *)

let tiny_graph () =
  let g = G.create "tiny" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let sink = G.add_unit g K.Sink in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:sink ~dst_port:0);
  g

let test_net_undriven () =
  let g = tiny_graph () in
  let net = Net.create "t" in
  let a = Net.input net ~owner:(-1) ~dom:Net.Data "a" in
  let w = Net.wire net ~owner:(-1) ~dom:Net.Data in
  let y = Net.and2 net ~owner:(-1) a w in
  ignore (Net.output net ~owner:(-1) "y" y);
  expect_fired "net-undriven" (E.check_netlist g net)

let test_net_duplicate_io () =
  let g = tiny_graph () in
  let net = Net.create "t" in
  let a = Net.input net ~owner:(-1) ~dom:Net.Data "x" in
  let b = Net.input net ~owner:(-1) ~dom:Net.Data "x" in
  ignore (Net.output net ~owner:(-1) "y" (Net.and2 net ~owner:(-1) a b));
  expect_fired "net-duplicate-io" (E.check_netlist g net)

let test_net_comb_cycle () =
  let g = tiny_graph () in
  let net = Net.create "t" in
  let a = Net.input net ~owner:(-1) ~dom:Net.Data "a" in
  let w = Net.wire net ~owner:(-1) ~dom:Net.Data in
  let x = Net.and2 net ~owner:(-1) a w in
  Net.connect net w x;
  ignore (Net.output net ~owner:(-1) "y" x);
  expect_fired "net-comb-cycle" (E.check_netlist g net)

let test_net_owner_invalid () =
  let g = tiny_graph () in
  let net = Net.create "t" in
  let a = Net.input net ~owner:99 ~dom:Net.Data "a" in
  ignore (Net.output net ~owner:(-1) "y" a);
  expect_fired "net-owner-invalid" (E.check_netlist g net)

let test_net_clean_elaboration () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net = Elaborate.run g in
  check Alcotest.bool "elaborated fig2 clean" true (E.clean (E.check_netlist g net))

(* ------------------------------------------------------------------ *)
(* LUT-mapping rules *)

let lut_pipeline g =
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  let tg, model = Timing.Mapping_aware.build_with_graph g ~net lg in
  (net, lg, tg, model)

let fig2_pipeline () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  (g, lut_pipeline g)

let test_lut_clean () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  let r = E.check_mapping g lg tg model in
  check Alcotest.bool "fig2 mapping has no errors" true (E.ok r)

let test_lut_owner_invalid () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  let lg = { lg with L.luts = Array.map (fun l -> { l with L.owner = 999 }) lg.L.luts } in
  expect_fired "lut-owner-invalid" (E.check_mapping g lg tg model)

let test_lut_owner_undetermined () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  let lg = { lg with L.luts = Array.map (fun l -> { l with L.owner = -1 }) lg.L.luts } in
  let r = E.check_mapping g lg tg model in
  expect_fired "lut-owner-undetermined" r;
  (* an undetermined owner is informational, not an error *)
  check Alcotest.bool "still ok" true (E.ok r)

let test_lut_fake_accounting () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  expect_fired "lut-fake-accounting"
    (E.check_mapping g lg { tg with LM.n_real = tg.LM.n_real + 1 } model);
  expect_fired "lut-fake-accounting"
    (E.check_mapping g lg { tg with LM.n_fake = -1 } model)

let test_lut_unmapped_edges () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  let r = E.check_mapping g lg { tg with LM.n_unmapped_edges = 2 } model in
  expect_fired "lut-unmapped-edges" r

let test_lut_cross_buffered () =
  (* graft a crossing node that traverses the loop's buffered back edge *)
  let g, back = Fixtures.loop () in
  let _, lg, tg, model = lut_pipeline g in
  let tg =
    {
      tg with
      LM.kinds = Array.append tg.LM.kinds [| LM.Cross_fwd back |];
      succs = Array.append tg.LM.succs [| [] |];
      preds = Array.append tg.LM.preds [| [] |];
    }
  in
  expect_fired "lut-cross-buffered" (E.check_mapping g lg tg model);
  (* and one referencing a channel that does not exist *)
  let tg = { tg with LM.kinds = Array.append tg.LM.kinds [| LM.Cross_fwd 9999 |] } in
  let tg = { tg with LM.succs = Array.append tg.LM.succs [| [] |] } in
  let tg = { tg with LM.preds = Array.append tg.LM.preds [| [] |] } in
  expect_fired "lut-cross-buffered" (E.check_mapping g lg tg model)

let test_lut_timing_cycle () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  let succs = Array.copy tg.LM.succs in
  succs.(tg.LM.capture) <- tg.LM.launch :: succs.(tg.LM.capture);
  expect_fired "lut-timing-cycle" (E.check_mapping g lg { tg with LM.succs = succs } model)

let test_lut_penalty_range () =
  let g, (_, lg, tg, model) = fig2_pipeline () in
  expect_fired "lut-penalty-range"
    (E.check_mapping g lg tg
       { model with M.penalty = Array.map (fun _ -> 1.5) model.M.penalty });
  expect_fired "lut-penalty-range"
    (E.check_mapping g lg tg { model with M.penalty = [| 0.5 |] })

(* The §IV-C penalty invariants hold on the whole built-in kernel suite:
   [Lut_map.build] never produces negative node counts and [Generate.run]
   keeps every per-channel penalty within [0, 1]. *)
let test_penalty_bounds_kernels () =
  List.iter
    (fun k ->
      let name = k.Hls.Kernels.name in
      let g = Hls.Kernels.graph k in
      ignore (Core.Flow.seed_back_edges g);
      let _, _, tg, model = lut_pipeline g in
      check Alcotest.bool (name ^ ": n_real >= 0") true (tg.LM.n_real >= 0);
      check Alcotest.bool (name ^ ": n_fake >= 0") true (tg.LM.n_fake >= 0);
      check Alcotest.bool (name ^ ": n_unmapped >= 0") true (tg.LM.n_unmapped_edges >= 0);
      Array.iteri
        (fun c p ->
          check Alcotest.bool
            (Printf.sprintf "%s: penalty(%d) = %g in [0,1]" name c p)
            true
            ((not (Float.is_nan p)) && p >= 0. && p <= 1.))
        model.M.penalty)
    Hls.Kernels.all

(* ------------------------------------------------------------------ *)
(* MILP certificate rules *)

let no_model = { M.pairs = []; penalty = [||]; fixed_reg_to_reg = 0.; delay_nodes = 0; fake_nodes = 0 }

let test_milp_row_violated () =
  let lp = Lp.create "rows" in
  let x = Lp.add_var lp ~hi:10. "x" in
  let y = Lp.add_var lp ~hi:10. "y" in
  Lp.add_constr lp ~name:"cap" [ (1., x); (1., y) ] Lp.Le 1.;
  let r = E.check_milp ~cp_target:4.2 ~buffered:[] no_model lp [| 1.; 1. |] in
  expect_fired "milp-row-violated" r;
  expect_quiet "milp-row-violated"
    (E.check_milp ~cp_target:4.2 ~buffered:[] no_model lp [| 1.; 0. |])

let test_milp_bound_violated () =
  let lp = Lp.create "bounds" in
  let _ = Lp.add_var lp ~hi:1. "x" in
  expect_fired "milp-bound-violated"
    (E.check_milp ~cp_target:4.2 ~buffered:[] no_model lp [| 2. |])

let test_milp_integrality () =
  let lp = Lp.create "int" in
  let _ = Lp.add_var lp ~kind:Lp.Binary "r" in
  expect_fired "milp-integrality"
    (E.check_milp ~cp_target:4.2 ~buffered:[] no_model lp [| 0.5 |])

let test_milp_cp_exceeded () =
  let lp = Lp.create "empty" in
  let model =
    {
      no_model with
      M.pairs =
        [
          { M.p_src = M.T_reg; p_dst = M.T_chan_fwd 0; p_delay = 3. };
          { M.p_src = M.T_chan_fwd 0; p_dst = M.T_reg; p_delay = 3. };
        ];
      penalty = [| 0. |];
    }
  in
  (* unbuffered: 3 + 3 = 6 ns through channel 0 misses a 4 ns target *)
  expect_fired "milp-cp-exceeded" (E.check_milp ~cp_target:4.0 ~buffered:[] model lp [||]);
  (* a buffer on channel 0 restarts the path: both halves fit *)
  expect_quiet "milp-cp-exceeded" (E.check_milp ~cp_target:4.0 ~buffered:[ 0 ] model lp [||])

let test_milp_unfixable_path () =
  let lp = Lp.create "empty" in
  let model =
    { no_model with M.pairs = [ { M.p_src = M.T_reg; p_dst = M.T_reg; p_delay = 10. } ] }
  in
  let r = E.check_milp ~cp_target:4.0 ~buffered:[] model lp [||] in
  expect_fired "milp-unfixable-path" r;
  (* unfixable segments are informational: buffering cannot help them *)
  check Alcotest.bool "no error" true (E.ok r)

let test_milp_solve_failure () =
  let d = Lint.Milp_rules.solve_failure "infeasible" in
  check Alcotest.string "rule id" "milp-solve-failed" d.D.rule;
  check Alcotest.bool "is an error" true (d.D.severity = D.Error)

let test_milp_real_certificate () =
  (* a real solve on fig2 must pass its own certificate check *)
  let g, (_, _, _, model) = fig2_pipeline () in
  let cfg = { Buffering.Formulation.default_config with cp_target = 4.2 } in
  match Buffering.Formulation.solve cfg g model (Buffering.Cfdfc.extract g) with
  | Error e -> Alcotest.fail ("solve failed: " ^ Buffering.Formulation.failure_message e)
  | Ok p ->
    let r =
      E.check_milp ~cp_target:4.2 ~buffered:p.Buffering.Formulation.all_buffered model
        p.Buffering.Formulation.lp p.Buffering.Formulation.solution
    in
    check Alcotest.bool "certificate ok" true (E.ok r)

(* ------------------------------------------------------------------ *)
(* Engine + flow integration *)

let test_gate_semantics () =
  let warn = D.make ~rule:"w" ~severity:D.Warning ~loc:D.Whole "w" in
  let err = D.make ~rule:"e" ~severity:D.Error ~loc:D.Whole "e" in
  let r = E.gate ~stage:"s" (E.of_diagnostics [ warn ]) in
  check Alcotest.int "warnings pass through" 1 r.E.warnings;
  match E.gate ~stage:"s" (E.of_diagnostics [ warn; err ]) with
  | exception E.Lint_error r ->
    check Alcotest.int "payload keeps all findings" 2 (List.length r.E.diagnostics)
  | _ -> Alcotest.fail "expected Lint_error"

let test_catalogue () =
  let rules = E.catalogue in
  check Alcotest.bool "at least a dozen rules" true (List.length rules >= 12);
  let ids = List.map (fun r -> r.Lint.Rule.id) rules in
  check Alcotest.int "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids))

module J = Support.Json

let reparse j =
  match J.of_string (J.to_string j) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg

let test_json_rendering () =
  let d = D.make ~rule:"x" ~severity:D.Error ~loc:(D.Channel 3) "say \"hi\"\n" in
  let j = reparse (D.to_json d) in
  check Alcotest.(option string) "message reads back" (Some "say \"hi\"\n") (J.str_mem "message" j);
  check Alcotest.(option int) "loc id" (Some 3) (Option.bind (J.mem "loc" j) (J.int_mem "id"));
  let r = reparse (E.report_to_json ~label:"k" (E.of_diagnostics [ d ])) in
  check Alcotest.(option string) "report carries label" (Some "k") (J.str_mem "label" r);
  check Alcotest.(option int) "error count" (Some 1) (J.int_mem "errors" r)

(* Trace names, lint messages and labels all go through one escaper: a
   string with a quote, a backslash, a tab, a CR and a raw control byte
   reads back unchanged from each emitter. *)
let test_json_hostile_strings () =
  let nasty = "q\"b\\t\tr\r\001." in
  Support.Trace.start ();
  Support.Trace.with_span nasty (fun () -> Support.Trace.add nasty 1);
  let trace = reparse (Support.Trace.to_chrome_json (Support.Trace.stop ())) in
  let span_names =
    match J.mem "traceEvents" trace with
    | Some (J.Arr evs) -> List.filter_map (J.str_mem "name") evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  check Alcotest.(list string) "span and counter names" [ nasty; nasty ] span_names;
  check Alcotest.(option int) "counter key" (Some 1)
    (Option.bind (J.mem "otherData" trace) (fun o ->
         Option.bind (J.mem "counters" o) (J.int_mem nasty)));
  let d = D.make ~rule:"x" ~severity:D.Warning ~loc:D.Whole nasty in
  let r = reparse (E.report_to_json ~label:nasty (E.of_diagnostics [ d ])) in
  check Alcotest.(option string) "label" (Some nasty) (J.str_mem "label" r);
  match J.mem "diagnostics" r with
  | Some (J.Arr [ dj ]) ->
    check Alcotest.(option string) "message" (Some nasty) (J.str_mem "message" dj)
  | _ -> Alcotest.fail "expected one diagnostic"

let test_flow_gate_aborts () =
  let g = G.create "broken" in
  let _ = G.add_unit g (K.Fork 2) in
  match Core.Flow.iterative g with
  | exception E.Lint_error r -> check Alcotest.bool "errors recorded" true (r.E.errors > 0)
  | _ -> Alcotest.fail "expected Lint_error"

let test_flow_collects_report () =
  let g, _ = Fixtures.loop () in
  let cfg = { Core.Flow.default_config with max_iterations = 1 } in
  let out = Core.Flow.iterative ~config:cfg g in
  check Alcotest.int "no errors survive a completed run" 0 out.Core.Flow.lint.E.errors

let suite =
  [
    Alcotest.test_case "dfg: unconnected port" `Quick test_unconnected_port;
    Alcotest.test_case "dfg: unreachable unit" `Quick test_unreachable_unit;
    Alcotest.test_case "dfg: combinational cycle" `Quick test_comb_cycle;
    Alcotest.test_case "dfg: missing back edge" `Quick test_no_back_edge;
    Alcotest.test_case "dfg: self loop" `Quick test_self_loop;
    Alcotest.test_case "dfg: width mismatch" `Quick test_width_mismatch;
    Alcotest.test_case "dfg: clean fixtures" `Quick test_dfg_clean_fixtures;
    Alcotest.test_case "net: undriven fanin" `Quick test_net_undriven;
    Alcotest.test_case "net: duplicate io" `Quick test_net_duplicate_io;
    Alcotest.test_case "net: combinational cycle" `Quick test_net_comb_cycle;
    Alcotest.test_case "net: invalid owner" `Quick test_net_owner_invalid;
    Alcotest.test_case "net: clean elaboration" `Quick test_net_clean_elaboration;
    Alcotest.test_case "lut: clean mapping" `Quick test_lut_clean;
    Alcotest.test_case "lut: invalid owner" `Quick test_lut_owner_invalid;
    Alcotest.test_case "lut: undetermined owner" `Quick test_lut_owner_undetermined;
    Alcotest.test_case "lut: fake accounting" `Quick test_lut_fake_accounting;
    Alcotest.test_case "lut: unmapped edges" `Quick test_lut_unmapped_edges;
    Alcotest.test_case "lut: crossing over buffer" `Quick test_lut_cross_buffered;
    Alcotest.test_case "lut: timing cycle" `Quick test_lut_timing_cycle;
    Alcotest.test_case "lut: penalty range" `Quick test_lut_penalty_range;
    Alcotest.test_case "lut: penalty bounds on kernel suite" `Slow test_penalty_bounds_kernels;
    Alcotest.test_case "milp: row violated" `Quick test_milp_row_violated;
    Alcotest.test_case "milp: bound violated" `Quick test_milp_bound_violated;
    Alcotest.test_case "milp: integrality" `Quick test_milp_integrality;
    Alcotest.test_case "milp: cp exceeded" `Quick test_milp_cp_exceeded;
    Alcotest.test_case "milp: unfixable path" `Quick test_milp_unfixable_path;
    Alcotest.test_case "milp: solve failure" `Quick test_milp_solve_failure;
    Alcotest.test_case "milp: real solve certificate" `Quick test_milp_real_certificate;
    Alcotest.test_case "engine: gate semantics" `Quick test_gate_semantics;
    Alcotest.test_case "engine: catalogue" `Quick test_catalogue;
    Alcotest.test_case "engine: json rendering" `Quick test_json_rendering;
    Alcotest.test_case "json: hostile strings round-trip trace and lint" `Quick
      test_json_hostile_strings;
    Alcotest.test_case "flow: gate aborts on broken graph" `Quick test_flow_gate_aborts;
    Alcotest.test_case "flow: report collected" `Quick test_flow_collects_report;
  ]
