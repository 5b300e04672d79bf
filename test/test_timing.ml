module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module M = Timing.Model
module LM = Timing.Lut_map

let check = Alcotest.check

let synth_map g =
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  (net, lg)

(* ------------------------------------------------------------------ *)
(* LUT-to-DFG mapping structure *)

let test_lutmap_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net, lg = synth_map g in
  let tg = LM.build g ~net lg in
  check Alcotest.int "one delay node per LUT" (Techmap.Lutgraph.n_luts lg) tg.LM.n_real;
  check Alcotest.bool "launch and capture exist" true (tg.LM.launch <> tg.LM.capture)

let test_lutmap_acyclic () =
  (* private routing decorations guarantee a DAG even on looped kernels *)
  let k = Hls.Kernels.by_name "gsum" in
  let g = Hls.Kernels.graph k in
  let _ = Core.Flow.seed_back_edges g in
  let net, lg = synth_map g in
  let tg = LM.build g ~net lg in
  let model = Timing.Generate.run tg g in
  check Alcotest.bool "pairs nonempty" true (model.M.pairs <> [])

let test_shortest_unbuffered_blocks () =
  let g, back = Fixtures.loop () in
  (* the buffered back edge must not be traversable *)
  let c = G.channel g back in
  match LM.shortest_unbuffered g ~src:c.G.src ~dst:c.G.dst with
  | Some path -> check Alcotest.bool "does not use the buffered channel" false (List.mem back path)
  | None -> ()

let test_shortest_unbuffered_fewest_units () =
  let g, fork, _, _, branch = Fixtures.fig2 () in
  match LM.shortest_unbuffered g ~src:fork ~dst:branch with
  | Some path -> check Alcotest.int "fewest units path" 2 (List.length path)
  | None -> Alcotest.fail "expected path"

(* ------------------------------------------------------------------ *)
(* Timing model generation *)

let model_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net, lg = synth_map g in
  (g, Timing.Mapping_aware.build g ~net lg)

let test_model_pairs_nonneg () =
  let _, model = model_fig2 () in
  List.iter
    (fun p -> Alcotest.(check bool) "delay >= 0" true (p.M.p_delay >= 0.))
    model.M.pairs

let test_model_channels_in_play () =
  let g, model = model_fig2 () in
  List.iter
    (fun c -> Alcotest.(check bool) "valid channel" true (c >= 0 && c < G.n_channels g))
    (M.channels_in_play model)

let test_model_has_reg_endpoints () =
  let _, model = model_fig2 () in
  let has_launch =
    List.exists (fun p -> M.terminal_equal p.M.p_src M.T_reg) model.M.pairs
  in
  let has_capture =
    List.exists (fun p -> M.terminal_equal p.M.p_dst M.T_reg) model.M.pairs
  in
  check Alcotest.bool "launch pairs" true has_launch;
  check Alcotest.bool "capture pairs" true has_capture

(* The paper's §IV-C worked example: a unit whose logic is entirely
   absorbed downstream (the constant-shift "shifter") yields penalty 1 on
   its outgoing channel, while channels from units with their own LUTs
   have lower penalty. *)
let test_penalty_absorbed_unit () =
  let g = G.create "absorb" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let ef = G.add_unit g ~width:0 (K.Fork 2) in
  let v = G.add_unit g ~width:8 (K.Const 5) in
  let amt = G.add_unit g ~width:8 (K.Const 1) in
  let vf = G.add_unit g ~width:8 (K.Fork 2) in
  let shl = G.add_unit g ~width:8 ~label:"shl" (K.operator Dataflow.Ops.Shl) in
  let add = G.add_unit g ~width:8 ~label:"add" (K.operator Dataflow.Ops.Add) in
  let exit_ = G.add_unit g ~width:8 K.Exit in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:ef ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:0 ~dst:v ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:1 ~dst:amt ~dst_port:0);
  ignore (G.connect g ~src:v ~src_port:0 ~dst:vf ~dst_port:0);
  ignore (G.connect g ~src:vf ~src_port:0 ~dst:shl ~dst_port:0);
  ignore (G.connect g ~src:amt ~src_port:0 ~dst:shl ~dst_port:1);
  let c_shl_add = G.connect g ~src:shl ~src_port:0 ~dst:add ~dst_port:0 in
  ignore (G.connect g ~src:vf ~src_port:1 ~dst:add ~dst_port:1);
  ignore (G.connect g ~src:add ~src_port:0 ~dst:exit_ ~dst_port:0);
  (* register the constant source so the datapath sees free FF outputs
     instead of constants (otherwise everything folds away) *)
  (match G.out_channel g v 0 with
  | Some cid -> G.set_buffer g cid (Some { G.transparent = false; slots = 2 })
  | None -> assert false);
  let net, lg = synth_map g in
  (* the shifter's datapath (shift by constant 1) is pure rewiring: no
     LUT should be labelled with it *)
  let shl_luts = Techmap.Lutgraph.luts_of_unit lg shl in
  let data_luts = List.filter (fun l -> l.Techmap.Lutgraph.dom = Net.Data) shl_luts in
  check Alcotest.int "no datapath LUTs in the shifter" 0 (List.length data_luts);
  let model = Timing.Mapping_aware.build g ~net lg in
  check Alcotest.bool "shl->add channel penalised" true (model.M.penalty.(c_shl_add) > 0.)

let test_fake_nodes_on_traversed_units () =
  let _, model = model_fig2 () in
  check Alcotest.bool "fake nodes exist" true (model.M.fake_nodes > 0)

(* ------------------------------------------------------------------ *)
(* Pre-characterised baseline *)

let test_precharacterized_positive_delays () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  G.iter_units g (fun n ->
      match n.G.kind with
      | K.Operator _ ->
        Alcotest.(check bool)
          (n.G.label ^ " has positive delay")
          true
          (Timing.Precharacterized.unit_delay g n.G.uid > 0.)
      | _ -> ())

(* No process-wide table answers for the disabled session: every call
   characterises afresh, and the delay is a function of the unit's
   signature alone — the same on a repeat call and on a copy of the
   graph. *)
let test_precharacterized_cache_stable () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let adds = G.find_units g (fun n -> match n.G.kind with K.Operator _ -> true | _ -> false) in
  match adds with
  | u :: _ ->
    let d1 = Timing.Precharacterized.unit_delay g u in
    let d2 = Timing.Precharacterized.unit_delay g u in
    let d3 = Timing.Precharacterized.unit_delay (G.copy g) u in
    check (Alcotest.float 1e-9) "repeat call" d1 d2;
    check (Alcotest.float 1e-9) "copied graph" d1 d3
  | [] -> Alcotest.fail "no operator"

let test_precharacterized_model () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let model = Timing.Precharacterized.build g in
  check Alcotest.bool "pairs nonempty" true (model.M.pairs <> []);
  Array.iter (fun p -> Alcotest.(check (float 1e-9)) "no penalties" 0. p) model.M.penalty

(* The central claim of the paper: the pre-characterised model is more
   conservative than the mapping-aware one — its worst path estimates
   dominate. *)
let test_baseline_more_conservative () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net, lg = synth_map g in
  let aware = Timing.Mapping_aware.build g ~net lg in
  let precharacterized = Timing.Precharacterized.build g in
  let total m = List.fold_left (fun acc p -> acc +. p.M.p_delay) 0. m.M.pairs in
  let avg m = total m /. float_of_int (max 1 (List.length m.M.pairs)) in
  check Alcotest.bool "baseline avg pair delay dominates" true
    (avg precharacterized >= avg aware)

let suite =
  [
    ("lutmap fig2 structure", `Quick, test_lutmap_fig2);
    ("lutmap acyclic on loops", `Quick, test_lutmap_acyclic);
    ("path search respects buffers", `Quick, test_shortest_unbuffered_blocks);
    ("path search fewest units", `Quick, test_shortest_unbuffered_fewest_units);
    ("model pair delays nonnegative", `Quick, test_model_pairs_nonneg);
    ("model channels valid", `Quick, test_model_channels_in_play);
    ("model has register endpoints", `Quick, test_model_has_reg_endpoints);
    ("penalty of absorbed unit", `Quick, test_penalty_absorbed_unit);
    ("fake nodes on traversed units", `Quick, test_fake_nodes_on_traversed_units);
    ("precharacterized delays positive", `Quick, test_precharacterized_positive_delays);
    ("precharacterized cache", `Quick, test_precharacterized_cache_stable);
    ("precharacterized model shape", `Quick, test_precharacterized_model);
    ("baseline more conservative", `Quick, test_baseline_more_conservative);
  ]
