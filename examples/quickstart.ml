(* Quickstart: the paper's Figure 1/2 phenomenon on a hand-built circuit.

   We build a small dataflow graph with a fork, a constant shift, an
   adder and a branch; synthesise it to LUTs; and show that
   (a) the shifter disappears into downstream logic (its penalty is
       high, so the optimiser avoids buffering its output), and
   (b) the mapping-aware timing model sees far smaller delays than the
       per-unit pre-characterised model.

   Run with: dune exec examples/quickstart.exe *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind

let () =
  (* ---- build the dataflow graph ---- *)
  let g = G.create "quickstart" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let ef = G.add_unit g ~width:0 (K.Fork 2) in
  let v = G.add_unit g ~width:8 ~label:"input" (K.Const 5) in
  let amt = G.add_unit g ~width:8 ~label:"amount" (K.Const 1) in
  let vf = G.add_unit g ~width:8 ~label:"F" (K.Fork 2) in
  let shl = G.add_unit g ~width:8 ~label:"shift" (K.operator Dataflow.Ops.Shl) in
  let add = G.add_unit g ~width:8 ~label:"add" (K.operator Dataflow.Ops.Add) in
  let exit_ = G.add_unit g ~width:8 K.Exit in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:ef ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:0 ~dst:v ~dst_port:0);
  ignore (G.connect g ~src:ef ~src_port:1 ~dst:amt ~dst_port:0);
  let c_input = G.connect g ~src:v ~src_port:0 ~dst:vf ~dst_port:0 in
  let c_fork_shift = G.connect g ~src:vf ~src_port:0 ~dst:shl ~dst_port:0 in
  ignore (G.connect g ~src:amt ~src_port:0 ~dst:shl ~dst_port:1);
  let c_shift_add = G.connect g ~src:shl ~src_port:0 ~dst:add ~dst_port:0 in
  ignore (G.connect g ~src:vf ~src_port:1 ~dst:add ~dst_port:1);
  ignore (G.connect g ~src:add ~src_port:0 ~dst:exit_ ~dst_port:0);
  (* register the input so the datapath does not fold to a constant *)
  G.set_buffer g c_input (Some { G.transparent = false; slots = 2 });

  (* ---- synthesise and map ---- *)
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  Printf.printf "netlist: %d gates, %d FFs\n" (Net.n_gates net) (Net.count_ffs net);
  Printf.printf "mapped:  %d LUTs, %d logic levels\n" (Techmap.Lutgraph.n_luts lg)
    lg.Techmap.Lutgraph.max_level;
  Printf.printf "LUTs labelled 'shift': %d  (its constant shift is absorbed downstream)\n"
    (List.length (Techmap.Lutgraph.luts_of_unit lg shl));

  (* ---- the mapping-aware timing model ---- *)
  let model = Timing.Mapping_aware.build g ~net lg in
  Printf.printf "\ntiming model: %d delay nodes, %d fake nodes, %d pairs\n"
    model.Timing.Model.delay_nodes model.Timing.Model.fake_nodes
    (List.length model.Timing.Model.pairs);
  Printf.printf "penalty(F -> shift)    = %.2f\n" model.Timing.Model.penalty.(c_fork_shift);
  Printf.printf "penalty(shift -> add)  = %.2f   <- buffering here would break the shared LUT\n"
    model.Timing.Model.penalty.(c_shift_add);

  (* ---- compare with the pre-characterised model ---- *)
  let pre = Timing.Precharacterized.build g in
  let worst m =
    List.fold_left (fun acc p -> max acc p.Timing.Model.p_delay) 0. m.Timing.Model.pairs
  in
  Printf.printf "\nworst modelled path: mapping-aware %.2f ns vs pre-characterised %.2f ns\n"
    (worst model) (worst pre);

  (* ---- let the MILP choose buffers under a tight period ---- *)
  let cfg = { Buffering.Formulation.default_config with cp_target = 1.0 } in
  match Buffering.Formulation.solve cfg g model (Buffering.Cfdfc.extract g) with
  | Ok p ->
    Printf.printf "\nMILP (CP target %.1f ns): %d new buffers on channels [%s]\n"
      cfg.Buffering.Formulation.cp_target
      (List.length p.Buffering.Formulation.new_buffers)
      (String.concat "; "
         (List.map
            (fun c ->
              let ch = G.channel g c in
              Printf.sprintf "%s->%s" (G.unit_node g ch.G.src).G.label
                (G.unit_node g ch.G.dst).G.label)
            p.Buffering.Formulation.new_buffers));
    if p.Buffering.Formulation.unfixable_paths > 0 then
      Printf.printf
        "(%d register-to-register paths are internal to a unit and no buffer can shorten them)\n"
        p.Buffering.Formulation.unfixable_paths;
    if List.mem c_shift_add p.Buffering.Formulation.new_buffers then
      print_endline "NOTE: the high-penalty channel was buffered anyway (period left no choice)"
    else print_endline "the high-penalty shift->add channel was spared, as Eq. 3 intends"
  | Error e -> Printf.printf "MILP: %s\n" (Buffering.Formulation.failure_message e)
