(* Export the artefacts a hardware engineer would inspect: the dataflow
   graph (Graphviz), the mapped circuit (BLIF, as the paper's
   ODIN-II/ABC/VPR hand-offs use), and a simulation waveform (VCD).

   Run with: dune exec examples/export_artifacts.exe
   Then open gsumif.vcd in GTKWave, or feed gsumif.blif to ABC/VPR. *)

let () =
  let kernel = Hls.Kernels.by_name "gsumif" in
  let outcome = Core.Flow.iterative (Hls.Kernels.graph kernel) in
  let g = outcome.Core.Flow.graph in

  (* Graphviz of the buffered dataflow circuit *)
  Out_channel.with_open_text "gsumif.dot" (fun oc -> Dataflow.Dot.to_channel oc g);
  Printf.printf "wrote gsumif.dot (%d units, %d buffers)\n" (Dataflow.Graph.n_units g)
    outcome.Core.Flow.total_buffers;

  (* BLIF of the mapped LUT circuit, with per-LUT truth tables: the
     flow's own final synthesis of [g] *)
  let net = outcome.Core.Flow.net and lg = outcome.Core.Flow.lutgraph in
  Out_channel.with_open_text "gsumif.blif" (fun oc -> Techmap.Blif.to_channel oc net lg);
  Printf.printf "wrote gsumif.blif (%d LUTs, %d FFs, %d levels)\n" (Techmap.Lutgraph.n_luts lg)
    (Net.count_ffs net) lg.Techmap.Lutgraph.max_level;

  (* the mapping is checked against the AIG before export *)
  assert (Techmap.Truth.equivalent ~vectors:128 lg);
  print_endline "post-mapping equivalence check passed";

  (* VCD waveform of the kernel execution *)
  let r =
    Out_channel.with_open_text "gsumif.vcd" (fun oc ->
        Sim.Elastic.run ~memories:(kernel.Hls.Kernels.mems ()) ~vcd:oc g)
  in
  Printf.printf "wrote gsumif.vcd (%d cycles, result %s)\n" r.Sim.Elastic.cycles
    (match r.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "-")
