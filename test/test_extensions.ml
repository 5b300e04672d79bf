(* Tests for the extension features: LUT truth tables + post-mapping
   equivalence, BLIF export, VCD tracing, slack matching, and the
   routing-aware timing mode. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module L = Techmap.Lutgraph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let mapped_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  (g, net, synth, Techmap.Mapper.run synth)

(* ------------------------------------------------------------------ *)
(* truth tables / equivalence *)

let test_truth_simple_and () =
  let net = Net.create "t" in
  let a = Net.input net ~owner:0 ~dom:Net.Data "a" in
  let b = Net.input net ~owner:0 ~dom:Net.Data "b" in
  ignore (Net.output net ~owner:0 "y" (Net.and2 net ~owner:0 a b));
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  check Alcotest.int "one lut" 1 (L.n_luts lg);
  (* AND of two leaves: table 1000b = 8, whichever leaf order *)
  check Alcotest.int64 "and table" 8L (Techmap.Truth.lut_table lg 0)

let test_truth_xor_table () =
  let net = Net.create "t" in
  let a = Net.input net ~owner:0 ~dom:Net.Data "a" in
  let b = Net.input net ~owner:0 ~dom:Net.Data "b" in
  ignore (Net.output net ~owner:0 "y" (Net.xor2 net ~owner:0 a b));
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  (* the AIG expresses XOR with a complemented output literal, so the
     LUT root node computes XNOR (1001b); the inversion lives on the
     combinational-output literal and the equivalence check covers it *)
  check Alcotest.int64 "xnor root table" 9L (Techmap.Truth.lut_table lg 0);
  check Alcotest.bool "still equivalent" true (Logic_reference.cover_equivalent ~vectors:16 lg)

let test_equivalence_fig2 () =
  let _, _, _, lg = mapped_fig2 () in
  check Alcotest.bool "mapping preserves function" true (Logic_reference.cover_equivalent ~vectors:64 lg)

(* property: mapping of random netlists is functionally equivalent *)
let prop_equivalence_random =
  QCheck.Test.make ~name:"LUT mapping equivalent to AIG" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let net = Net.create "rand" in
      let n_in = 3 + Support.Rng.int rng 5 in
      let ins =
        Array.init n_in (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i))
      in
      let pool = ref (Array.to_list ins) in
      let pick () = List.nth !pool (Support.Rng.int rng (List.length !pool)) in
      for _ = 1 to 30 do
        let a = pick () and b = pick () in
        let gate =
          match Support.Rng.int rng 4 with
          | 0 -> Net.and2 net ~owner:0 a b
          | 1 -> Net.or2 net ~owner:0 a b
          | 2 -> Net.xor2 net ~owner:0 a b
          | _ -> Net.mux2 net ~owner:0 ~sel:(pick ()) a b
        in
        pool := gate :: !pool
      done;
      ignore (Net.output net ~owner:0 "y0" (pick ()));
      ignore (Net.output net ~owner:0 "y1" (pick ()));
      let synth = Techmap.Synth.run net in
      let lg = Techmap.Mapper.run synth in
      Logic_reference.cover_equivalent ~vectors:64 ~seed lg)

(* ------------------------------------------------------------------ *)
(* balance pass *)

let test_balance_reduces_chain_depth () =
  let net = Net.create "chain" in
  let ins = Array.init 16 (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i)) in
  let acc = ref ins.(0) in
  for i = 1 to 15 do
    acc := Net.and2 net ~owner:0 !acc ins.(i)
  done;
  ignore (Net.output net ~owner:0 "y" !acc);
  let synth = Techmap.Synth.run net in
  let balanced = Techmap.Balance.run synth in
  check Alcotest.int "chain depth" 15 (Techmap.Aig.depth synth.Techmap.Synth.aig);
  check Alcotest.int "balanced depth" 4 (Techmap.Aig.depth balanced.Techmap.Synth.aig);
  (* function preserved end to end: map the balanced AIG and check it *)
  let lg = Techmap.Mapper.run balanced in
  check Alcotest.bool "equivalent after mapping" true (Logic_reference.cover_equivalent ~vectors:64 lg)

(* property: balancing random netlists never increases depth and the
   original and balanced AIGs agree on all outputs *)
let prop_balance_preserves_function =
  QCheck.Test.make ~name:"balance preserves function, never deepens" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let net = Net.create "rand" in
      let n_in = 3 + Support.Rng.int rng 4 in
      let ins =
        Array.init n_in (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i))
      in
      let pool = ref (Array.to_list ins) in
      let pick () = List.nth !pool (Support.Rng.int rng (List.length !pool)) in
      for _ = 1 to 25 do
        let a = pick () and b = pick () in
        let gate =
          match Support.Rng.int rng 3 with
          | 0 -> Net.and2 net ~owner:0 a b
          | 1 -> Net.or2 net ~owner:0 a b
          | _ -> Net.xor2 net ~owner:0 a b
        in
        pool := gate :: !pool
      done;
      ignore (Net.output net ~owner:0 "y" (pick ()));
      let synth = Techmap.Synth.run net in
      let balanced = Techmap.Balance.run synth in
      if Techmap.Aig.depth balanced.Techmap.Synth.aig > Techmap.Aig.depth synth.Techmap.Synth.aig
      then false
      else begin
        (* compare on all input assignments via the shared netlist gates *)
        let gate_value = Hashtbl.create 16 in
        let eval (s : Techmap.Synth.t) =
          let values =
            Logic_reference.eval_aig s.Techmap.Synth.aig (fun node ->
                match Hashtbl.find_opt s.Techmap.Synth.gate_of_ci node with
                | Some gid -> Option.value (Hashtbl.find_opt gate_value gid) ~default:false
                | None -> false)
          in
          List.map
            (fun (_, tag, lit) ->
              let v = Techmap.Aig.node_of_lit lit in
              ( tag,
                if v = 0 then Techmap.Aig.is_complement lit
                else values.(v) <> Techmap.Aig.is_complement lit ))
            (Techmap.Aig.cos s.Techmap.Synth.aig)
        in
        let ok = ref true in
        for v = 0 to (1 lsl n_in) - 1 do
          Hashtbl.reset gate_value;
          List.iteri
            (fun i gid -> Hashtbl.replace gate_value gid ((v lsr i) land 1 = 1))
            (Net.inputs net);
          if eval synth <> eval balanced then ok := false
        done;
        !ok
      end)

(* ------------------------------------------------------------------ *)
(* BLIF *)

let test_blif_structure () =
  let _, net, _, lg = mapped_fig2 () in
  let blif = Techmap.Blif.of_lutgraph net lg in
  let contains needle =
    let n = String.length needle and h = String.length blif in
    let rec go i = i + n <= h && (String.sub blif i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has model" true (contains ".model");
  check Alcotest.bool "has inputs" true (contains ".inputs");
  check Alcotest.bool "has outputs" true (contains ".outputs");
  check Alcotest.bool "has names" true (contains ".names");
  check Alcotest.bool "has end" true (contains ".end");
  (* one .names block per LUT at least *)
  let count_names =
    let rec go i acc =
      if i + 6 > String.length blif then acc
      else if String.sub blif i 6 = ".names" then go (i + 6) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.bool "names blocks cover luts" true (count_names >= L.n_luts lg)

(* ------------------------------------------------------------------ *)
(* VCD *)

let test_vcd_written () =
  let g, _ = Fixtures.loop () in
  let file = Filename.temp_file "repro" ".vcd" in
  let oc = open_out file in
  let r = Sim.Elastic.run ~vcd:oc g in
  close_out oc;
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  let content = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  let contains needle =
    let n = String.length needle and h = String.length content in
    let rec go i = i + n <= h && (String.sub content i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has header" true (contains "$enddefinitions");
  check Alcotest.bool "has timesteps" true (contains "#0");
  check Alcotest.bool "has vectors" true (contains "b")

(* ------------------------------------------------------------------ *)
(* slack matching *)

let test_slack_pads_short_path () =
  (* fork -> (mul latency 4 | direct) -> join-like operator: the direct
     side needs capacity *)
  let g = G.create "slack" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let tf = G.add_unit g ~width:0 (K.Fork 2) in
  let a = G.add_unit g ~width:8 (K.Const 3) in
  let b = G.add_unit g ~width:8 (K.Const 5) in
  let f = G.add_unit g ~width:8 (K.Fork 2) in
  let mul = G.add_unit g ~width:8 (K.operator Dataflow.Ops.Mul) in
  let add = G.add_unit g ~width:8 (K.operator Dataflow.Ops.Add) in
  let exit_ = G.add_unit g ~width:8 K.Exit in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:tf ~dst_port:0);
  ignore (G.connect g ~src:tf ~src_port:0 ~dst:a ~dst_port:0);
  ignore (G.connect g ~src:tf ~src_port:1 ~dst:b ~dst_port:0);
  ignore (G.connect g ~src:a ~src_port:0 ~dst:f ~dst_port:0);
  ignore (G.connect g ~src:f ~src_port:0 ~dst:mul ~dst_port:0);
  ignore (G.connect g ~src:b ~src_port:0 ~dst:mul ~dst_port:1);
  ignore (G.connect g ~src:mul ~src_port:0 ~dst:add ~dst_port:0);
  let short = G.connect g ~src:f ~src_port:1 ~dst:add ~dst_port:1 in
  ignore (G.connect g ~src:add ~src_port:0 ~dst:exit_ ~dst_port:0);
  let pads = Buffering.Slack.compute g in
  (match List.assoc_opt short pads with
  | Some slots -> check Alcotest.int "short side padded by mul latency" 4 slots
  | None -> Alcotest.fail "expected padding on the short path");
  (* applying them must not change the function *)
  let n = Buffering.Slack.apply g in
  check Alcotest.bool "padded" true (n >= 1);
  let r = Sim.Elastic.run g in
  (* 3*5 + 3 *)
  check (Alcotest.option Alcotest.int) "value" (Some 18) r.Sim.Elastic.exit_value

let test_slack_respects_existing_buffers () =
  let g, back = Fixtures.loop () in
  let pads = Buffering.Slack.compute g in
  check Alcotest.bool "back edge untouched" true (not (List.mem_assoc back pads))

let test_slack_preserves_kernels () =
  let k = Hls.Kernels.by_name "gsumif" in
  let expected = Hls.Kernels.reference k in
  let g = Hls.Kernels.graph k in
  let _ = Core.Flow.seed_back_edges g in
  let before = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
  let _ = Buffering.Slack.apply g in
  let after = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
  check (Alcotest.option Alcotest.int) "same value" (Some expected) after.Sim.Elastic.exit_value;
  check Alcotest.bool "not slower" true (after.Sim.Elastic.cycles <= before.Sim.Elastic.cycles)

(* ------------------------------------------------------------------ *)
(* routing-aware mode *)

let test_routing_aware_flow () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let config = { Core.Flow.default_config with Core.Flow.routing_aware = true } in
  let outcome = Core.Flow.iterative ~config g in
  check Alcotest.bool "completes" true (outcome.Core.Flow.iterations <> []);
  let r = Sim.Elastic.run outcome.Core.Flow.graph in
  check (Alcotest.option Alcotest.int) "still correct" (Some 10) r.Sim.Elastic.exit_value

let test_lut_extra_increases_delays () =
  let g, net, _, lg = mapped_fig2 () in
  let base = Timing.Mapping_aware.build g ~net lg in
  let inflated = Timing.Mapping_aware.build ~lut_extra:(fun _ -> 0.5) g ~net lg in
  let total m = List.fold_left (fun acc p -> acc +. p.Timing.Model.p_delay) 0. m.Timing.Model.pairs in
  check Alcotest.bool "surcharge visible" true (total inflated > total base +. 0.4)

(* ------------------------------------------------------------------ *)
(* AST pretty-printer round-trips through the parser *)

let test_ast_pp_roundtrip () =
  List.iter
    (fun k ->
      let f = Hls.Kernels.func k in
      let printed = Format.asprintf "%a" Hls.Ast.pp_func f in
      let reparsed = Hls.Parser.parse printed in
      check Alcotest.bool (k.Hls.Kernels.name ^ " round-trips") true (reparsed = f))
    Hls.Kernels.all

(* ------------------------------------------------------------------ *)
(* channel stats and critical path *)

let test_channel_stats () =
  let k = Hls.Kernels.by_name "gsum" in
  let g = Hls.Kernels.graph k in
  let _ = Core.Flow.seed_back_edges g in
  let r = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
  let total =
    Array.fold_left (fun acc st -> acc + st.Sim.Elastic.cs_transfers) 0 r.Sim.Elastic.channel_stats
  in
  check Alcotest.bool "transfers recorded" true (total > 0);
  (* conservation: the exit channel carries exactly one token *)
  let exit_chan =
    G.fold_channels g
      (fun acc c ->
        match (G.unit_node g c.G.dst).G.kind with K.Exit -> Some c.G.cid | _ -> acc)
      None
    |> Option.get
  in
  check Alcotest.int "one exit token" 1
    r.Sim.Elastic.channel_stats.(exit_chan).Sim.Elastic.cs_transfers

let test_critical_path_reported () =
  let g, net, _, lg = mapped_fig2 () in
  let r = Placeroute.Sta.analyze ~seed:7 net lg in
  check Alcotest.bool "path nonempty" true (r.Placeroute.Sta.critical_path <> []);
  check Alcotest.bool "path length bounded by levels" true
    (List.length r.Placeroute.Sta.critical_path <= r.Placeroute.Sta.logic_levels + 1);
  (* arrival argument: path length * lut delay <= cp *)
  check Alcotest.bool "cp consistent" true
    (float_of_int (List.length r.Placeroute.Sta.critical_path) *. Techmap.Lutgraph.level_delay
     <= r.Placeroute.Sta.cp +. 1e-9);
  let rendered = Format.asprintf "%a" (fun fmt () -> Placeroute.Sta.pp_critical_path fmt g lg r) () in
  check Alcotest.bool "rendering mentions a lut" true (String.length rendered > 20)

let suite =
  [
    ("truth table: and", `Quick, test_truth_simple_and);
    ("truth table: xor", `Quick, test_truth_xor_table);
    ("mapping equivalence on fig2", `Quick, test_equivalence_fig2);
    qtest prop_equivalence_random;
    ("balance reduces chain depth", `Quick, test_balance_reduces_chain_depth);
    qtest prop_balance_preserves_function;
    ("blif export structure", `Quick, test_blif_structure);
    ("vcd written", `Quick, test_vcd_written);
    ("slack pads short path", `Quick, test_slack_pads_short_path);
    ("slack respects buffers", `Quick, test_slack_respects_existing_buffers);
    ("slack preserves kernels", `Quick, test_slack_preserves_kernels);
    ("routing-aware flow", `Quick, test_routing_aware_flow);
    ("lut_extra increases delays", `Quick, test_lut_extra_increases_delays);
    ("ast pp round-trips", `Quick, test_ast_pp_roundtrip);
    ("channel stats", `Quick, test_channel_stats);
    ("critical path reported", `Quick, test_critical_path_reported);
  ]
