module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module M = Timing.Model
module F = Buffering.Formulation

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* CFDFC extraction *)

let test_cfdfc_loop () =
  let g, back = Fixtures.loop () in
  match Buffering.Cfdfc.extract g with
  | [ cf ] ->
    check Alcotest.bool "back edge recorded" true (List.mem back cf.Buffering.Cfdfc.back_edges);
    check Alcotest.int "two simple cycles" 2 (List.length cf.Buffering.Cfdfc.cycles);
    check Alcotest.bool "channels subset" true
      (List.for_all (fun c -> c < G.n_channels g) cf.Buffering.Cfdfc.channels)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 cfdfc, got %d" (List.length l))

let test_cfdfc_acyclic () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  check Alcotest.int "no cfdfc" 0 (List.length (Buffering.Cfdfc.extract g))

(* ------------------------------------------------------------------ *)
(* MILP formulation on synthetic models *)

(* a tiny linear pipeline a --c0--> b --c1--> c with controllable delays *)
let linear_graph () =
  let g = G.create "lin" in
  let a = G.add_unit g ~width:8 K.Source in
  let b = G.add_unit g ~width:8 (K.operator Dataflow.Ops.Add) in
  let b2 = G.add_unit g ~width:8 K.Source in
  let c = G.add_unit g ~width:8 K.Sink in
  let c0 = G.connect g ~src:a ~src_port:0 ~dst:b ~dst_port:0 in
  ignore (G.connect g ~src:b2 ~src_port:0 ~dst:b ~dst_port:1);
  let c1 = G.connect g ~src:b ~src_port:0 ~dst:c ~dst_port:0 in
  (g, c0, c1)

let mk_model g pairs penalty_list =
  let penalty = Array.make (G.n_channels g) 0. in
  List.iter (fun (c, p) -> penalty.(c) <- p) penalty_list;
  {
    M.pairs =
      List.map (fun (s, d, del) -> { M.p_src = s; p_dst = d; p_delay = del }) pairs;
    penalty;
    fixed_reg_to_reg = 0.;
    delay_nodes = 0;
    fake_nodes = 0;
  }

let cfg = { F.default_config with F.cp_target = 4.2 }

let test_milp_forces_buffer () =
  (* reg -> c0 -> reg path with 3.0 + 3.0 delay: must buffer c0 *)
  let g, c0, _ = linear_graph () in
  let model =
    mk_model g
      [
        (M.T_reg, M.T_chan_fwd c0, 3.0);
        (M.T_chan_fwd c0, M.T_reg, 3.0);
      ]
      []
  in
  match F.solve cfg g model [] with
  | Ok p ->
    check (Alcotest.list Alcotest.int) "c0 buffered" [ c0 ] p.F.new_buffers;
    check Alcotest.bool "proved" true p.F.proved_optimal
  | Error e -> Alcotest.fail (F.failure_message e)

let test_milp_no_buffer_when_fast () =
  let g, c0, _ = linear_graph () in
  let model =
    mk_model g
      [ (M.T_reg, M.T_chan_fwd c0, 1.0); (M.T_chan_fwd c0, M.T_reg, 1.0) ]
      []
  in
  match F.solve cfg g model [] with
  | Ok p -> check (Alcotest.list Alcotest.int) "no buffers" [] p.F.new_buffers
  | Error e -> Alcotest.fail (F.failure_message e)

let test_milp_penalty_steers_choice () =
  (* reg -> c0 -> c1 -> reg, each hop 2.5 ns: one buffer needed on c0 or
     c1.  With a high penalty on c0 the solver must pick c1 (Eq. 3). *)
  let g, c0, c1 = linear_graph () in
  let pairs =
    [
      (M.T_reg, M.T_chan_fwd c0, 2.0);
      (M.T_chan_fwd c0, M.T_chan_fwd c1, 2.0);
      (M.T_chan_fwd c1, M.T_reg, 2.0);
    ]
  in
  let model = mk_model g pairs [ (c0, 0.9); (c1, 0.0) ] in
  (match F.solve { cfg with F.use_penalty = true } g model [] with
  | Ok p -> check (Alcotest.list Alcotest.int) "penalty avoids c0" [ c1 ] p.F.new_buffers
  | Error e -> Alcotest.fail (F.failure_message e));
  (* sanity: one buffer suffices in either mode *)
  match F.solve { cfg with F.use_penalty = false } g model [] with
  | Ok p -> check Alcotest.int "eq.1 places one buffer" 1 (List.length p.F.new_buffers)
  | Error e -> Alcotest.fail (F.failure_message e)

let test_milp_ready_direction () =
  (* a backward (ready) path can also force a buffer *)
  let g, c0, _ = linear_graph () in
  let model =
    mk_model g
      [ (M.T_reg, M.T_chan_bwd c0, 3.0); (M.T_chan_bwd c0, M.T_reg, 3.0) ]
      []
  in
  match F.solve cfg g model [] with
  | Ok p -> check (Alcotest.list Alcotest.int) "c0 buffered" [ c0 ] p.F.new_buffers
  | Error e -> Alcotest.fail (F.failure_message e)

let test_milp_unfixable_counted () =
  let g, c0, _ = linear_graph () in
  let model =
    mk_model g
      [ (M.T_reg, M.T_reg, 9.9); (M.T_reg, M.T_chan_fwd c0, 1.0) ]
      []
  in
  match F.solve cfg g model [] with
  | Ok p -> check Alcotest.int "unfixable" 1 p.F.unfixable_paths
  | Error e -> Alcotest.fail (F.failure_message e)

(* ------------------------------------------------------------------ *)
(* throughput on the loop fixture *)

let test_milp_loop_throughput () =
  let g, back = Fixtures.loop () in
  (* the seeded back-edge buffer is fixed at R=1 *)
  let model = mk_model g [] [] in
  let cfdfcs = Buffering.Cfdfc.extract g in
  match F.solve cfg g model cfdfcs with
  | Ok p ->
    check Alcotest.bool "back edge stays buffered" true (List.mem back p.F.all_buffered);
    (match p.F.throughput with
    | [ th ] ->
      (* one buffer on the cycle, no unit latency: Θ = 1 *)
      check (Alcotest.float 1e-4) "full throughput" 1.0 th
    | _ -> Alcotest.fail "expected one throughput");
    (* no gratuitous extra buffers: they would cost objective *)
    check (Alcotest.list Alcotest.int) "no extra buffers" [] p.F.new_buffers
  | Error e -> Alcotest.fail (F.failure_message e)

let test_milp_cycle_legality () =
  (* remove the seeded buffer: the MILP must place one on the cycle *)
  let g, back = Fixtures.loop ~buffered:false () in
  let model = mk_model g [] [] in
  let cfdfcs = Buffering.Cfdfc.extract g in
  match F.solve cfg g model cfdfcs with
  | Ok p ->
    check Alcotest.bool "at least one buffer placed" true (List.length p.F.new_buffers >= 1);
    ignore back
  | Error e -> Alcotest.fail (F.failure_message e)

(* Extra buffers on a cycle reduce the modelled throughput: Θ <= 1/(#buffers) *)
let test_milp_throughput_degrades () =
  let g, back = Fixtures.loop () in
  (* force a second buffer on the merge->add channel *)
  let extra =
    G.fold_channels g
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None -> (
          match ((G.unit_node g c.G.src).G.kind, (G.unit_node g c.G.dst).G.kind) with
          | K.Merge _, K.Operator _ -> Some c.G.cid
          | _ -> None))
      None
    |> Option.get
  in
  G.set_buffer g extra (Some { G.transparent = false; slots = 2 });
  let model = mk_model g [] [] in
  let cfdfcs = Buffering.Cfdfc.extract g in
  match F.solve cfg g model cfdfcs with
  | Ok p ->
    (match p.F.throughput with
    | [ th ] -> check Alcotest.bool "throughput at most 1/2" true (th <= 0.5 +. 1e-6)
    | _ -> Alcotest.fail "one cfdfc expected");
    ignore back
  | Error e -> Alcotest.fail (F.failure_message e)

let suite =
  [
    ("cfdfc on loop", `Quick, test_cfdfc_loop);
    ("cfdfc acyclic", `Quick, test_cfdfc_acyclic);
    ("milp forces buffer on slow path", `Quick, test_milp_forces_buffer);
    ("milp leaves fast path alone", `Quick, test_milp_no_buffer_when_fast);
    ("milp penalty steers placement (eq.3)", `Quick, test_milp_penalty_steers_choice);
    ("milp handles ready direction", `Quick, test_milp_ready_direction);
    ("milp counts unfixable paths", `Quick, test_milp_unfixable_counted);
    ("milp loop throughput", `Quick, test_milp_loop_throughput);
    ("milp enforces cycle legality", `Quick, test_milp_cycle_legality);
    ("milp throughput degrades with buffers", `Quick, test_milp_throughput_degrades);
  ]
