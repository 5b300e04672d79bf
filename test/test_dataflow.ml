module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module A = Dataflow.Analysis
module Ops = Dataflow.Ops
module LM = Timing.Lut_map

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Ops *)

let test_ops_eval () =
  check Alcotest.int "add" 7 (Ops.eval Ops.Add [ 3; 4 ]);
  check Alcotest.int "sub" 6 (Ops.eval Ops.Sub [ 10; 4 ]);
  check Alcotest.int "mul" 12 (Ops.eval Ops.Mul [ 3; 4 ]);
  check Alcotest.int "shl" 24 (Ops.eval Ops.Shl [ 3; 3 ]);
  check Alcotest.int "lshr" 2 (Ops.eval Ops.Lshr [ 8; 2 ]);
  check Alcotest.int "and" 4 (Ops.eval Ops.And_ [ 6; 12 ]);
  check Alcotest.int "or" 14 (Ops.eval Ops.Or_ [ 6; 12 ]);
  check Alcotest.int "xor" 10 (Ops.eval Ops.Xor_ [ 6; 12 ]);
  check Alcotest.int "lt true" 1 (Ops.eval (Ops.Icmp Ops.Lt) [ 3; 4 ]);
  check Alcotest.int "lt false" 0 (Ops.eval (Ops.Icmp Ops.Lt) [ 4; 4 ]);
  check Alcotest.int "le" 1 (Ops.eval (Ops.Icmp Ops.Le) [ 4; 4 ]);
  check Alcotest.int "ge" 1 (Ops.eval (Ops.Icmp Ops.Ge) [ 4; 4 ]);
  check Alcotest.int "select t" 9 (Ops.eval Ops.Select [ 1; 9; 5 ]);
  check Alcotest.int "select f" 5 (Ops.eval Ops.Select [ 0; 9; 5 ])

let test_ops_arity () =
  check Alcotest.int "binary" 2 (Ops.arity Ops.Add);
  check Alcotest.int "select" 3 (Ops.arity Ops.Select)

let test_ops_latency () =
  check Alcotest.int "mul pipelined" 4 (Ops.default_latency Ops.Mul);
  check Alcotest.int "add comb" 0 (Ops.default_latency Ops.Add)

let test_ops_bad_arity () =
  Alcotest.check_raises "add/1" (Invalid_argument "Ops.eval: add applied to 1 args") (fun () ->
      ignore (Ops.eval Ops.Add [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Unit kinds *)

let test_kind_arities () =
  check Alcotest.int "fork out" 3 (K.out_arity (K.Fork 3));
  check Alcotest.int "fork in" 1 (K.in_arity (K.Fork 3));
  check Alcotest.int "join in" 4 (K.in_arity (K.Join 4));
  check Alcotest.int "mux in" 3 (K.in_arity (K.Mux 2));
  check Alcotest.int "branch out" 2 (K.out_arity K.Branch);
  check Alcotest.int "cmerge out" 2 (K.out_arity (K.Control_merge 2));
  check Alcotest.int "store in" 2 (K.in_arity (K.Store { mem = "a" }));
  check Alcotest.int "entry in" 0 (K.in_arity K.Entry)

let test_kind_latency () =
  check Alcotest.int "opaque buffer" 1 (K.latency (K.Buffer { transparent = false; slots = 2 }));
  check Alcotest.int "transparent buffer" 0 (K.latency (K.Buffer { transparent = true; slots = 1 }));
  check Alcotest.int "mul" 4 (K.latency (K.operator Ops.Mul))

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_build () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  check Alcotest.bool "valid" true (Result.is_ok (G.validate g));
  check Alcotest.int "channels" 16 (G.n_channels g)

let test_graph_unconnected () =
  let g = G.create "bad" in
  let _ = G.add_unit g (K.Fork 2) in
  match G.validate g with
  | Ok () -> Alcotest.fail "expected invalid"
  | Error msg -> check Alcotest.bool "mentions port" true (String.length msg > 0)

let test_graph_double_connect () =
  let g = G.create "dup" in
  let a = G.add_unit g ~width:0 K.Entry in
  let b = G.add_unit g ~width:0 K.Exit in
  let c = G.add_unit g ~width:0 K.Exit in
  ignore (G.connect g ~src:a ~src_port:0 ~dst:b ~dst_port:0);
  Alcotest.check_raises "output reuse"
    (Invalid_argument "connect: output entry_0.0 already connected") (fun () ->
      ignore (G.connect g ~src:a ~src_port:0 ~dst:c ~dst_port:0))

let test_graph_buffers () =
  let g, back = Fixtures.loop () in
  (match G.buffer g back with
  | Some { G.transparent = false; slots = 2 } -> ()
  | _ -> Alcotest.fail "expected opaque buffer on back edge");
  check Alcotest.int "one buffered channel" 1 (List.length (G.buffered_channels g));
  G.clear_buffers g;
  check Alcotest.int "cleared" 0 (List.length (G.buffered_channels g))

let test_graph_copy_independent () =
  let g, back = Fixtures.loop () in
  let g2 = G.copy g in
  G.set_buffer g back None;
  check Alcotest.bool "copy keeps buffer" true (G.buffer g2 back <> None);
  check Alcotest.bool "original cleared" true (G.buffer g back = None)

let test_graph_preds_succs () =
  let g, fork, shift, add, _branch = Fixtures.fig2 () in
  let fork_succs = List.map snd (G.succs g fork) in
  check Alcotest.bool "fork feeds shift" true (List.mem shift fork_succs);
  check Alcotest.bool "fork feeds add" true (List.mem add fork_succs);
  let add_preds = List.map snd (G.preds g add) in
  check Alcotest.bool "add fed by shift" true (List.mem shift add_preds)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_sccs_acyclic () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  check Alcotest.int "no cyclic scc" 0 (List.length (A.cyclic_sccs g))

let test_sccs_loop () =
  let g, _ = Fixtures.loop () in
  let cyc = A.cyclic_sccs g in
  check Alcotest.int "one cyclic scc" 1 (List.length cyc);
  (* merge, add, fork, branch and cmp-side units are in the loop *)
  check Alcotest.bool "scc nontrivial" true (List.length (List.hd cyc) >= 4)

let test_back_edges () =
  let g, back = Fixtures.loop () in
  let be = A.back_edges g in
  check Alcotest.int "single back edge" 1 (List.length be);
  check Alcotest.int "is the loop edge" back (List.hd be)

let test_back_edges_acyclic () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  check Alcotest.int "none" 0 (List.length (A.back_edges g))

let test_simple_cycles () =
  let g, _ = Fixtures.loop () in
  let cycles = fst (A.simple_cycles_capped g) in
  (* merge -> add -> fork -> branch -> merge (4 channels) and the variant
     through cmp (5 channels) *)
  check Alcotest.int "two simple cycles" 2 (List.length cycles);
  let lengths = List.sort compare (List.map List.length cycles) in
  check Alcotest.(list int) "cycle lengths" [ 4; 5 ] lengths

(* the flow's path search; on a graph without buffers it is a plain
   fewest-units BFS over the dataflow graph *)
let test_shortest_path () =
  let g, fork, shift, _add, branch = Fixtures.fig2 () in
  (match LM.shortest_unbuffered g ~src:fork ~dst:branch with
  | Some p -> check Alcotest.int "fork->branch shortest goes via cmp" 2 (List.length p)
  | None -> Alcotest.fail "expected path");
  match LM.shortest_unbuffered g ~src:shift ~dst:fork with
  | None -> ()
  | Some _ -> Alcotest.fail "no backward path expected"

let test_shortest_path_self () =
  let g, fork, _, _, _ = Fixtures.fig2 () in
  check Alcotest.bool "self path empty" true (LM.shortest_unbuffered g ~src:fork ~dst:fork = Some [])

(* merge -> fork, then three parallel channels fork -> merge: exactly
   three simple cycles, one per return channel *)
let three_cycle_graph () =
  let g = G.create "three-cycles" in
  let m = G.add_unit g ~width:8 (K.Merge 3) in
  let f = G.add_unit g ~width:8 (K.Fork 3) in
  ignore (G.connect g ~src:m ~src_port:0 ~dst:f ~dst_port:0);
  for p = 0 to 2 do
    ignore (G.connect g ~src:f ~src_port:p ~dst:m ~dst_port:p)
  done;
  (match G.validate g with Ok () -> () | Error e -> failwith e);
  (g, m)

let test_simple_cycles_limit () =
  let g, _ = three_cycle_graph () in
  let count ?limit g = List.length (fst (A.simple_cycles_capped ?limit g)) in
  check Alcotest.int "all three without a cap" 3 (count g);
  (* the cap cuts enumeration off at exactly [limit] cycles *)
  check Alcotest.int "capped at two" 2 (count ~limit:2 g);
  (* a cap equal to the cycle count is not an under-count *)
  check Alcotest.int "cap hit exactly" 3 (count ~limit:3 g)

let test_simple_cycles_self_loop () =
  let g = G.create "self" in
  let entry = G.add_unit g ~width:0 K.Entry in
  let sink1 = G.add_unit g K.Sink in
  let f = G.add_unit g ~width:8 (K.Fork 2) in
  let sink2 = G.add_unit g K.Sink in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:sink1 ~dst_port:0);
  let self = G.connect g ~src:f ~src_port:0 ~dst:f ~dst_port:0 in
  ignore (G.connect g ~src:f ~src_port:1 ~dst:sink2 ~dst_port:0);
  check
    Alcotest.(list (list int))
    "the self-loop is a one-channel cycle" [ [ self ] ] (fst (A.simple_cycles_capped g))

let test_shortest_path_self_on_cycle () =
  (* the [src = dst -> Some []] contract holds even when a non-trivial
     cycle through the unit exists *)
  let g, m = three_cycle_graph () in
  check Alcotest.bool "Some [] on a cyclic unit" true (LM.shortest_unbuffered g ~src:m ~dst:m = Some [])

let test_topo_order () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let order = A.topo_order g in
  check Alcotest.int "all units" (G.n_units g) (List.length order);
  let pos = Hashtbl.create 16 in
  List.iteri (fun i u -> Hashtbl.replace pos u i) order;
  G.iter_channels g (fun c ->
      check Alcotest.bool "edge respects order" true
        (Hashtbl.find pos c.G.src < Hashtbl.find pos c.G.dst))

(* Random DAG property: topo_order is consistent and complete. *)
let prop_topo_random_dag =
  QCheck.Test.make ~name:"topo order on random DAGs" ~count:50
    QCheck.(pair (int_range 2 20) (int_range 0 100))
    (fun (n, seed) ->
      let rng = Support.Rng.create seed in
      let g = G.create "rand" in
      (* n independent chains source -> buffer* -> sink of random length *)
      for _ = 1 to n do
        let src = G.add_unit g ~width:0 K.Source in
        let len = Support.Rng.int rng 5 in
        let last = ref src in
        for _ = 1 to len do
          let b = G.add_unit g ~width:0 (K.Buffer { transparent = false; slots = 2 }) in
          ignore (G.connect g ~src:!last ~src_port:0 ~dst:b ~dst_port:0);
          last := b
        done;
        let snk = G.add_unit g ~width:0 K.Sink in
        ignore (G.connect g ~src:!last ~src_port:0 ~dst:snk ~dst_port:0)
      done;
      let order = A.topo_order g in
      List.length order = G.n_units g)

(* gsum as compiled (no buffers yet) has two unbuffered cyclic SCCs.
   These SCC, peel and diagnostic orders reach digests and lint output,
   so they are pinned. *)
let test_unbuffered_gsum_orders () =
  let g = Hls.Kernels.graph (Hls.Kernels.by_name "gsum") in
  check
    Alcotest.(list (list int))
    "cyclic sccs"
    [
      [ 4; 35; 7; 29; 9; 30; 11; 31; 13; 25; 15; 18; 32; 21; 22; 3; 26; 6; 10; 34; 12; 33 ];
      [ 5; 8; 16; 17; 20 ];
    ]
    (A.cyclic_sccs g);
  check
    Alcotest.(list int)
    "topo order"
    [ 0; 27; 1; 2; 4; 35; 7; 29; 9; 30; 38; 11; 31; 13; 25; 14; 15; 36; 18; 32; 28; 21; 3; 19;
      22; 26; 33; 37; 6; 10; 5; 34; 8; 12; 16; 23; 17; 24; 20 ]
    (A.topo_order g);
  check
    Alcotest.(list string)
    "dfg-comb-cycle diagnostics"
    [
      "error   dfg-comb-cycle @ unit 3: cycle through {cmerge2#3 (cmerge_loop), fork2#33 \
       (fanout_cmerge_loop), mux2#4 (loop_i), fork2#35 (fanout_loop_i), branch#9 (br_i), \
       fork2#30 (fanout_br_i), … (22 units)} has no opaque buffer on any channel";
      "error   dfg-comb-cycle @ unit 5: cycle through {mux2#5 (loop_s), branch#8 (br_s), \
       branch#16 (br_s), add#17 (add_17), mux2#20 (phi_s)} has no opaque buffer on any channel";
    ]
    (List.filter_map
       (fun d ->
         if d.Lint.Diagnostic.rule = "dfg-comb-cycle" then
           Some (Format.asprintf "%a" Lint.Diagnostic.pp d)
         else None)
       (Lint.Engine.check_graph g).Lint.Engine.diagnostics);
  match Sim.Elastic.run g with
  | _ -> Alcotest.fail "expected the combinational-cycle check to reject the graph"
  | exception Failure m ->
    check Alcotest.string "simulator refuses"
      "Elastic.run: combinational cycle (a DFG cycle has no opaque buffer)" m

let test_dot_output () =
  let g, _ = Fixtures.loop () in
  let dot = Dataflow.Dot.to_string g in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "digraph" true (contains "digraph");
  check Alcotest.bool "buffer label" true (contains "B2");
  check Alcotest.bool "edges" true (contains "->")

let test_marked_back_edges () =
  let g, back = Fixtures.loop () in
  check (Alcotest.list Alcotest.int) "none marked by default" [] (G.marked_back_edges g);
  G.set_back_edge g back;
  check (Alcotest.list Alcotest.int) "marked" [ back ] (G.marked_back_edges g);
  (* copies keep the mark *)
  let g2 = G.copy g in
  check (Alcotest.list Alcotest.int) "copied" [ back ] (G.marked_back_edges g2)

let suite =
  [
    ("ops eval", `Quick, test_ops_eval);
    ("ops arity", `Quick, test_ops_arity);
    ("ops latency", `Quick, test_ops_latency);
    ("ops bad arity", `Quick, test_ops_bad_arity);
    ("kind arities", `Quick, test_kind_arities);
    ("kind latency", `Quick, test_kind_latency);
    ("graph build fig2", `Quick, test_graph_build);
    ("graph unconnected detected", `Quick, test_graph_unconnected);
    ("graph double connect", `Quick, test_graph_double_connect);
    ("graph buffer annotations", `Quick, test_graph_buffers);
    ("graph copy independence", `Quick, test_graph_copy_independent);
    ("graph preds/succs", `Quick, test_graph_preds_succs);
    ("sccs acyclic", `Quick, test_sccs_acyclic);
    ("sccs loop", `Quick, test_sccs_loop);
    ("back edges loop", `Quick, test_back_edges);
    ("back edges acyclic", `Quick, test_back_edges_acyclic);
    ("simple cycles", `Quick, test_simple_cycles);
    ("shortest path", `Quick, test_shortest_path);
    ("shortest path self", `Quick, test_shortest_path_self);
    ("simple cycles limit cap", `Quick, test_simple_cycles_limit);
    ("simple cycles self loop", `Quick, test_simple_cycles_self_loop);
    ("shortest path self on cycle", `Quick, test_shortest_path_self_on_cycle);
    ("topo order", `Quick, test_topo_order);
    ("unbuffered gsum: scc, peel and lint orders", `Quick, test_unbuffered_gsum_orders);
    qtest prop_topo_random_dag;
    ("dot output", `Quick, test_dot_output);
    ("marked back edges", `Quick, test_marked_back_edges);
  ]
