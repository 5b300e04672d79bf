(* Shared micro-circuits used across test suites. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind

(* The paper's Figure 2 shape: fork feeding a shifter and (directly) a
   branch condition path; shifter feeds an adder; adder feeds the branch.
   Here the branch condition comes from a comparison of the forked value. *)
let fig2 () =
  let g = G.create "fig2" in
  let entry = G.add_unit g ~bb:0 ~width:0 K.Entry in
  let src = G.add_unit g ~bb:0 ~width:8 ~label:"in" (K.Const 5) in
  let fork = G.add_unit g ~bb:0 ~width:8 ~label:"F" (K.Fork 3) in
  let shamt = G.add_unit g ~bb:0 ~width:8 ~label:"shamt" (K.Const 1) in
  let cshift = G.add_unit g ~bb:0 ~width:0 ~label:"trig" (K.Fork 2) in
  let shift = G.add_unit g ~bb:0 ~width:8 ~label:"shl" (K.operator Dataflow.Ops.Shl) in
  let add = G.add_unit g ~bb:0 ~width:8 ~label:"add" (K.operator Dataflow.Ops.Add) in
  let cmp =
    G.add_unit g ~bb:0 ~width:1 ~label:"cmp" (K.operator (Dataflow.Ops.Icmp Dataflow.Ops.Lt))
  in
  let czero = G.add_unit g ~bb:0 ~width:8 ~label:"zero" (K.Const 0) in
  let branch = G.add_unit g ~bb:0 ~width:8 ~label:"B" K.Branch in
  let sink_t = G.add_unit g ~bb:0 K.Sink in
  let sink_f = G.add_unit g ~bb:0 K.Sink in
  let entry_fork = G.add_unit g ~bb:0 ~width:0 (K.Fork 2) in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:entry_fork ~dst_port:0);
  ignore (G.connect g ~src:entry_fork ~src_port:0 ~dst:src ~dst_port:0);
  ignore (G.connect g ~src:entry_fork ~src_port:1 ~dst:cshift ~dst_port:0);
  ignore (G.connect g ~src:cshift ~src_port:0 ~dst:shamt ~dst_port:0);
  ignore (G.connect g ~src:cshift ~src_port:1 ~dst:czero ~dst_port:0);
  ignore (G.connect g ~src:src ~src_port:0 ~dst:fork ~dst_port:0);
  ignore (G.connect g ~src:fork ~src_port:0 ~dst:shift ~dst_port:0);
  ignore (G.connect g ~src:shamt ~src_port:0 ~dst:shift ~dst_port:1);
  ignore (G.connect g ~src:shift ~src_port:0 ~dst:add ~dst_port:0);
  ignore (G.connect g ~src:fork ~src_port:1 ~dst:add ~dst_port:1);
  ignore (G.connect g ~src:fork ~src_port:2 ~dst:cmp ~dst_port:0);
  ignore (G.connect g ~src:czero ~src_port:0 ~dst:cmp ~dst_port:1);
  ignore (G.connect g ~src:add ~src_port:0 ~dst:branch ~dst_port:0);
  ignore (G.connect g ~src:cmp ~src_port:0 ~dst:branch ~dst_port:1);
  ignore (G.connect g ~src:branch ~src_port:0 ~dst:sink_t ~dst_port:0);
  ignore (G.connect g ~src:branch ~src_port:1 ~dst:sink_f ~dst_port:0);
  (match G.validate g with Ok () -> () | Error e -> failwith e);
  (g, fork, shift, add, branch)

(* A simple accumulation loop:
     entry -> merge -> fork -> add(+const) -> cmp -> branch -> (back | exit)
   The back edge (branch true -> merge) must carry a buffer for the
   circuit to be realisable. *)
let loop ?(buffered = true) () =
  let g = G.create "loop" in
  let entry = G.add_unit g ~bb:0 ~width:0 K.Entry in
  let init = G.add_unit g ~bb:0 ~width:8 ~label:"init" (K.Const 0) in
  let merge = G.add_unit g ~bb:1 ~width:8 (K.Merge 2) in
  (* loop-body constants fire every iteration: trigger them from sources *)
  let src_one = G.add_unit g ~bb:1 ~width:0 K.Source in
  let one = G.add_unit g ~bb:1 ~width:8 (K.Const 1) in
  let src_bound = G.add_unit g ~bb:1 ~width:0 K.Source in
  let bound = G.add_unit g ~bb:1 ~width:8 (K.Const 10) in
  let add = G.add_unit g ~bb:1 ~width:8 (K.operator Dataflow.Ops.Add) in
  let addf = G.add_unit g ~bb:1 ~width:8 (K.Fork 2) in
  let cmp =
    G.add_unit g ~bb:1 ~width:1 (K.operator (Dataflow.Ops.Icmp Dataflow.Ops.Lt))
  in
  let branch = G.add_unit g ~bb:1 ~width:8 K.Branch in
  let exit_ = G.add_unit g ~bb:2 ~width:8 K.Exit in
  ignore (G.connect g ~src:entry ~src_port:0 ~dst:init ~dst_port:0);
  ignore (G.connect g ~src:src_one ~src_port:0 ~dst:one ~dst_port:0);
  ignore (G.connect g ~src:src_bound ~src_port:0 ~dst:bound ~dst_port:0);
  ignore (G.connect g ~src:init ~src_port:0 ~dst:merge ~dst_port:0);
  ignore (G.connect g ~src:merge ~src_port:0 ~dst:add ~dst_port:0);
  ignore (G.connect g ~src:one ~src_port:0 ~dst:add ~dst_port:1);
  ignore (G.connect g ~src:add ~src_port:0 ~dst:addf ~dst_port:0);
  ignore (G.connect g ~src:addf ~src_port:0 ~dst:branch ~dst_port:0);
  ignore (G.connect g ~src:addf ~src_port:1 ~dst:cmp ~dst_port:0);
  ignore (G.connect g ~src:bound ~src_port:0 ~dst:cmp ~dst_port:1);
  ignore (G.connect g ~src:cmp ~src_port:0 ~dst:branch ~dst_port:1);
  let back = G.connect g ~src:branch ~src_port:0 ~dst:merge ~dst_port:1 in
  ignore (G.connect g ~src:branch ~src_port:1 ~dst:exit_ ~dst_port:0);
  if buffered then G.set_buffer g back (Some { G.transparent = false; slots = 2 });
  (match G.validate g with Ok () -> () | Error e -> failwith e);
  (g, back)

(* Tiny mini-C kernels (4-element arrays, short loops): full-flow tests
   that need an [Hls.Kernels.t] use these instead of the paper benchmarks
   so a complete baseline + iterative run stays test-sized. *)

let tiny_kernel name source mems = { Hls.Kernels.name; source; mems }

let tsum = tiny_kernel "tsum" {|
int tsum(int a[4]) {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) { s = s + a[i]; }
  return s;
}
|} (fun () -> [ ("a", [| 1; 2; 3; 4 |]) ])

let tif = tiny_kernel "tif" {|
int tif(int a[4]) {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) {
    if (a[i] > 2) { s = s + a[i]; }
  }
  return s;
}
|} (fun () -> [ ("a", [| 1; 4; 2; 5 |]) ])

let tmul = tiny_kernel "tmul" {|
int tmul(int a[4]) {
  int s = 1;
  for (int i = 0; i < 3; i = i + 1) { s = s * a[i] + 1; }
  return s;
}
|} (fun () -> [ ("a", [| 2; 3; 1; 5 |]) ])

let tiny_kernels = [ tsum; tif; tmul ]

(* The branch & bound budget dominates a full-flow run; capping it keeps
   a baseline (Eq. 1) solve on the tiny kernels under a second without
   touching anything determinism depends on. *)
let cheap_flow_config =
  let d = Core.Flow.default_config in
  {
    d with
    Core.Flow.max_iterations = 1;
    milp = { d.Core.Flow.milp with Buffering.Formulation.node_limit = 20 };
  }

(* All nine paper kernels as the flows first synthesise them: back edges
   seeded, elaborated, synthesised and LUT-mapped, with no MILP. Shared
   by the tests that check the word-parallel logic evaluators against
   their scalar references. *)
let seeded_covers =
  lazy
    (List.map
       (fun k ->
         let g = Hls.Kernels.graph k in
         ignore (Core.Flow.seed_back_edges g);
         let net, lg, _ = Core.Flow.synthesize Core.Flow.default_config g in
         (k.Hls.Kernels.name, net, lg))
       Hls.Kernels.all)
