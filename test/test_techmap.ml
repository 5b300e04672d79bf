module Aig = Techmap.Aig
module Synth = Techmap.Synth
module Mapper = Techmap.Mapper
module Lutgraph = Techmap.Lutgraph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* AIG *)

let test_aig_folding () =
  let aig = Aig.create () in
  let a = Aig.ci aig ~owner:0 ~dom:Net.Data in
  check Alcotest.int "a & 0 = 0" Aig.lit_false (Aig.band aig ~owner:0 a Aig.lit_false);
  check Alcotest.int "a & 1 = a" a (Aig.band aig ~owner:0 a Aig.lit_true);
  check Alcotest.int "a & a = a" a (Aig.band aig ~owner:0 a a);
  check Alcotest.int "a & ~a = 0" Aig.lit_false (Aig.band aig ~owner:0 a (Aig.bnot a))

let test_aig_strash () =
  let aig = Aig.create () in
  let a = Aig.ci aig ~owner:0 ~dom:Net.Data in
  let b = Aig.ci aig ~owner:0 ~dom:Net.Data in
  let x = Aig.band aig ~owner:0 a b in
  let y = Aig.band aig ~owner:1 b a in
  check Alcotest.int "commutative hash hit" x y;
  check Alcotest.int "first creator keeps label" 0 (Aig.owner aig (Aig.node_of_lit x))

let test_aig_eval () =
  let aig = Aig.create () in
  let a = Aig.ci aig ~owner:0 ~dom:Net.Data in
  let b = Aig.ci aig ~owner:0 ~dom:Net.Data in
  let y = Aig.bxor aig ~owner:0 a b in
  Aig.add_co aig ~owner:0 ~tag:0 y;
  let an = Aig.node_of_lit a and bn = Aig.node_of_lit b in
  let run va vb =
    let values = Logic_reference.eval_aig aig (fun n -> if n = an then va else if n = bn then vb else false) in
    values.(Aig.node_of_lit y) <> Aig.is_complement y
  in
  check Alcotest.bool "0^0" false (run false false);
  check Alcotest.bool "1^0" true (run true false);
  check Alcotest.bool "1^1" false (run true true)

(* Differential property: netlist simulation and AIG evaluation agree on
   random combinational circuits. *)
let prop_synth_equiv =
  QCheck.Test.make ~name:"synth preserves function" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let net = Net.create "rand" in
      let n_in = 3 + Support.Rng.int rng 4 in
      let ins = Array.init n_in (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i)) in
      let pool = ref (Array.to_list ins) in
      let pick () =
        let l = !pool in
        List.nth l (Support.Rng.int rng (List.length l))
      in
      for _ = 1 to 15 do
        let a = pick () and b = pick () in
        let g =
          match Support.Rng.int rng 4 with
          | 0 -> Net.and2 net ~owner:0 a b
          | 1 -> Net.or2 net ~owner:0 a b
          | 2 -> Net.xor2 net ~owner:0 a b
          | _ -> Net.not_ net ~owner:0 a
        in
        pool := g :: !pool
      done;
      let out = pick () in
      ignore (Net.output net ~owner:0 "y" out);
      let synth = Synth.run net in
      let aig = synth.Synth.aig in
      let _, _, ylit = List.hd (Aig.cos aig) in
      (* try all input assignments *)
      let ok = ref true in
      for v = 0 to (1 lsl n_in) - 1 do
        let sim = Logic_reference.sim_create net in
        for i = 0 to n_in - 1 do
          Logic_reference.sim_set_input sim (Printf.sprintf "i%d" i) ((v lsr i) land 1 = 1)
        done;
        Logic_reference.sim_eval sim;
        let expect = Logic_reference.sim_get_output sim "y" in
        let ci_val node =
          let gid = Hashtbl.find synth.Synth.gate_of_ci node in
          match (Net.gate net gid).Net.kind with
          | Net.Input nm -> (
            match String.sub nm 1 (String.length nm - 1) |> int_of_string_opt with
            | Some i -> (v lsr i) land 1 = 1
            | None -> false)
          | _ -> false
        in
        let values = Logic_reference.eval_aig aig ci_val in
        let got =
          if Aig.node_of_lit ylit = 0 then Aig.is_complement ylit
          else values.(Aig.node_of_lit ylit) <> Aig.is_complement ylit
        in
        if got <> expect then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Mapping *)

let map_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net = Elaborate.run g in
  let synth = Synth.run net in
  (g, net, synth, Mapper.run synth)

let test_map_covers_cos () =
  let _, _, synth, lg = map_fig2 () in
  (* every non-trivial CO root is implemented by a LUT *)
  List.iter
    (fun (_, _, lit) ->
      let v = Aig.node_of_lit lit in
      if v <> 0 && not (Aig.is_ci synth.Synth.aig v) then
        Alcotest.(check bool) "root mapped" true (lg.Lutgraph.lut_of_node.(v) >= 0))
    (Aig.cos synth.Synth.aig)

let test_map_k_feasible () =
  let _, _, _, lg = map_fig2 () in
  Array.iter
    (fun l -> Alcotest.(check bool) "<=6 leaves" true (Array.length l.Lutgraph.leaves <= 6))
    lg.Lutgraph.luts

let test_map_levels_positive () =
  let _, _, _, lg = map_fig2 () in
  check Alcotest.bool "some luts" true (Lutgraph.n_luts lg > 0);
  check Alcotest.bool "max level >= 1" true (lg.Lutgraph.max_level >= 1)

let test_map_owner_labels () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net = Elaborate.run g in
  let synth = Synth.run net in
  let lg = Mapper.run synth in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "owner in range" true
        (l.Lutgraph.owner >= -1 && l.Lutgraph.owner < Dataflow.Graph.n_units g))
    lg.Lutgraph.luts

let test_map_edges_consistent () =
  let _, net, _, lg = map_fig2 () in
  List.iter
    (fun e ->
      (match e.Lutgraph.e_src with
      | Lutgraph.Lut l -> Alcotest.(check bool) "src lut in range" true (l >= 0 && l < Lutgraph.n_luts lg)
      | Lutgraph.Seq gid -> Alcotest.(check bool) "src gate in range" true (gid >= 0 && gid < Net.n_gates net));
      match e.Lutgraph.e_dst with
      | Lutgraph.Lut l -> Alcotest.(check bool) "dst lut in range" true (l >= 0 && l < Lutgraph.n_luts lg)
      | Lutgraph.Seq gid -> Alcotest.(check bool) "dst gate in range" true (gid >= 0 && gid < Net.n_gates net))
    lg.Lutgraph.edges

let test_map_levels_monotone () =
  let _, _, synth, lg = map_fig2 () in
  (* a LUT's level exceeds all its LUT predecessors' levels *)
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool) "level increases" true
        (lg.Lutgraph.levels.(dst) > lg.Lutgraph.levels.(src)))
    (Lutgraph.lut_edges lg);
  ignore synth

(* property: mapping a random single-output circuit keeps function.  We
   check by evaluating LUT cones bottom-up against the AIG evaluation. *)
let prop_map_preserves_structure =
  QCheck.Test.make ~name:"every mapped LUT's leaves precede its root" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let net = Net.create "rand" in
      let n_in = 4 + Support.Rng.int rng 4 in
      let ins = Array.init n_in (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i)) in
      let pool = ref (Array.to_list ins) in
      let pick () = List.nth !pool (Support.Rng.int rng (List.length !pool)) in
      for _ = 1 to 25 do
        let a = pick () and b = pick () in
        let g =
          match Support.Rng.int rng 3 with
          | 0 -> Net.and2 net ~owner:0 a b
          | 1 -> Net.or2 net ~owner:0 a b
          | _ -> Net.xor2 net ~owner:0 a b
        in
        pool := g :: !pool
      done;
      ignore (Net.output net ~owner:0 "y" (pick ()));
      let synth = Synth.run net in
      let lg = Mapper.run synth in
      Array.for_all
        (fun l -> Array.for_all (fun leaf -> leaf < l.Lutgraph.root) l.Lutgraph.leaves)
        lg.Lutgraph.luts)

(* mapped LUT levels can never exceed AIG depth (each LUT covers at
   least one AIG level), and with K=6 they are usually far fewer *)
let prop_levels_bounded_by_depth =
  QCheck.Test.make ~name:"mapped levels <= AIG depth" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let net = Net.create "rand" in
      let ins = Array.init 6 (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "i%d" i)) in
      let pool = ref (Array.to_list ins) in
      let pick () = List.nth !pool (Support.Rng.int rng (List.length !pool)) in
      for _ = 1 to 40 do
        let a = pick () and b = pick () in
        let g =
          match Support.Rng.int rng 3 with
          | 0 -> Net.and2 net ~owner:0 a b
          | 1 -> Net.or2 net ~owner:0 a b
          | _ -> Net.xor2 net ~owner:0 a b
        in
        pool := g :: !pool
      done;
      ignore (Net.output net ~owner:0 "y" (pick ()));
      let synth = Synth.run net in
      let lg = Mapper.run synth in
      lg.Lutgraph.max_level <= Aig.depth synth.Synth.aig)

(* every mapped LUT's leaves are other LUT roots or CIs — the cover is
   closed (no dangling references into unmapped logic) *)
let test_map_cover_closed () =
  let _, _, synth, lg = map_fig2 () in
  Array.iter
    (fun l ->
      Array.iter
        (fun leaf ->
          Alcotest.(check bool) "leaf is CI or mapped root" true
            (Aig.is_ci synth.Synth.aig leaf || lg.Lutgraph.lut_of_node.(leaf) >= 0))
        l.Lutgraph.leaves)
    lg.Lutgraph.luts

(* Cross-unit merging: the whole point of the paper.  Two chained joins
   each AND their valids; mapping packs the ANDs of both units into a
   single LUT, so the LUT count is below the per-unit gate count. *)
let test_cross_unit_merging () =
  let g = Dataflow.Graph.create "xunit" in
  let module G = Dataflow.Graph in
  let module K = Dataflow.Unit_kind in
  let srcs = Array.init 4 (fun _ -> G.add_unit g ~width:0 K.Source) in
  let j1 = G.add_unit g ~width:0 (K.Join 2) in
  let j2 = G.add_unit g ~width:0 (K.Join 2) in
  let j3 = G.add_unit g ~width:0 (K.Join 2) in
  let snk = G.add_unit g ~width:0 K.Sink in
  ignore (G.connect g ~src:srcs.(0) ~src_port:0 ~dst:j1 ~dst_port:0);
  ignore (G.connect g ~src:srcs.(1) ~src_port:0 ~dst:j1 ~dst_port:1);
  ignore (G.connect g ~src:srcs.(2) ~src_port:0 ~dst:j2 ~dst_port:0);
  ignore (G.connect g ~src:srcs.(3) ~src_port:0 ~dst:j2 ~dst_port:1);
  ignore (G.connect g ~src:j1 ~src_port:0 ~dst:j3 ~dst_port:0);
  ignore (G.connect g ~src:j2 ~src_port:0 ~dst:j3 ~dst_port:1);
  ignore (G.connect g ~src:j3 ~src_port:0 ~dst:snk ~dst_port:0);
  let net = Elaborate.run g in
  let synth = Synth.run net in
  let lg = Mapper.run synth in
  (* sources are constant-valid: everything folds away completely *)
  check Alcotest.bool "constant folding ate the joins" true (Lutgraph.n_luts lg <= 1)

(* ------------------------------------------------------------------ *)
(* Truth-table boundaries at K = 6. *)

(* A 6-input XOR chain: the deepest all-variables cut a K=6 mapper can
   legally pick. Every LUT's table is checked exhaustively against the
   AIG (all 2^|leaves| assignments), and at least one LUT must actually
   sit on the 6-leaf boundary. *)
let parity_net n =
  let net = Net.create "parity" in
  let ins =
    Array.init n (fun i -> Net.input net ~owner:0 ~dom:Net.Data (Printf.sprintf "x%d" i))
  in
  let y = Array.fold_left (fun acc i -> Net.xor2 net ~owner:0 acc i) ins.(0) (Array.sub ins 1 (n - 1)) in
  ignore (Net.output net ~owner:0 "y" y);
  net

let check_tables_vs_aig synth lg =
  Array.iter
    (fun l ->
      let leaves = l.Lutgraph.leaves in
      let tbl = Techmap.Truth.lut_table lg l.Lutgraph.lid in
      let cases = 1 lsl Array.length leaves in
      for idx = 0 to cases - 1 do
        let leaf_value n =
          let rec find j = j < Array.length leaves && (leaves.(j) = n || find (j + 1)) in
          let rec pos j = if leaves.(j) = n then j else pos (j + 1) in
          if find 0 then idx land (1 lsl pos 0) <> 0 else false
        in
        let values = Logic_reference.eval_aig synth.Synth.aig leaf_value in
        let expect = values.(l.Lutgraph.root) in
        let got = Int64.logand (Int64.shift_right_logical tbl idx) 1L = 1L in
        if got <> expect then
          Alcotest.failf "lut %d table bit %d: table says %b, AIG says %b" l.Lutgraph.lid idx got
            expect
      done)
    lg.Lutgraph.luts

let test_truth_all_vars () =
  let net = parity_net 6 in
  let synth = Synth.run net in
  let lg = Mapper.run synth in
  check Alcotest.bool "some LUT uses all six inputs" true
    (Array.exists (fun l -> Array.length l.Lutgraph.leaves = 6) lg.Lutgraph.luts);
  check_tables_vs_aig synth lg;
  (* parity is symmetric, so a 6-leaf table must be the parity constant
     regardless of how the mapper ordered the leaves *)
  Array.iter
    (fun l ->
      if Array.length l.Lutgraph.leaves = 6 then begin
        let popcount_odd i =
          let rec go i acc = if i = 0 then acc else go (i lsr 1) (acc <> (i land 1 = 1)) in
          go i false
        in
        let expect = ref 0L in
        for idx = 0 to 63 do
          if popcount_odd idx then expect := Int64.logor !expect (Int64.shift_left 1L idx)
        done;
        let tbl = Techmap.Truth.lut_table lg l.Lutgraph.lid in
        if tbl <> !expect && tbl <> Int64.lognot !expect then
          Alcotest.failf "6-leaf parity table %Lx is neither parity nor its complement" tbl
      end)
    lg.Lutgraph.luts

(* x & ~x folds to constant false during synthesis: the cover is empty
   and the CO is the constant literal, which the mapper must survive. *)
let test_truth_constant_cone () =
  let net = Net.create "const" in
  let x = Net.input net ~owner:0 ~dom:Net.Data "x" in
  let nx = Net.not_ net ~owner:0 x in
  let y = Net.and2 net ~owner:0 x nx in
  ignore (Net.output net ~owner:0 "y" y);
  let synth = Synth.run net in
  let lg = Mapper.run synth in
  check Alcotest.int "constant cone maps to zero LUTs" 0 (Lutgraph.n_luts lg);
  List.iter
    (fun (_, _, lit) -> check Alcotest.int "CO folded to const false" Aig.lit_false lit)
    (Aig.cos synth.Synth.aig);
  (* and the translation validator accepts the constant cover *)
  let r = Tv.Equiv.run net lg in
  check Alcotest.int "tv accepts constant CO" 0 (List.length r.Tv.Equiv.mismatches)

let with_leaves lg f =
  {
    lg with
    Lutgraph.luts =
      Array.map (fun l -> { l with Lutgraph.leaves = f l (Array.copy l.Lutgraph.leaves) }) lg.Lutgraph.luts;
  }

(* A duplicated leaf is not a legal cut: [lut_table] still evaluates it
   (last assignment wins), but the validator's structural audit rejects
   the cover before trusting any table built from it. *)
let test_truth_duplicate_leaves () =
  let _, net, _, lg = map_fig2 () in
  let victim =
    Array.to_list lg.Lutgraph.luts
    |> List.find_opt (fun l -> Array.length l.Lutgraph.leaves >= 2)
  in
  match victim with
  | None -> Alcotest.fail "fixture has no multi-leaf LUT"
  | Some v ->
    let lg' =
      with_leaves lg (fun l leaves ->
          if l.Lutgraph.lid = v.Lutgraph.lid then leaves.(1) <- leaves.(0);
          leaves)
    in
    let r = Tv.Equiv.run net lg' in
    let structural =
      List.exists
        (function
          | Tv.Equiv.Cover_structural { lut; reason } ->
            lut = v.Lutgraph.lid
            && (let lower = String.lowercase_ascii reason in
                let rec has i =
                  i + 9 <= String.length lower && (String.sub lower i 9 = "duplicate" || has (i + 1))
                in
                has 0)
          | _ -> false)
        r.Tv.Equiv.mismatches
    in
    check Alcotest.bool "duplicate leaf rejected structurally" true structural

(* More than 6 leaves is outside the table representation entirely. *)
let test_truth_oversized_cut () =
  let _, net, _, lg = map_fig2 () in
  let victim =
    Array.to_list lg.Lutgraph.luts |> List.find (fun l -> Array.length l.Lutgraph.leaves >= 1)
  in
  let lg' =
    with_leaves lg (fun l leaves ->
        if l.Lutgraph.lid = victim.Lutgraph.lid then
          Array.init 7 (fun i -> leaves.(i mod Array.length leaves))
        else leaves)
  in
  (match Techmap.Truth.lut_table lg' victim.Lutgraph.lid with
  | _ -> Alcotest.fail "lut_table accepted a 7-leaf cut"
  | exception Invalid_argument _ -> ());
  let r = Tv.Equiv.run net lg' in
  check Alcotest.bool "oversized cut rejected structurally" true
    (List.exists
       (function
         | Tv.Equiv.Cover_structural { lut; _ } -> lut = victim.Lutgraph.lid
         | _ -> false)
       r.Tv.Equiv.mismatches)

let suite =
  [
    ("aig constant folding", `Quick, test_aig_folding);
    ("aig structural hashing", `Quick, test_aig_strash);
    ("aig eval", `Quick, test_aig_eval);
    qtest prop_synth_equiv;
    ("map covers outputs", `Quick, test_map_covers_cos);
    ("map is k-feasible", `Quick, test_map_k_feasible);
    ("map levels positive", `Quick, test_map_levels_positive);
    ("map owner labels valid", `Quick, test_map_owner_labels);
    ("map edges consistent", `Quick, test_map_edges_consistent);
    ("map levels monotone", `Quick, test_map_levels_monotone);
    qtest prop_map_preserves_structure;
    ("cross-unit merging", `Quick, test_cross_unit_merging);
    qtest prop_levels_bounded_by_depth;
    ("map cover closed", `Quick, test_map_cover_closed);
    ("truth k=6 all-vars tables", `Quick, test_truth_all_vars);
    ("truth constant cone", `Quick, test_truth_constant_cone);
    ("truth duplicate leaves", `Quick, test_truth_duplicate_leaves);
    ("truth oversized cut", `Quick, test_truth_oversized_cut);
  ]
