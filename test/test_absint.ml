module G = Dataflow.Graph
module Ops = Dataflow.Ops
module V = Absint.Value
module T = Absint.Transfer
module An = Absint.Analyze
module N = Absint.Narrow

let check = Alcotest.check

let mask w v = match V.mask_of w with Some m -> v land m | None -> v

let seeded g0 =
  let g = G.copy g0 in
  ignore (Core.Flow.seed_back_edges g);
  g

let compile src = Hls.Compile.compile (Hls.Parser.parse src)

(* ------------------------------------------------------------------ *)
(* Transfer-function envelope: for random operands and random abstract
   values containing them, the concrete Ops.eval result (masked to the
   output width, as the simulator masks channel writes) is a member of
   the abstract transfer output. 10k trials per operator. *)

let all_ops =
  [
    Ops.Add;
    Ops.Sub;
    Ops.Mul;
    Ops.Shl;
    Ops.Lshr;
    Ops.And_;
    Ops.Or_;
    Ops.Xor_;
    Ops.Icmp Ops.Eq;
    Ops.Icmp Ops.Ne;
    Ops.Icmp Ops.Lt;
    Ops.Icmp Ops.Le;
    Ops.Icmp Ops.Gt;
    Ops.Icmp Ops.Ge;
    Ops.Select;
  ]

(* a random abstract value at width [w] guaranteed to contain [x]:
   start from the singleton and join in a few other members, sometimes
   blow up to top *)
let abstract_containing rng w x =
  let v = ref (V.const w x) in
  for _ = 1 to Support.Rng.int rng 4 do
    v := V.join w !v (V.const w (Support.Rng.int rng (1 lsl w)))
  done;
  if Support.Rng.int rng 8 = 0 then v := V.join w !v (V.top w);
  !v

let test_envelope () =
  let rng = Support.Rng.create 0xabce in
  List.iter
    (fun op ->
      for trial = 1 to 10_000 do
        let rand_w () = 1 + Support.Rng.int rng 14 in
        let wo = rand_w () in
        let operand w =
          let x = Support.Rng.int rng (1 lsl w) in
          (x, abstract_containing rng w x)
        in
        let xs, vs =
          match Ops.arity op with
          | 3 ->
            (* Select: 1-bit condition, two data arms *)
            let c, vc = operand 1 in
            let a, va = operand (rand_w ()) in
            let b, vb = operand (rand_w ()) in
            ([ c; a; b ], [ vc; va; vb ])
          | _ ->
            let a, va = operand (rand_w ()) in
            let b, vb = operand (rand_w ()) in
            ([ a; b ], [ va; vb ])
        in
        let out = T.operator ~width:wo op vs in
        let concrete = mask wo (Ops.eval op xs) in
        if not (V.mem wo concrete out) then
          Alcotest.failf "%s trial %d: concrete %d (width %d) escapes %s (args %s / %s)"
            (Ops.name op) trial concrete wo
            (V.to_string ~width:wo out)
            (String.concat "," (List.map string_of_int xs))
            (String.concat "," (List.map (V.to_string ?width:None) vs))
      done)
    all_ops

(* refinement must never lose members: refine_cmp with either polarity
   keeps every operand value that satisfies the comparison *)
let test_refine_sound () =
  let rng = Support.Rng.create 0x5e1f in
  let cmps = [ Ops.Eq; Ops.Ne; Ops.Lt; Ops.Le; Ops.Gt; Ops.Ge ] in
  for _ = 1 to 20_000 do
    let w = 1 + Support.Rng.int rng 10 in
    let x = Support.Rng.int rng (1 lsl w) and y = Support.Rng.int rng (1 lsl w) in
    let va = abstract_containing rng w x and vb = abstract_containing rng w y in
    let cmp = List.nth cmps (Support.Rng.int rng 6) in
    let holds = Ops.eval (Ops.Icmp cmp) [ x; y ] = 1 in
    let polarity = holds in
    let refined = T.refine_cmp ~width:w cmp ~polarity va vb in
    if not (V.mem w x refined) then
      Alcotest.failf "refine %s polarity=%b loses %d from %s (vs %s)" (Ops.name (Ops.Icmp cmp))
        polarity x (V.to_string ~width:w va) (V.to_string ~width:w vb)
  done

(* ------------------------------------------------------------------ *)
(* Fixpoint termination: widening converges without hitting the global
   evaluation cap, on loop nests and on a loop whose concrete execution
   never terminates. *)

let test_termination_nested () =
  let g =
    compile
      "int f(int a[8]) { int s = 0; for (int i = 0; i < 8; i = i + 1) { for (int j = 0; j < 8; \
       j = j + 1) { s = s + a[j]; } } return s; }"
  in
  let res = An.run g in
  check Alcotest.bool "nested loops converge" false res.An.diverged;
  check Alcotest.bool "bounded evals" true (res.An.evals < 512 * (G.n_units g + 1))

let test_termination_nonterminating () =
  (* x walks 0,2,4,... and never equals 7: concretely infinite, but the
     abstract fixpoint must still converge via widening *)
  let g = compile "int f() { int x = 0; while (x != 7) { x = x + 2; } return x; }" in
  let res = An.run g in
  check Alcotest.bool "widening converges" false res.An.diverged

(* every kernel in the suite analyzes without divergence *)
let test_termination_kernels () =
  List.iter
    (fun k ->
      let res = An.run (seeded (Hls.Kernels.graph k)) in
      check Alcotest.bool (k.Hls.Kernels.name ^ " converges") false res.An.diverged)
    Hls.Kernels.all

(* ------------------------------------------------------------------ *)
(* Narrowing on real kernels *)

let test_gsum_narrowing () =
  let g = seeded (Hls.Kernels.graph (Hls.Kernels.by_name "gsum")) in
  let res = An.run g in
  let gn, report = N.run res g in
  check Alcotest.bool "narrowing changed gsum" true (N.changed report);
  check Alcotest.bool "channel bits saved" true (report.N.r_bits_after < report.N.r_bits_before);
  check Alcotest.(list string) "simulation-equivalent" []
    (Tv.Simdiff.check ~original:g ~variant:gn ())

(* The text report prints one line per entry, whatever the line
   widths: width-dependent cut hints used to glue entries together. *)
let test_report_lines () =
  let entry uid label range =
    { N.nr_uid = uid; nr_label = label; nr_old_width = 32; nr_new_width = 7; nr_range = range }
  in
  let long = String.make 90 'x' in
  let report =
    {
      N.r_narrowed =
        [ entry 1 "const1" "{1}"; entry 9 long ""; entry 12 "br_i" "[0,99] 0b0xxxxxxx" ];
      r_bits_before = 611;
      r_bits_after = 351;
      r_diverged = false;
    }
  in
  check
    Alcotest.(list string)
    "one line per entry"
    [
      "channel bits: 611 -> 351";
      "  narrow const1#1: 32 -> 7 bits  {1}";
      "  narrow " ^ long ^ "#9: 32 -> 7 bits";
      "  narrow br_i#12: 32 -> 7 bits  [0,99] 0b0xxxxxxx";
    ]
    (String.split_on_char '\n' (Format.asprintf "%a" N.pp_report report));
  check Alcotest.string "diverged" "analysis diverged; graph left unchanged"
    (Format.asprintf "%a" N.pp_report { report with N.r_diverged = true })

(* satellite regression: the full flow with narrowing on and off must
   produce sim-equivalent circuits (exit value and memory state) *)
let test_flow_narrow_on_off () =
  let k = Hls.Kernels.by_name "gsum" in
  let run narrow =
    let config = { Core.Flow.default_config with Core.Flow.narrow } in
    let o = Core.Flow.iterative ~config (Hls.Kernels.graph k) in
    let mems = k.Hls.Kernels.mems () in
    let r = Sim.Elastic.run ~memories:mems o.Core.Flow.graph in
    check Alcotest.bool (Printf.sprintf "narrow=%b finished" narrow) true r.Sim.Elastic.finished;
    (r.Sim.Elastic.exit_value, mems, o.Core.Flow.narrowing)
  in
  let v_on, m_on, rep_on = run true in
  let v_off, m_off, rep_off = run false in
  check Alcotest.(option int) "exit values agree" v_off v_on;
  check Alcotest.bool "memories agree" true (m_on = m_off);
  check Alcotest.bool "report present when on" true (rep_on <> None);
  check Alcotest.bool "report absent when off" true (rep_off = None);
  check Alcotest.(option int) "matches interpreter"
    (Some (Hls.Kernels.reference k))
    v_on

(* Narrowing keeps every unit and channel (see "narrowing changes widths
   only"); these programs with constant steering and a constant operator
   stay as width-only probes: the narrowed circuit is equivalent,
   elaborates and returns the interpreter's value. *)
let narrow_probe src =
  let g = compile src in
  let gn, _ = N.run (An.run g) g in
  check Alcotest.(list string) "equivalent" [] (Tv.Simdiff.check ~original:g ~variant:gn ());
  ignore (Elaborate.run gn);
  gn

let test_dead_branch_deleted () =
  let gn = narrow_probe "int f() { int s = 3; if (0) { s = 5; } return s; }" in
  let r = Sim.Elastic.run gn in
  check Alcotest.(option int) "narrowed circuit still returns 3" (Some 3) r.Sim.Elastic.exit_value

let test_const_fold () =
  let gn = narrow_probe "int f() { return 2 + 3; }" in
  let r = Sim.Elastic.run gn in
  check Alcotest.(option int) "narrowed circuit returns 5" (Some 5) r.Sim.Elastic.exit_value

(* the range lint family reports no errors or warnings on any suite
   kernel (info diagnostics like wrap-by-design accumulation and width
   excess are expected and allowed) *)
let test_ranges_clean () =
  List.iter
    (fun k ->
      let rep = Lint.Engine.check_ranges (seeded (Hls.Kernels.graph k)) in
      check Alcotest.bool
        (k.Hls.Kernels.name ^ " no range errors or warnings")
        true (Lint.Engine.clean rep))
    Hls.Kernels.all

(* fuzz seed 987: a Control_merge with one live input, which a former
   structural rewrite turned into a fork that read past a width-0 control
   channel; the narrowed circuit must still elaborate *)
let test_refork_control_width () =
  ignore (narrow_probe "int f(int a[8], int b[8]) { int s1 = 5; if ((s1 != 9)) { } }")

(* Narrowing changes widths only: same units, channels, endpoints, labels,
   back-edge marks and buffers, the same kinds apart from [Const]
   masking, and no width grows.  Every kernel at 8 and 16 bits and
   generator seeds 0-199 (most of which have constant steering). *)
let test_widths_only () =
  let kernels =
    List.concat_map
      (fun w ->
        List.map
          (fun k -> (Printf.sprintf "%s@%d" k.Hls.Kernels.name w, Hls.Kernels.graph ~width:w k))
          Hls.Kernels.all)
      [ 8; 16 ]
  in
  let generated =
    List.init 200 (fun s ->
        let p = Hls.Generate.generate s in
        (Printf.sprintf "seed %d" s, Hls.Compile.compile ~args:p.Hls.Generate.args p.Hls.Generate.func))
  in
  List.iter
    (fun (name, g0) ->
      let g = seeded g0 in
      let gn, _ = N.run (An.run g) g in
      let ok what b = check Alcotest.bool (name ^ ": " ^ what) true b in
      ok "same unit count" (G.n_units g = G.n_units gn);
      ok "same channel count" (G.n_channels g = G.n_channels gn);
      G.iter_units g (fun n ->
          let m = G.unit_node gn n.G.uid in
          let same_kind =
            match (n.G.kind, m.G.kind) with
            | Dataflow.Unit_kind.Const a, Dataflow.Unit_kind.Const b -> b = a || b = mask n.G.width a
            | a, b -> a = b
          in
          ok (Printf.sprintf "unit %d: same kind and label, width not grown" n.G.uid)
            (same_kind && m.G.label = n.G.label && m.G.width <= n.G.width));
      G.iter_channels g (fun c ->
          let d = G.channel gn c.G.cid in
          ok
            (Printf.sprintf "channel %d: same endpoints, back-edge mark and buffer" c.G.cid)
            ((c.G.src, c.G.src_port, c.G.dst, c.G.dst_port, c.G.back, c.G.buffer)
            = (d.G.src, d.G.src_port, d.G.dst, d.G.dst_port, d.G.back, d.G.buffer))))
    (kernels @ generated)

(* ------------------------------------------------------------------ *)
(* The equivalence gate has teeth: an unsound width shrink (performed
   behind the analysis's back) is caught by random simulation. *)

let test_simdiff_catches_unsound_shrink () =
  let g = seeded (Hls.Kernels.graph (Hls.Kernels.by_name "gsum")) in
  let victim = ref (-1) in
  G.iter_units g (fun n ->
      match n.G.kind with
      | Dataflow.Unit_kind.Operator { op = Ops.Add; _ } when !victim < 0 && n.G.width >= 8 ->
        victim := n.G.uid
      | _ -> ());
  check Alcotest.bool "found an 8-bit adder" true (!victim >= 0);
  let bad = G.copy g in
  G.set_width bad !victim 3;
  let mismatches = Tv.Simdiff.check ~original:g ~variant:bad () in
  check Alcotest.bool "unsound shrink detected" true (mismatches <> [])

(* Memory mismatches are capped at eight messages, in cell order; later
   differing cells and rounds add none. *)
let test_simdiff_caps_memory_mismatches () =
  let fill k =
    seeded
      (Hls.Compile.compile
         (Hls.Parser.parse
            (Printf.sprintf
               "int fill(int a[16]) { for (int i = 0; i < 16; i = i + 1) { a[i] = i + %d; } return 0; }"
               k)))
  in
  check
    Alcotest.(list string)
    "first eight cells of round 0"
    (List.init 8 (fun i -> Printf.sprintf "round 0: memory a[%d] = %d <> %d" i i (i + 1)))
    (Tv.Simdiff.check ~original:(fill 0) ~variant:(fill 1) ())

let suite =
  [
    Alcotest.test_case "transfer envelope (10k/op)" `Slow test_envelope;
    Alcotest.test_case "refinement soundness" `Quick test_refine_sound;
    Alcotest.test_case "termination: nested loops" `Quick test_termination_nested;
    Alcotest.test_case "termination: non-terminating loop" `Quick test_termination_nonterminating;
    Alcotest.test_case "termination: benchmark suite" `Quick test_termination_kernels;
    Alcotest.test_case "gsum narrowing saves bits, equivalent" `Quick test_gsum_narrowing;
    Alcotest.test_case "narrowing report: one line per entry" `Quick test_report_lines;
    Alcotest.test_case "flow narrow on/off equivalent" `Slow test_flow_narrow_on_off;
    Alcotest.test_case "dead branch deleted" `Quick test_dead_branch_deleted;
    Alcotest.test_case "constant fold" `Quick test_const_fold;
    Alcotest.test_case "range lints clean on suite" `Quick test_ranges_clean;
    Alcotest.test_case "refork takes control width (seed 987)" `Quick test_refork_control_width;
    Alcotest.test_case "narrowing changes widths only" `Quick test_widths_only;
    Alcotest.test_case "simdiff catches unsound shrink" `Quick test_simdiff_catches_unsound_shrink;
    Alcotest.test_case "simdiff caps memory mismatches" `Quick test_simdiff_caps_memory_mismatches;
  ]
