(* The throughput & liveness certifier: pinned cycle-ratio fixtures where
   Howard and Karp must agree to 1e-9, liveness violations on deliberately
   broken loops, the perf-* lint rules, and the cross-flavor property that
   the MILP's throughput claims never exceed the certified bound. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module A = Dataflow.Analysis
module CR = Analysis.Cycle_ratio
module C = Analysis.Certify
module D = Lint.Diagnostic
module E = Lint.Engine
module LM = Timing.Lut_map

let check = Alcotest.check
let close msg a b = check (Alcotest.float 1e-9) msg a b

let fired rule (r : E.report) = List.exists (fun d -> d.D.rule = rule) r.E.diagnostics
let expect_fired rule r = check Alcotest.bool (rule ^ " fires") true (fired rule r)
let expect_quiet rule r = check Alcotest.bool (rule ^ " quiet") false (fired rule r)

let edge e_src e_dst e_cost e_time e_id = { CR.e_src; e_dst; e_cost; e_time; e_id }

(* ------------------------------------------------------------------ *)
(* Cycle_ratio: pinned hand-built instances *)

let test_two_cycle_pinned () =
  (* cycle A: 0 -> 1 -> 0, ratio (1+0)/(1+2) = 1/3
     cycle B: 0 -> 2 -> 0, ratio (1+1)/(1+1) = 1 *)
  let gr =
    {
      CR.n_nodes = 3;
      edges =
        [
          edge 0 1 1 1 0; edge 1 0 0 2 1; edge 0 2 1 1 2; edge 2 0 1 1 3;
        ];
    }
  in
  match CR.howard gr with
  | None -> Alcotest.fail "howard found no cycle"
  | Some (w, stats) ->
    close "howard ratio" (1. /. 3.) w.CR.ratio;
    check Alcotest.int "witness length" 2 (List.length w.CR.cycle);
    check (Alcotest.list Alcotest.int) "witness edges" [ 0; 1 ]
      (List.sort compare (List.map (fun e -> e.CR.e_id) w.CR.cycle));
    check Alcotest.bool "iterated" true (stats.CR.iterations >= 1);
    (match CR.karp gr with
    | None -> Alcotest.fail "karp found no cycle"
    | Some k -> close "karp agrees to 1e-9" w.CR.ratio k)

let test_min_cycle_mean_negative () =
  (* 0 -> 1 (cost 2), 1 -> 0 (cost -3): mean (2 - 3) / 2 = -1/2 *)
  let gr = { CR.n_nodes = 2; edges = [ edge 0 1 2 1 0; edge 1 0 (-3) 1 1 ] } in
  match CR.min_cycle_mean gr with
  | None -> Alcotest.fail "no cycle"
  | Some (w, _) -> close "negative mean" (-0.5) w.CR.ratio

let test_karp_contraction_and_expansion () =
  (* a zero-time edge (contracted) and a time-3 edge (chain-expanded):
     ratio (5+1)/(0+3) = 2 *)
  let gr = { CR.n_nodes = 2; edges = [ edge 0 1 5 0 0; edge 1 0 1 3 1 ] } in
  (match CR.howard gr with
  | None -> Alcotest.fail "howard found no cycle"
  | Some (w, _) -> close "howard" 2.0 w.CR.ratio);
  match CR.karp gr with
  | None -> Alcotest.fail "karp found no cycle"
  | Some k -> close "karp" 2.0 k

let test_acyclic_is_none () =
  let gr = { CR.n_nodes = 3; edges = [ edge 0 1 1 1 0; edge 1 2 1 1 1 ] } in
  check Alcotest.bool "howard none" true (CR.howard gr = None);
  check Alcotest.bool "karp none" true (CR.karp gr = None)

let test_zero_time_cycle_rejected () =
  let gr = { CR.n_nodes = 2; edges = [ edge 0 1 1 0 0; edge 1 0 1 0 1 ] } in
  let rejects f = try ignore (f gr); false with Invalid_argument _ -> true in
  check Alcotest.bool "howard rejects" true (rejects CR.howard);
  check Alcotest.bool "karp rejects" true (rejects CR.karp)

let test_random_howard_karp_agree () =
  (* randomised cross-check: the two independent solvers agree on dense
     strongly-connected instances (seeded, so deterministic) *)
  let st = Random.State.make [| 0x5eed |] in
  for _ = 1 to 40 do
    let n = 2 + Random.State.int st 6 in
    (* a Hamiltonian ring guarantees strong connectivity, then chords *)
    let ring = List.init n (fun i -> (i, (i + 1) mod n)) in
    let chords =
      List.init (Random.State.int st (2 * n)) (fun _ ->
          (Random.State.int st n, Random.State.int st n))
    in
    let edges =
      List.mapi
        (fun i (s, d) ->
          edge s d (Random.State.int st 7) (1 + Random.State.int st 3) i)
        (ring @ chords)
    in
    let gr = { CR.n_nodes = n; edges } in
    match (CR.howard gr, CR.karp gr) with
    | Some (w, _), Some k -> close "howard = karp" w.CR.ratio k
    | _ -> Alcotest.fail "solver found no cycle on a ring"
  done

(* ------------------------------------------------------------------ *)
(* Certify on dataflow fixtures *)

let test_certify_live_loop () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let cert = C.certify g in
  check Alcotest.bool "live" true cert.C.live;
  check Alcotest.int "one cyclic scc" 1 (List.length cert.C.sccs);
  (* the loop carries 1 token over 1 cycle of latency (the opaque back
     edge; every unit on it is combinational) *)
  close "bound" 1.0 cert.C.throughput;
  check Alcotest.bool "karp agrees" true (C.karp_agrees cert);
  let s = List.hd cert.C.sccs in
  check Alcotest.bool "critical cycle witnessed" true (s.C.sc_critical <> None);
  check Alcotest.bool "howard iterated" true (cert.C.howard_iterations >= 1);
  check Alcotest.bool "karp ran" true (cert.C.karp_checks >= 1);
  expect_quiet "perf-comb-loop" (E.check_perf ~phi:[] cert g);
  expect_quiet "perf-deadlock" (E.check_perf ~phi:[] cert g)

let test_certify_deadlock () =
  (* one slot on the back edge and zero pipeline slack elsewhere: the
     single loop token fills the cycle's capacity *)
  let g, back = Fixtures.loop ~buffered:true () in
  G.set_buffer g back (Some { G.transparent = false; slots = 1 });
  let cert = C.certify g in
  check Alcotest.bool "not live" false cert.C.live;
  check Alcotest.bool "deadlock violation" true
    (List.exists (function C.Deadlock _ -> true | _ -> false) cert.C.violations);
  let r = E.check_perf ~phi:[] cert g in
  expect_fired "perf-deadlock" r;
  check Alcotest.bool "gate raises" true
    (try ignore (E.gate ~stage:"perf" r); false with E.Lint_error _ -> true);
  (* the simulator concurs: the circuit deadlocks *)
  let sim = Sim.Elastic.run ~config:{ Sim.Elastic.default_config with max_cycles = 10_000 } g in
  check Alcotest.bool "sim deadlocks too" true
    (sim.Sim.Elastic.deadlocked || not sim.Sim.Elastic.finished)

let test_certify_comb_loop () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let cert = C.certify g in
  check Alcotest.bool "not live" false cert.C.live;
  check Alcotest.bool "comb-loop violation" true
    (List.exists (function C.Comb_loop _ -> true | _ -> false) cert.C.violations);
  close "bound collapses" 0.0 cert.C.throughput;
  expect_fired "perf-comb-loop" (E.check_perf ~phi:[] cert g)

let test_phi_overclaim () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let cert = C.certify g in
  let s = List.hd cert.C.sccs in
  let over = [ (s.C.sc_units, s.C.sc_bound +. 0.1) ] in
  expect_fired "perf-phi-overclaimed" (E.check_perf ~phi:over cert g);
  let exact = [ (s.C.sc_units, s.C.sc_bound) ] in
  expect_quiet "perf-phi-overclaimed" (E.check_perf ~phi:exact cert g);
  (* eps absorbs LP noise *)
  let noisy = [ (s.C.sc_units, s.C.sc_bound +. 1e-6) ] in
  expect_quiet "perf-phi-overclaimed" (E.check_perf ~phi:noisy cert g)

let test_truncation_observable () =
  let g = Hls.Kernels.graph (Hls.Kernels.by_name "gsum") in
  ignore (Core.Flow.seed_back_edges g);
  let all, flag = A.simple_cycles_capped g in
  check Alcotest.bool "gsum enumerates fully" false flag;
  check Alcotest.bool "has >= 2 cycles" true (List.length all >= 2);
  let few, capped = A.simple_cycles_capped ~limit:1 g in
  check Alcotest.int "cap respected" 1 (List.length few);
  check Alcotest.bool "cap reported" true capped;
  (* the flag rides into the CFDFC records... *)
  let cfdfcs = Buffering.Cfdfc.extract ~cycle_limit:1 g in
  check Alcotest.bool "cfdfc carries the flag" true
    (List.for_all (fun cf -> cf.Buffering.Cfdfc.truncated) cfdfcs);
  (* ...and surfaces as the perf warning *)
  let cert = C.certify g in
  let r = E.check_perf ~truncated:true ~phi:[] cert g in
  expect_fired "perf-cycle-limit-truncated" r;
  check Alcotest.bool "only a warning" true (E.ok r);
  expect_quiet "perf-cycle-limit-truncated" (E.check_perf ~phi:[] cert g)

let test_trace_counters () =
  let g, _ = Fixtures.loop ~buffered:true () in
  Support.Trace.start ();
  ignore (C.certify g);
  let r = Support.Trace.stop () in
  check Alcotest.bool "perf.sccs" true (Support.Trace.counter r "perf.sccs" >= 1);
  check Alcotest.bool "perf.cycles" true (Support.Trace.counter r "perf.cycles" >= 1);
  check Alcotest.bool "perf.howard.iters" true
    (Support.Trace.counter r "perf.howard.iters" >= 1);
  check Alcotest.bool "perf.karp.checks" true
    (Support.Trace.counter r "perf.karp.checks" >= 1)

let test_to_json_shape () =
  let module J = Support.Json in
  let g, _ = Fixtures.loop ~buffered:true () in
  let cert = C.certify g in
  match J.of_string (J.to_string (C.to_json cert)) with
  | Error msg -> Alcotest.failf "certificate JSON does not parse: %s" msg
  | Ok j -> (
    check (Alcotest.option (Alcotest.float 1e-9)) "throughput_bound" (Some cert.C.throughput)
      (J.num_mem "throughput_bound" j);
    check (Alcotest.option Alcotest.bool) "live" (Some true) (J.bool_mem "live" j);
    match J.mem "sccs" j with
    | Some (J.Arr (scc :: _ as sccs)) ->
      check Alcotest.int "one entry per SCC" (List.length cert.C.sccs) (List.length sccs);
      check Alcotest.bool "karp member" true (J.mem "karp" scc <> None)
    | _ -> Alcotest.fail "sccs is not a non-empty array")

(* ------------------------------------------------------------------ *)
(* SIV-D domain discipline (check_domains) on a fabricated timing graph *)

let domain_fixture pivot_unit =
  (* launch -> Cross_fwd -> fake pivot -> Cross_bwd -> capture *)
  {
    LM.kinds =
      [|
        LM.Launch;
        LM.Cross_fwd 0;
        LM.Delay { unit_id = pivot_unit; delay = 0.; fake = true };
        LM.Cross_bwd 0;
        LM.Capture;
      |];
    succs = [| [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [] |];
    preds = [| []; [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] |];
    launch = 0;
    capture = 4;
    n_real = 0;
    n_fake = 1;
    n_unmapped_edges = 0;
  }

let test_domain_crossing_rule () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let interaction = Elaborate.interaction_units g in
  let non_interaction =
    List.filter (fun u -> not (List.mem u interaction)) (List.init (G.n_units g) Fun.id)
  in
  (* a pivot in a fork (not an interaction unit) violates SIV-D... *)
  let bad = E.of_diagnostics (Lint.Perf_rules.check_domains g (domain_fixture (List.hd non_interaction))) in
  expect_fired "perf-domain-crossing" bad;
  (* ...the same pivot in a merge/branch is the legal FPL'22 shape *)
  let good = E.of_diagnostics (Lint.Perf_rules.check_domains g (domain_fixture (List.hd interaction))) in
  expect_quiet "perf-domain-crossing" good;
  (* and an out-of-range attribution is always an error *)
  let oob = E.of_diagnostics (Lint.Perf_rules.check_domains g (domain_fixture 9999)) in
  expect_fired "perf-domain-crossing" oob

let test_delay_uncovered_rule () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let tg =
    {
      LM.kinds =
        [| LM.Launch; LM.Delay { unit_id = 0; delay = 0.7; fake = false }; LM.Capture |];
      (* the real delay node hangs off no launch-to-capture path *)
      succs = [| [ 2 ]; []; [] |];
      preds = [| []; []; [ 0 ] |];
      launch = 0;
      capture = 2;
      n_real = 1;
      n_fake = 0;
      n_unmapped_edges = 0;
    }
  in
  let r = E.of_diagnostics (Lint.Perf_rules.check_domains g tg) in
  expect_fired "perf-delay-uncovered" r;
  check Alcotest.bool "warning only" true (E.ok r);
  (* the real mapping pipeline produces a fully covered timing graph *)
  let net, lg, _ = Core.Flow.synthesize Core.Flow.default_config g in
  let real = LM.build g ~net lg in
  expect_quiet "perf-delay-uncovered" (E.of_diagnostics (Lint.Perf_rules.check_domains g real));
  expect_quiet "perf-domain-crossing" (E.of_diagnostics (Lint.Perf_rules.check_domains g real))

(* ------------------------------------------------------------------ *)
(* Flow integration + the cross-kernel properties *)

let test_flow_reports_certificate () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let outcome = Core.Flow.iterative ~config:Fixtures.cheap_flow_config g in
  check Alcotest.bool "perf gate ran" true (List.mem "perf" outcome.Core.Flow.lint_stages);
  check Alcotest.bool "certificate is live" true outcome.Core.Flow.certified.C.live;
  List.iter
    (fun it ->
      check Alcotest.bool "phi <= bound + eps" true
        (it.Core.Flow.milp_phi <= it.Core.Flow.certified_bound +. 1e-4))
    outcome.Core.Flow.iterations;
  let base = Core.Flow.baseline ~config:Fixtures.cheap_flow_config g in
  check Alcotest.bool "baseline perf gate ran" true (List.mem "perf" base.Core.Flow.lint_stages);
  check Alcotest.bool "baseline certified" true base.Core.Flow.certified.C.live

(* every kernel, LP-free: the certifier itself must be instant, prove
   liveness of the seeded circuits and have Howard and Karp agree *)
let test_all_kernels_certified () =
  List.iter
    (fun k ->
      let g = G.copy (Hls.Kernels.graph k) in
      ignore (Core.Flow.seed_back_edges g);
      let cert = C.certify g in
      check Alcotest.bool (k.Hls.Kernels.name ^ " live") true cert.C.live;
      check Alcotest.bool (k.Hls.Kernels.name ^ " karp agrees") true (C.karp_agrees cert);
      check Alcotest.bool (k.Hls.Kernels.name ^ " bound in (0,1]") true
        (cert.C.throughput > 0. && cert.C.throughput <= 1.))
    Hls.Kernels.all

(* pre-characterised flavor: solve the buffer MILP, certify the placement
   it proposes, and demand phi <= bound + eps with Howard/Karp agreement
   — the acceptance property of the certifier. [cycle_limit] and
   [node_limit] are capped hard and the sweep defaults to the kernels
   whose dense-simplex relaxation stays test-budget-sized (the property
   itself is cap-independent: any feasible solution's phi must respect
   the bound); REPRO_FULL_MILP_PROPERTY=1 widens it to all nine at the
   cost of several minutes of LP time. *)
let milp_property_kernels () =
  if Sys.getenv_opt "REPRO_FULL_MILP_PROPERTY" <> None then Hls.Kernels.all
  else
    List.filter
      (fun k ->
        List.mem k.Hls.Kernels.name
          [ "insertion_sort"; "gsum"; "gsumif"; "gaussian"; "matrix" ])
      Hls.Kernels.all

let test_kernels_certified_vs_milp () =
  List.iter
    (fun k ->
      let g = G.copy (Hls.Kernels.graph k) in
      ignore (Core.Flow.seed_back_edges g);
      let model = Timing.Precharacterized.build g in
      let cfdfcs = Buffering.Cfdfc.extract ~cycle_limit:24 g in
      let truncated = List.exists (fun cf -> cf.Buffering.Cfdfc.truncated) cfdfcs in
      let cfg =
        {
          Buffering.Formulation.default_config with
          cp_target = 4.2;
          use_penalty = false;
          node_limit = 5;
        }
      in
      match Buffering.Formulation.solve cfg g model cfdfcs with
      | Error e ->
        Alcotest.fail
          (k.Hls.Kernels.name ^ ": MILP failed: " ^ Buffering.Formulation.failure_message e)
      | Ok p ->
        let candidate = G.copy g in
        List.iter
          (fun c -> G.set_buffer candidate c (Some { G.transparent = false; slots = 2 }))
          p.Buffering.Formulation.new_buffers;
        let cert = C.certify candidate in
        check Alcotest.bool (k.Hls.Kernels.name ^ " live") true cert.C.live;
        check Alcotest.bool (k.Hls.Kernels.name ^ " karp agrees") true (C.karp_agrees cert);
        let phi =
          List.map2
            (fun (cf : Buffering.Cfdfc.t) th -> (cf.Buffering.Cfdfc.units, th))
            cfdfcs p.Buffering.Formulation.throughput
        in
        let r = E.check_perf ~truncated ~phi cert candidate in
        check Alcotest.int (k.Hls.Kernels.name ^ " no perf errors") 0 r.E.errors)
    (milp_property_kernels ())

(* mapping-aware flavor on the tiny kernels: the full iterative flow's
   own perf gate must pass and the outcome must carry the certificate *)
let test_tiny_kernels_mapping_aware () =
  List.iter
    (fun k ->
      let g = Hls.Kernels.graph k in
      let outcome = Core.Flow.iterative ~config:Fixtures.cheap_flow_config g in
      check Alcotest.bool (k.Hls.Kernels.name ^ " perf gate") true
        (List.mem "perf" outcome.Core.Flow.lint_stages);
      check Alcotest.bool (k.Hls.Kernels.name ^ " live") true
        outcome.Core.Flow.certified.C.live;
      List.iter
        (fun it ->
          check Alcotest.bool (k.Hls.Kernels.name ^ " phi <= bound") true
            (it.Core.Flow.milp_phi <= it.Core.Flow.certified_bound +. 1e-4))
        outcome.Core.Flow.iterations)
    Fixtures.tiny_kernels

(* the simulator never beats the certificate: measured steady-state
   transfers on any channel inside a cyclic SCC stay under bound * cycles
   (plus a small start-up allowance) *)
let test_sim_respects_bound () =
  List.iter
    (fun k ->
      let g = G.copy (Hls.Kernels.graph k) in
      ignore (Core.Flow.seed_back_edges g);
      let cert = C.certify g in
      let sim = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
      check Alcotest.bool (k.Hls.Kernels.name ^ " finishes") true sim.Sim.Elastic.finished;
      let cycles = float_of_int sim.Sim.Elastic.cycles in
      List.iter
        (fun s ->
          let members = Hashtbl.create 16 in
          List.iter (fun u -> Hashtbl.replace members u ()) s.C.sc_units;
          G.iter_channels g (fun ch ->
              if Hashtbl.mem members ch.G.src && Hashtbl.mem members ch.G.dst then begin
                let transfers =
                  sim.Sim.Elastic.channel_stats.(ch.G.cid).Sim.Elastic.cs_transfers
                in
                check Alcotest.bool
                  (Printf.sprintf "%s c%d within bound" k.Hls.Kernels.name ch.G.cid)
                  true
                  (float_of_int transfers <= (s.C.sc_bound *. cycles) +. 4.)
              end))
        cert.C.sccs)
    Fixtures.tiny_kernels

let suite =
  [
    ("two-cycle pinned: Howard == Karp == 1/3", `Quick, test_two_cycle_pinned);
    ("min cycle mean with negative costs", `Quick, test_min_cycle_mean_negative);
    ("karp contraction and chain expansion", `Quick, test_karp_contraction_and_expansion);
    ("acyclic graph yields no ratio", `Quick, test_acyclic_is_none);
    ("zero-time cycle rejected by both solvers", `Quick, test_zero_time_cycle_rejected);
    ("randomised Howard/Karp agreement", `Quick, test_random_howard_karp_agree);
    ("certify: live buffered loop", `Quick, test_certify_live_loop);
    ("certify: zero-slack cycle deadlocks", `Quick, test_certify_deadlock);
    ("certify: unbuffered loop is combinational", `Quick, test_certify_comb_loop);
    ("perf-phi-overclaimed fires and eps absorbs noise", `Quick, test_phi_overclaim);
    ("cycle-limit truncation is observable end to end", `Quick, test_truncation_observable);
    ("certifier emits trace counters", `Quick, test_trace_counters);
    ("certificate JSON shape", `Quick, test_to_json_shape);
    ("SIV-D pivots only at interaction units", `Quick, test_domain_crossing_rule);
    ("real delay nodes must be covered", `Quick, test_delay_uncovered_rule);
    ("flow gates and reports the certificate", `Quick, test_flow_reports_certificate);
    ("all kernels: certified live, Howard == Karp", `Quick, test_all_kernels_certified);
    ("kernels: MILP phi <= certified bound", `Slow, test_kernels_certified_vs_milp);
    ("tiny kernels: mapping-aware flow certified", `Slow, test_tiny_kernels_mapping_aware);
    ("simulation never beats the certified bound", `Slow, test_sim_respects_bound);
  ]
