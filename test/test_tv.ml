module G = Dataflow.Graph
module Equiv = Tv.Equiv
module Mutate = Tv_mutate

let check = Alcotest.check

(* A mapped combinational fixture (fig2: shifter + adder + compare)
   and a mapped sequential one (the buffered loop). *)
let mapped_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net, lg, _ = Core.Flow.synthesize Core.Flow.default_config g in
  (g, net, lg)

let mapped_loop () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let net, lg, _ = Core.Flow.synthesize Core.Flow.default_config g in
  (g, net, lg)

let rule_fired id ds = List.exists (fun d -> d.Lint.Diagnostic.rule = id) ds

let lut_flagged id lid ds =
  List.exists
    (fun d -> d.Lint.Diagnostic.rule = id && d.Lint.Diagnostic.loc = Lint.Diagnostic.Lut lid)
    ds

(* ------------------------------------------------------------------ *)
(* Clean circuits validate cleanly. *)

let test_clean () =
  List.iter
    (fun (name, (_, net, lg)) ->
      let ds, r = Lint.Equiv_rules.check_translation net lg in
      check Alcotest.int (name ^ " diagnostics") 0 (List.length ds);
      check Alcotest.int (name ^ " mismatches") 0 (List.length r.Equiv.mismatches);
      check Alcotest.bool (name ^ " cos covered") true (r.Equiv.cos_checked > 0);
      check Alcotest.bool (name ^ " luts covered") true (r.Equiv.luts_checked > 0))
    [ ("fig2", mapped_fig2 ()); ("loop", mapped_loop ()) ]

(* Signatures are a pure function of (netlist, seed): byte-identical at
   any worker-pool width and across repeated runs. *)
let test_signature_deterministic () =
  let _, net, lg = mapped_fig2 () in
  let signature () = Equiv.signature_hex (Equiv.run net lg) in
  let reference = signature () in
  check Alcotest.string "repeat run" reference (signature ());
  List.iter
    (fun jobs ->
      let sigs =
        Support.Pool.run ~jobs (fun pool ->
            List.init jobs (fun _ -> Support.Pool.submit pool signature)
            |> List.map Support.Pool.await)
      in
      List.iteri
        (fun i s -> check Alcotest.string (Printf.sprintf "jobs=%d worker %d" jobs i) reference s)
        sigs)
    [ 2; 8 ]

let seeds = [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* The validator catches every seeded miscompile class with the right
   rule and a concrete witness. *)

(* Every counterexample lane the validator reported must reproduce in
   the scalar reference evaluators; returns how many there were. *)
let replay_witnesses net lg (r : Equiv.result) =
  let lanes =
    List.filter (function Equiv.Cover_structural _ -> false | _ -> true) r.Equiv.mismatches
  in
  check Alcotest.int "every witness confirmed by scalar replay" (List.length lanes)
    (List.length (List.filter (Logic_reference.confirms net lg) lanes));
  List.length lanes

let test_flip_gate_detected () =
  let _, net, lg = mapped_fig2 () in
  List.iter
    (fun seed ->
      match Mutate.flip_gate ~seed net with
      | None -> Alcotest.fail "no observable gate flip found"
      | Some (net', gid) ->
        check Alcotest.bool "flip site valid" true (gid >= 0 && gid < Net.n_gates net');
        let ds, r = Lint.Equiv_rules.check_translation net' lg in
        check Alcotest.bool "equiv-aig-mismatch fired" true (rule_fired "equiv-aig-mismatch" ds);
        let has_witness =
          List.exists
            (function
              | Equiv.Aig_mismatch { lane; _ } -> lane.Equiv.lane_gates <> []
              | _ -> false)
            r.Equiv.mismatches
        in
        check Alcotest.bool "counterexample lane attached" true has_witness;
        ignore (replay_witnesses net' lg r))
    seeds

(* The swapped cover is malformed at every seed (no leaf swap that keeps
   every cone cut by its leaves changes the cover's function); its cover
   lanes are still replayed, reading the malformed LUT as false. *)
let test_swap_cover_leaf_detected () =
  let _, net, lg = mapped_fig2 () in
  List.iter
    (fun seed ->
      match Mutate.swap_cover_leaf ~seed lg with
      | None -> Alcotest.fail "no observable cover-leaf swap found"
      | Some (lg', lid) ->
        let ds, r = Lint.Equiv_rules.check_translation net lg' in
        check Alcotest.bool "equiv-cover-mismatch fired" true
          (rule_fired "equiv-cover-mismatch" ds);
        check Alcotest.bool "cover lanes attached" true
          (List.exists
             (function Equiv.Cover_mismatch _ | Equiv.Cover_co_mismatch _ -> true | _ -> false)
             r.Equiv.mismatches);
        ignore (replay_witnesses net lg' r);
        check Alcotest.bool "mutated LUT or an output flagged" true
          (lut_flagged "equiv-cover-mismatch" lid ds
          || List.exists
               (fun d ->
                 d.Lint.Diagnostic.rule = "equiv-cover-mismatch"
                 && match d.Lint.Diagnostic.loc with Lint.Diagnostic.Gate _ -> true | _ -> false)
               ds))
    seeds

let test_swap_label_detected () =
  let g, net, lg = mapped_fig2 () in
  List.iter
    (fun seed ->
      match Mutate.swap_label ~seed ~n_units:(G.n_units g) lg with
      | None -> Alcotest.fail "no label swap found"
      | Some (lg', lid) ->
        let ds, _ = Lint.Equiv_rules.check_translation net lg' in
        check Alcotest.bool "equiv-label-unsound fired at the mutated LUT" true
          (lut_flagged "equiv-label-unsound" lid ds))
    seeds

let test_swap_domain_detected () =
  let _, net, lg = mapped_loop () in
  List.iter
    (fun seed ->
      match Mutate.swap_domain ~seed lg with
      | None -> Alcotest.fail "no domain swap found"
      | Some (lg', lid) ->
        let ds, _ = Lint.Equiv_rules.check_translation net lg' in
        check Alcotest.bool "equiv-domain-inconsistent fired at the mutated LUT" true
          (lut_flagged "equiv-domain-inconsistent" lid ds))
    seeds

let channel_flagged cid ds =
  List.exists
    (fun d ->
      d.Lint.Diagnostic.rule = "equiv-buffer-nonrefinement"
      && d.Lint.Diagnostic.loc = Lint.Diagnostic.Channel cid)
    ds

let test_rogue_buffer_detected () =
  let g, _ = Fixtures.loop ~buffered:true () in
  List.iter
    (fun seed ->
      match Mutate.rogue_buffer ~seed g with
      | None -> Alcotest.fail "no unbuffered channel to corrupt"
      | Some (g', cid) ->
        let ds = Lint.Equiv_rules.check_refinement ~base:g ~buffered:g' ~allowed:[] in
        check Alcotest.bool "rogue buffer flagged on its channel" true (channel_flagged cid ds))
    seeds

let test_tamper_slots_detected () =
  let g, _ = Fixtures.loop ~buffered:true () in
  List.iter
    (fun seed ->
      match Mutate.tamper_slots ~seed g with
      | None -> Alcotest.fail "no buffered channel to tamper with"
      | Some (g', cid) ->
        let ds = Lint.Equiv_rules.check_refinement ~base:g ~buffered:g' ~allowed:[] in
        check Alcotest.bool "tampered slot count flagged on its channel" true
          (channel_flagged cid ds))
    seeds

(* An allowed selection is not a violation; anything beyond it is. *)
let test_refinement_allows_selection () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let unbuffered =
    List.filter (fun c -> G.buffer g c = None) (List.init (G.n_channels g) Fun.id)
  in
  match unbuffered with
  | [] -> Alcotest.fail "loop fixture has no unbuffered channel"
  | c :: _ ->
    let spec = { G.transparent = false; slots = 2 } in
    let g' = G.copy g in
    G.set_buffer g' c (Some spec);
    check Alcotest.int "selected buffer accepted" 0
      (List.length (Lint.Equiv_rules.check_refinement ~base:g ~buffered:g' ~allowed:[ (c, spec) ]));
    check Alcotest.bool "same buffer without a selection rejected" true
      (channel_flagged c (Lint.Equiv_rules.check_refinement ~base:g ~buffered:g' ~allowed:[]))

(* ------------------------------------------------------------------ *)
(* Flow integration: the tv gates are part of both flavors' audits. *)

let test_flow_stages () =
  let g, _ = Fixtures.loop ~buffered:false () in
  let iterative = Core.Flow.iterative g in
  let baseline = Core.Flow.baseline g in
  List.iter
    (fun stage ->
      check Alcotest.bool ("iterative ran " ^ stage) true
        (List.mem stage iterative.Core.Flow.lint_stages))
    [ "tv"; "tv-final"; "final-dfg" ];
  List.iter
    (fun stage ->
      check Alcotest.bool ("baseline ran " ^ stage) true
        (List.mem stage baseline.Core.Flow.lint_stages))
    [ "tv"; "tv-buffer"; "final-dfg" ]

(* ------------------------------------------------------------------ *)
(* The simple-cycle cap ([--cycle-cap]). *)

let test_cycle_cap_truncation () =
  let g, _ = Fixtures.loop ~buffered:true () in
  let cycles, truncated = Dataflow.Analysis.simple_cycles_capped ~limit:1 g in
  check Alcotest.bool "hits a limit of 1" true (truncated || List.length cycles <= 1);
  let all, untruncated = Dataflow.Analysis.simple_cycles_capped ~limit:1_000_000 g in
  check Alcotest.bool "generous limit is exhaustive" false untruncated;
  check Alcotest.bool "loop fixture has a cycle" true (all <> [])

(* The cover's word evaluation against the scalar cover replay of
   [Logic_reference], on every lane of one 64-lane round, for every LUT
   of all nine kernels. *)
let test_cover_words_vs_reference () =
  List.iter
    (fun (name, _, (lg : Techmap.Lutgraph.t)) ->
      let aig = lg.Techmap.Lutgraph.synth.Techmap.Synth.aig in
      let rng = Support.Rng.create 0x7ea in
      let ci_words =
        Array.init (Techmap.Aig.n_nodes aig) (fun v ->
            if Techmap.Aig.is_ci aig v then Support.Rng.int64 rng else 0L)
      in
      let words = Equiv.cover_words lg ci_words in
      let tables = Logic_reference.cover_tables lg in
      for bit = 0 to 63 do
        let lane w = Int64.logand (Int64.shift_right_logical w bit) 1L = 1L in
        Array.iteri
          (fun lid v ->
            if lane words.(lid) <> v then
              Alcotest.failf "%s: LUT %d lane %d: words say %b, the scalar replay %b" name lid bit
                (not v) v)
          (Logic_reference.eval_cover lg tables (fun v -> lane ci_words.(v)))
      done)
    (Lazy.force Fixtures.seeded_covers)

let suite =
  [
    Alcotest.test_case "clean circuits validate cleanly" `Quick test_clean;
    Alcotest.test_case "signatures deterministic across pool widths" `Quick
      test_signature_deterministic;
    Alcotest.test_case "gate flip caught (equiv-aig-mismatch)" `Quick test_flip_gate_detected;
    Alcotest.test_case "cover-leaf swap caught (equiv-cover-mismatch)" `Quick
      test_swap_cover_leaf_detected;
    Alcotest.test_case "label swap caught (equiv-label-unsound)" `Quick test_swap_label_detected;
    Alcotest.test_case "domain swap caught (equiv-domain-inconsistent)" `Quick
      test_swap_domain_detected;
    Alcotest.test_case "rogue buffer caught (equiv-buffer-nonrefinement)" `Quick
      test_rogue_buffer_detected;
    Alcotest.test_case "tampered slots caught (equiv-buffer-nonrefinement)" `Quick
      test_tamper_slots_detected;
    Alcotest.test_case "allowed selection is a refinement" `Quick test_refinement_allows_selection;
    Alcotest.test_case "flow audits include the tv gates" `Quick test_flow_stages;
    Alcotest.test_case "cycle cap truncation flag" `Quick test_cycle_cap_truncation;
    Alcotest.test_case "cover words = scalar replay (9 kernels)" `Quick
      test_cover_words_vs_reference;
  ]
