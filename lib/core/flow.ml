module G = Dataflow.Graph
module A = Dataflow.Analysis
module Trace = Support.Trace

type config = {
  target_levels : int;
  level_delay : float;
  max_iterations : int;
  milp : Buffering.Formulation.config;
  lut_k : int;
  routing_aware : bool;
  slack_match : bool;
  balance : bool;
  lint_gates : bool;
  tv_exact : bool;
  narrow : bool;
}

let with_levels levels cfg =
  {
    cfg with
    target_levels = levels;
    milp = { cfg.milp with cp_target = float_of_int levels *. cfg.level_delay };
  }

let default_config =
  with_levels 6
    {
      target_levels = 6;
      level_delay = 0.7;
      max_iterations = 6;
      milp = Buffering.Formulation.default_config;
      lut_k = 6;
      routing_aware = false;
      slack_match = false;
      balance = false;
      lint_gates = true;
      tv_exact = false;
      narrow = true;
    }

type iteration = {
  it_index : int;
  model_pairs : int;
  delay_nodes : int;
  fake_nodes : int;
  proposed_buffers : int;
  kept_as_fixed : int;
  achieved_levels : int;
  milp_objective : float;
  milp_proved : bool;
  milp_phi : float;
  certified_bound : float;
}

type outcome = {
  graph : G.t;
  net : Net.t;
  lutgraph : Techmap.Lutgraph.t;
  iterations : iteration list;
  met_target : bool;
  final_levels : int;
  total_buffers : int;
  certified : Analysis.Certify.t;
  lint : Lint.Engine.report;
  lint_stages : string list;
  narrowing : Absint.Narrow.report option;
}

let opaque_spec = { G.transparent = false; slots = 2 }
let opaque = Some opaque_spec

let seed_back_edges g =
  (* the front end's explicit loop-carried channels when available; the
     generic DFS classification otherwise *)
  let back =
    match G.marked_back_edges g with [] -> A.back_edges g | marked -> marked
  in
  List.iter (fun c -> G.set_buffer g c opaque) back;
  back

(* Synthesis + mapping of an already-elaborated netlist: the expensive
   half of [synth_map], and the unit of artifact caching — keyed by the
   canonical netlist hash plus the two config fields that change the
   mapped result, so warm runs skip AIG construction and cut
   enumeration entirely (cross-iteration, cross-flavor, cross-process
   and cross-request hits all share one entry). *)
let synth_map_net cfg net =
  let synth = Techmap.Synth.run net in
  let synth = if cfg.balance then Techmap.Balance.run synth else synth in
  Techmap.Mapper.run ~k:cfg.lut_k synth

let synth_map ?(session = Session.make ()) cfg g =
  Trace.with_span "flow:synth+map" @@ fun () ->
  let cache = session.Session.cache in
  let net = Elaborate.run g in
  let lg =
    if Cache.Session.enabled cache then
      let key =
        Cache.Hash.combine
          [ Cache.Hash.netlist net; Printf.sprintf "k=%d;balance=%b" cfg.lut_k cfg.balance ]
      in
      Cache.Session.memo cache ~kind:"synthmap" ~key (fun () -> synth_map_net cfg net)
    else synth_map_net cfg net
  in
  (net, lg)

let apply_buffers base channels =
  let g = G.copy base in
  List.iter (fun c -> G.set_buffer g c opaque) channels;
  g

(* Per basic block, keep the proposed buffer with the lowest penalty:
   sparse across the circuit, minimal disruption of logic optimisation
   (§V). *)
let sparse_min_penalty_subset g (model : Timing.Model.t) proposed =
  let best = Hashtbl.create 8 in
  List.iter
    (fun cid ->
      let bb = (G.unit_node g (G.channel g cid).G.src).G.bb in
      let pen = model.Timing.Model.penalty.(cid) in
      match Hashtbl.find_opt best bb with
      | Some (_, p) when p <= pen -> ()
      | _ -> Hashtbl.replace best bb (cid, pen))
    proposed;
  Hashtbl.fold (fun _ (cid, _) acc -> cid :: acc) best [] |> List.sort compare

(* Lint gates (errors abort with [Lint.Engine.Lint_error], warnings and
   infos accumulate into the outcome's run report). Each stage of the
   flow is audited right after it produced its artefact, so a malformed
   graph or an unsound mapping is reported at its source instead of as a
   wrong frequency number three stages later. *)
type audit = {
  mutable a_report : Lint.Engine.report;
  mutable a_stages : string list;  (* reverse order of execution *)
}

let new_audit () = { a_report = Lint.Engine.empty; a_stages = [] }

let run_gate config audit ~stage check =
  if config.lint_gates then begin
    let r = Trace.with_span ~cat:"lint" ("lint:" ^ stage) check in
    audit.a_report <- Lint.Engine.merge audit.a_report (Lint.Engine.gate ~stage r);
    audit.a_stages <- stage :: audit.a_stages
  end

(* Translation-validation gates (the equiv-* rules). The signature pass
   is cheap (a few 64-lane simulation rounds per representation) and
   runs on every synthesised artefact; [tv_exact] additionally replays
   every witness through the scalar oracles. The [flow:tv] span bounds
   the whole family, so the CI budget guard can hold the validator
   under a fixed share of flow wall time. *)
let tv_gate config audit ~stage net lg =
  run_gate config audit ~stage (fun () ->
      Trace.with_span "flow:tv" (fun () ->
          Lint.Engine.check_translation ~exact:config.tv_exact ~k:config.lut_k net lg))

let refine_gate config audit ~stage ~base ~buffered ~allowed =
  run_gate config audit ~stage (fun () ->
      Trace.with_span "flow:tv" (fun () -> Lint.Engine.check_refinement ~base ~buffered ~allowed))

(* Value-range narrowing (§ the mapping-aware premise: level counts are a
   function of operator widths).  Abstract-interpretation over the seeded
   graph proves a per-channel value envelope; [Absint.Narrow] then shrinks
   widths, folds constants and deletes dead steering, and the rewritten
   graph replaces the input of every later stage.  The rewrite is
   translation-validated by random simulation ([equiv-narrow]): a mismatch
   aborts the flow — even when lint gates are off, because a failed gate
   means the optimizer changed observable behaviour. *)
let narrow_stage config audit session g =
  if not config.narrow then (g, None)
  else begin
    Session.status session "absint";
    Trace.with_span "flow:absint" @@ fun () ->
    let res = Absint.Analyze.run g in
    run_gate config audit ~stage:"range" (fun () ->
        Lint.Engine.check_ranges ~result:res g);
    let narrowed, report = Absint.Narrow.run res g in
    if Absint.Narrow.changed report then begin
      let equiv () =
        Trace.with_span "flow:tv" (fun () ->
            Lint.Engine.check_narrowing ~original:g ~variant:narrowed ())
      in
      if config.lint_gates then run_gate config audit ~stage:"tv-narrow" equiv
      else ignore (Lint.Engine.gate ~stage:"tv-narrow" (equiv ()));
      (narrowed, Some report)
    end
    else (g, Some report)
  end

let audit_placement ~cfdfcs (placement : Buffering.Formulation.placement) g =
  let candidate = apply_buffers g placement.Buffering.Formulation.new_buffers in
  let cert = Trace.with_span "flow:certify" (fun () -> Analysis.Certify.certify candidate) in
  let truncated = List.exists (fun cf -> cf.Buffering.Cfdfc.truncated) cfdfcs in
  let phi =
    List.map2
      (fun (cf : Buffering.Cfdfc.t) th -> (cf.Buffering.Cfdfc.units, th))
      cfdfcs placement.Buffering.Formulation.throughput
  in
  (candidate, cert, Lint.Engine.check_perf ~truncated ~phi cert candidate)

(* The LP-free performance oracle: right after each MILP solve, the
   candidate placement is certified and the [perf] gate compares the
   MILP's per-CFDFC throughput against the certified bound. The
   certificate itself is computed even with lint gates off — the
   outcome reports it alongside phi. The [tv-buffer] refinement gate
   runs first, on the same candidate. *)
let certify_placement config audit ~cfdfcs ~(placement : Buffering.Formulation.placement) g =
  let candidate, cert, perf = audit_placement ~cfdfcs placement g in
  refine_gate config audit ~stage:"tv-buffer" ~base:g ~buffered:candidate
    ~allowed:(List.map (fun c -> (c, opaque_spec)) placement.Buffering.Formulation.new_buffers);
  run_gate config audit ~stage:"perf" (fun () -> perf);
  (candidate, cert, List.fold_left Float.min 1. placement.Buffering.Formulation.throughput)

let iterative ?(config = default_config) ?(session = Session.make ()) input =
  Trace.with_span "flow:iterative" @@ fun () ->
  let milp_cfg = Session.milp_config session config.milp in
  let g0 = G.copy input in
  G.clear_buffers g0;
  let seeded = Trace.with_span "flow:seed" (fun () -> seed_back_edges g0) in
  ignore seeded;
  let audit = new_audit () in
  run_gate config audit ~stage:"dfg" (fun () -> Lint.Engine.check_graph g0);
  let g0, narrowing = narrow_stage config audit session g0 in
  let iterations = ref [] in
  let sorted_buffered g = List.map fst (G.buffered_channels g) |> List.sort compare in
  (* one refinement iteration; the recursion lives in [iterate] below so
     that the per-iteration trace span closes before the next iteration
     opens (a recursive span would nest every iteration under the
     previous one) *)
  let step it fixed prev =
    (* cooperative cancellation: a served request is abandoned at
       iteration boundaries (and again right before the MILP below, the
       longest single stage), never mid-solve *)
    Session.check_cancel session;
    Session.status session (Printf.sprintf "iteration %d" it);
    (* the working circuit for this iteration: base + fixed buffers *)
    let g = apply_buffers g0 fixed in
    (* When the previous iteration kept every proposed buffer, this
       iteration's circuit is exactly the candidate it already
       synthesised — reuse that netlist and mapping instead of running
       synth+map again (independent of the on-disk cache). *)
    let net, lg =
      match prev with
      | Some (prev_buffered, prev_net, prev_lg, _) when sorted_buffered g = prev_buffered ->
        Trace.add "flow.synthmap.reused" 1;
        (prev_net, prev_lg)
      | _ -> synth_map ~session config g
    in
    run_gate config audit ~stage:"netlist" (fun () -> Lint.Engine.check_netlist g net);
    (* every iteration's netlist/AIG/cover triple is validated, whether
       it came from a fresh synthesis, the previous iteration's reuse
       path, or a warm artifact-cache hit *)
    tv_gate config audit ~stage:"tv" net lg;
    (* optional routing awareness (§VI future work): fold estimated wire
       delays from a quick placement into each LUT's delay *)
    let lut_extra =
      if not config.routing_aware then fun _ -> 0.
      else begin
        let pl =
          Trace.with_span ~cat:"placeroute" "flow:routing-est" (fun () ->
              Placeroute.Place.run ~seed:7 ~effort:0.3 net lg)
        in
        let max_in = Array.make (Techmap.Lutgraph.n_luts lg) 0. in
        List.iter
          (fun { Techmap.Lutgraph.e_src; e_dst } ->
            match e_dst with
            | Techmap.Lutgraph.Lut l ->
              let d =
                Placeroute.Arch.wire_delay
                  (Placeroute.Place.distance pl
                     (Placeroute.Place.item_of_endpoint e_src)
                     (Placeroute.Place.item_of_endpoint e_dst))
              in
              if d > max_in.(l) then max_in.(l) <- d
            | Techmap.Lutgraph.Seq _ -> ())
          lg.Techmap.Lutgraph.edges;
        fun l -> max_in.(l)
      end
    in
    let tg, model =
      Trace.with_span "flow:model" (fun () ->
          Timing.Mapping_aware.build_with_graph ~lut_delay:config.level_delay ~lut_extra g ~net lg)
    in
    run_gate config audit ~stage:"lut-mapping" (fun () ->
        Lint.Engine.check_mapping g lg tg model);
    let cfdfcs = Buffering.Cfdfc.extract g in
    (* the previous iteration's placement seeds this iteration's MILP
       incumbent (once the flow converges the seed is already optimal
       and branch & bound terminates on the certified bound) *)
    let milp_warm = match prev with Some (_, _, _, w) -> Some w | None -> None in
    Session.check_cancel session;
    Session.status session "milp";
    match
      Trace.with_span "flow:milp" (fun () ->
          Buffering.Formulation.solve ~cache:session.Session.cache ?warm:milp_warm milp_cfg g
            model cfdfcs)
    with
    | Error msg -> failwith ("Flow.iterative: " ^ msg)
    | Ok placement ->
      run_gate config audit ~stage:"milp" (fun () ->
          Lint.Engine.check_milp ~cp_target:config.milp.Buffering.Formulation.cp_target
            ~buffered:placement.Buffering.Formulation.all_buffered model
            placement.Buffering.Formulation.lp placement.Buffering.Formulation.solution);
      let candidate, cert, milp_phi = certify_placement config audit ~cfdfcs ~placement g in
      let cand_net, cand_lg = synth_map ~session config candidate in
      let achieved = cand_lg.Techmap.Lutgraph.max_level in
      let met = achieved <= config.target_levels in
      let last = it >= config.max_iterations in
      let kept =
        if met || last then []
        else sparse_min_penalty_subset g model placement.Buffering.Formulation.new_buffers
      in
      iterations :=
        {
          it_index = it;
          model_pairs = List.length model.Timing.Model.pairs;
          delay_nodes = model.Timing.Model.delay_nodes;
          fake_nodes = model.Timing.Model.fake_nodes;
          proposed_buffers = List.length placement.Buffering.Formulation.new_buffers;
          kept_as_fixed = List.length kept;
          achieved_levels = achieved;
          milp_objective = placement.Buffering.Formulation.objective;
          milp_proved = placement.Buffering.Formulation.proved_optimal;
          milp_phi;
          certified_bound = cert.Analysis.Certify.throughput;
        }
        :: !iterations;
      if met || last then begin
        (* Slack matching changes the elaborated netlist (transparent
           buffers are real hardware), so it must land before the final
           synthesis whose level count and mapping the outcome reports —
           otherwise [final_levels] and the measured circuit disagree. *)
        let cand_net, cand_lg =
          if config.slack_match then begin
            let before = G.copy candidate in
            let pads =
              Trace.with_span "flow:slack" (fun () -> Buffering.Slack.compute candidate)
            in
            if pads = [] then (cand_net, cand_lg)
            else begin
              let allowed =
                List.map (fun (cid, slots) -> (cid, { G.transparent = true; slots })) pads
              in
              List.iter (fun (cid, spec) -> G.set_buffer candidate cid (Some spec)) allowed;
              refine_gate config audit ~stage:"tv-slack" ~base:before ~buffered:candidate
                ~allowed;
              synth_map ~session config candidate
            end
          end
          else (cand_net, cand_lg)
        in
        tv_gate config audit ~stage:"tv-final" cand_net cand_lg;
        let final_levels = cand_lg.Techmap.Lutgraph.max_level in
        run_gate config audit ~stage:"final-dfg" (fun () ->
            Lint.Engine.check_graph candidate);
        `Done
          {
            graph = candidate;
            net = cand_net;
            lutgraph = cand_lg;
            iterations = List.rev !iterations;
            met_target = final_levels <= config.target_levels;
            final_levels;
            total_buffers = List.length (G.buffered_channels candidate);
            (* slack matching only adds transparent capacity, which
               cannot lower the bound or break liveness, so the
               pre-slack certificate stays valid for the final graph *)
            certified = cert;
            lint = audit.a_report;
            lint_stages = List.rev audit.a_stages;
            narrowing;
          }
      end
      else
        `Continue
          ( List.sort_uniq compare (fixed @ kept),
            Some
              ( sorted_buffered candidate,
                cand_net,
                cand_lg,
                placement.Buffering.Formulation.all_buffered ) )
  in
  let rec iterate it fixed prev =
    match Trace.with_span "flow:iteration" (fun () -> step it fixed prev) with
    | `Done outcome -> outcome
    | `Continue (fixed', prev') -> iterate (it + 1) fixed' prev'
  in
  iterate 1 [] None

let baseline ?(config = default_config) ?(session = Session.make ()) input =
  Trace.with_span "flow:baseline" @@ fun () ->
  let g = G.copy input in
  G.clear_buffers g;
  let _ = Trace.with_span "flow:seed" (fun () -> seed_back_edges g) in
  let audit = new_audit () in
  run_gate config audit ~stage:"dfg" (fun () -> Lint.Engine.check_graph g);
  let g, narrowing = narrow_stage config audit session g in
  Session.check_cancel session;
  Session.status session "model";
  let model =
    Trace.with_span "flow:model" (fun () ->
        Timing.Precharacterized.build ~cache:session.Session.cache g)
  in
  let cfdfcs = Buffering.Cfdfc.extract g in
  let milp =
    Session.milp_config session { config.milp with Buffering.Formulation.use_penalty = false }
  in
  Session.check_cancel session;
  Session.status session "milp";
  match
    Trace.with_span "flow:milp" (fun () ->
        Buffering.Formulation.solve ~cache:session.Session.cache milp g model cfdfcs)
  with
  | Error msg -> failwith ("Flow.baseline: " ^ msg)
  | Ok placement ->
    run_gate config audit ~stage:"milp" (fun () ->
        Lint.Engine.check_milp ~cp_target:milp.Buffering.Formulation.cp_target
          ~buffered:placement.Buffering.Formulation.all_buffered model
          placement.Buffering.Formulation.lp placement.Buffering.Formulation.solution);
    let final, cert, milp_phi = certify_placement config audit ~cfdfcs ~placement g in
    let final_net, final_lg = synth_map ~session config final in
    (* the baseline synthesises once, at the end: its single tv gate
       validates that final netlist/AIG/cover triple *)
    tv_gate config audit ~stage:"tv" final_net final_lg;
    let achieved = final_lg.Techmap.Lutgraph.max_level in
    (* the same closing gate the iterative flow runs: both flavors audit
       their result graph, not just their inputs and MILP artefacts *)
    run_gate config audit ~stage:"final-dfg" (fun () -> Lint.Engine.check_graph final);
    {
      graph = final;
      net = final_net;
      lutgraph = final_lg;
      iterations =
        [
          {
            it_index = 1;
            model_pairs = List.length model.Timing.Model.pairs;
            delay_nodes = 0;
            fake_nodes = 0;
            proposed_buffers = List.length placement.Buffering.Formulation.new_buffers;
            kept_as_fixed = 0;
            achieved_levels = achieved;
            milp_objective = placement.Buffering.Formulation.objective;
            milp_proved = placement.Buffering.Formulation.proved_optimal;
            milp_phi;
            certified_bound = cert.Analysis.Certify.throughput;
          };
        ];
      met_target = achieved <= config.target_levels;
      final_levels = achieved;
      total_buffers = List.length (G.buffered_channels final);
      certified = cert;
      lint = audit.a_report;
      lint_stages = List.rev audit.a_stages;
      narrowing;
    }
