module G = Dataflow.Graph
module A = Dataflow.Analysis
module Trace = Support.Trace

type config = {
  target_levels : int;
  max_iterations : int;
  milp : Buffering.Formulation.config;
  routing_aware : bool;
  slack_match : bool;
  balance : bool;
  narrow : bool;
}

let with_levels levels cfg =
  {
    cfg with
    target_levels = levels;
    milp = { cfg.milp with cp_target = float_of_int levels *. Techmap.Lutgraph.level_delay };
  }

let default_config =
  with_levels 6
    {
      target_levels = 6;
      max_iterations = 6;
      milp = Buffering.Formulation.default_config;
      routing_aware = false;
      slack_match = false;
      balance = false;
      narrow = true;
    }

type flavor = [ `Iterative | `Baseline ]

let flavors = [ ("iterative", `Iterative); ("baseline", `Baseline) ]
let flavor_name = function `Iterative -> "iterative" | `Baseline -> "baseline"

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
  synth_key : string option;
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
  let back = A.loop_back_edges g in
  List.iter (fun c -> G.set_buffer g c opaque) back;
  back

(* Synthesis + mapping of an already-elaborated netlist: the expensive
   half of [synth_map], and the unit of artifact caching — keyed by the
   canonical netlist hash plus the LUT size and the balance switch, so
   warm runs skip AIG construction and cut enumeration entirely
   (cross-iteration, cross-flavor, cross-process and cross-request hits
   all share one entry). *)
let synth_map_net cfg net =
  let synth = Techmap.Synth.run net in
  let synth = if cfg.balance then Techmap.Balance.run synth else synth in
  Techmap.Mapper.run synth

(* [synth_map], plus the key it memoised under ([None] without a cache):
   the flows keep their final synthesis's key in the outcome. *)
let synthesize ?(session = Session.make ()) cfg g =
  Trace.with_span "flow:synth+map" @@ fun () ->
  let cache = session.Session.cache in
  let net = Elaborate.run g in
  if Cache.Session.enabled cache then
    let key =
      Cache.Hash.combine
        [
          Cache.Hash.netlist net;
          Printf.sprintf "k=%d;balance=%b" Techmap.Lutgraph.lut_k cfg.balance;
        ]
    in
    (net, Cache.Session.memo cache ~kind:"synthmap" ~key (fun () -> synth_map_net cfg net), Some key)
  else (net, synth_map_net cfg net, None)

let synth_map ?session cfg g =
  let net, lg, _ = synthesize ?session cfg g in
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

let run_gate audit ~stage check =
  let r = Trace.with_span ~cat:"lint" ("lint:" ^ stage) check in
  audit.a_report <- Lint.Engine.merge audit.a_report (Lint.Engine.gate ~stage r);
  audit.a_stages <- stage :: audit.a_stages

(* Translation-validation gates (the equiv-* rules). The signature pass
   is cheap and runs on every synthesised artefact: four 64-lane word
   rounds over the netlist, the AIG and the cover, where each LUT's
   truth table is read off its cone in one word pass ([Techmap.Truth])
   and applied to its leaf words as a mux tree ([Tv.Equiv]). The
   [flow:tv] span bounds the whole family, so the CI budget guard can
   hold the validator under a fixed share of flow wall time. *)
let tv_gate audit ~stage net lg =
  run_gate audit ~stage (fun () ->
      Trace.with_span "flow:tv" (fun () -> Lint.Engine.check_translation net lg))

let refine_gate audit ~stage ~base ~buffered ~allowed =
  run_gate audit ~stage (fun () ->
      Trace.with_span "flow:tv" (fun () -> Lint.Engine.check_refinement ~base ~buffered ~allowed))

(* Value-range narrowing (§ the mapping-aware premise: level counts are a
   function of operator widths).  Abstract-interpretation over the seeded
   graph proves a per-channel value envelope; [Absint.Narrow] then shrinks
   unit widths to it, and the narrowed graph replaces the input of every
   later stage.  The narrowing is translation-validated by random
   simulation ([equiv-narrow]): a mismatch aborts the flow, because it
   means the optimizer changed observable behaviour. *)
let narrow_stage config audit session g =
  if not config.narrow then (g, None)
  else begin
    Session.status session "absint";
    Trace.with_span "flow:absint" @@ fun () ->
    let res = Absint.Analyze.run g in
    run_gate audit ~stage:"range" (fun () -> Lint.Engine.check_ranges ~result:res g);
    let narrowed, report = Absint.Narrow.run res g in
    if Absint.Narrow.changed report then begin
      run_gate audit ~stage:"tv-narrow" (fun () ->
          Trace.with_span "flow:tv" (fun () ->
              Lint.Engine.check_narrowing ~original:g ~variant:narrowed));
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

(* ------------------------------------------------------------------ *)
(* The stages both flavors are assembled from. None of them knows which
   flavor called it: the flavors differ only in their timing model, the
   penalty switch of the MILP objective and the refinement loop. *)

(* Prepare: a private copy of the input with only the back-edge buffers,
   audited and (optionally) narrowed. *)
let prepare config audit session input =
  let g = G.copy input in
  G.clear_buffers g;
  ignore (Trace.with_span "flow:seed" (fun () -> seed_back_edges g));
  run_gate audit ~stage:"dfg" (fun () -> Lint.Engine.check_graph g);
  narrow_stage config audit session g

exception Milp_failed of string * Buffering.Formulation.failure

let milp_failed_message name failure =
  name ^ ": " ^ Buffering.Formulation.failure_message failure

(* Solve and audit: one MILP solve (a cancellation point: it is the
   longest single stage, never interrupted mid-solve), its [milp] gate,
   then the LP-free performance oracle — the candidate placement is
   certified, the [tv-buffer] refinement gate checks it and the [perf]
   gate compares the MILP's per-CFDFC throughput against the certified
   bound. Returns the placement, the candidate graph, its certificate
   and the MILP's own throughput claim phi. *)
let solve_and_audit ~name audit session ?warm milp g model cfdfcs =
  Session.check_cancel session;
  Session.status session "milp";
  match
    Trace.with_span "flow:milp" (fun () ->
        Buffering.Formulation.solve ~cache:session.Session.cache ?warm milp g model cfdfcs)
  with
  | Error failure -> raise (Milp_failed (name, failure))
  | Ok placement ->
    let open Buffering.Formulation in
    run_gate audit ~stage:"milp" (fun () ->
        Lint.Engine.check_milp ~cp_target:milp.cp_target ~buffered:placement.all_buffered model
          placement.lp placement.solution);
    let candidate, cert, perf = audit_placement ~cfdfcs placement g in
    refine_gate audit ~stage:"tv-buffer" ~base:g ~buffered:candidate
      ~allowed:(List.map (fun c -> (c, opaque_spec)) placement.new_buffers);
    run_gate audit ~stage:"perf" (fun () -> perf);
    (placement, candidate, cert, List.fold_left Float.min 1. placement.throughput)

let iteration ~it ~(model : Timing.Model.t) ~(placement : Buffering.Formulation.placement)
    ~(cert : Analysis.Certify.t) ~phi ~achieved ~kept =
  {
    it_index = it;
    model_pairs = List.length model.Timing.Model.pairs;
    delay_nodes = model.Timing.Model.delay_nodes;
    fake_nodes = model.Timing.Model.fake_nodes;
    proposed_buffers = List.length placement.Buffering.Formulation.new_buffers;
    kept_as_fixed = kept;
    achieved_levels = achieved;
    milp_objective = placement.Buffering.Formulation.objective;
    milp_proved = placement.Buffering.Formulation.proved_optimal;
    milp_phi = phi;
    certified_bound = cert.Analysis.Certify.throughput;
  }

(* Finish: validate the final synthesis ([tv_stage] names the gate),
   audit the result graph, and record the outcome. *)
let finish config audit ~tv_stage ~narrowing ~iterations ~cert graph (net, lg, synth_key) =
  tv_gate audit ~stage:tv_stage net lg;
  let final_levels = lg.Techmap.Lutgraph.max_level in
  run_gate audit ~stage:"final-dfg" (fun () -> Lint.Engine.check_graph graph);
  {
    graph;
    net;
    lutgraph = lg;
    synth_key;
    iterations;
    met_target = final_levels <= config.target_levels;
    final_levels;
    total_buffers = List.length (G.buffered_channels graph);
    certified = cert;
    lint = audit.a_report;
    lint_stages = List.rev audit.a_stages;
    narrowing;
  }

(* ------------------------------------------------------------------ *)
(* The two flavors *)

(* Optional routing awareness (§VI future work): fold estimated wire
   delays from a quick placement into each LUT's delay. *)
let routing_extra net lg =
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

(* Slack matching changes the elaborated netlist (transparent buffers are
   real hardware), so it must land before the final synthesis whose level
   count and mapping the outcome reports — otherwise [final_levels] and
   the measured circuit disagree. Mutates [candidate]. *)
let slack_match ~session config audit candidate synthesized =
  let before = G.copy candidate in
  let pads = Trace.with_span "flow:slack" (fun () -> Buffering.Slack.compute candidate) in
  if pads = [] then synthesized
  else begin
    let allowed = List.map (fun (cid, slots) -> (cid, { G.transparent = true; slots })) pads in
    List.iter (fun (cid, spec) -> G.set_buffer candidate cid (Some spec)) allowed;
    refine_gate audit ~stage:"tv-slack" ~base:before ~buffered:candidate ~allowed;
    synthesize ~session config candidate
  end

let iterative ?(config = default_config) ?(session = Session.make ()) input =
  Trace.with_span "flow:iterative" @@ fun () ->
  let milp = Session.milp_config session config.milp in
  let audit = new_audit () in
  let g0, narrowing = prepare config audit session input in
  let iterations = ref [] in
  (* one refinement iteration; the recursion lives in [iterate] below so
     that the per-iteration trace span closes before the next iteration
     opens (a recursive span would nest every iteration under the
     previous one) *)
  let step it fixed warm =
    (* cooperative cancellation: a served request is abandoned at
       iteration boundaries (and again right before the MILP), never
       mid-solve *)
    Session.check_cancel session;
    Session.status session (Printf.sprintf "iteration %d" it);
    (* the working circuit for this iteration: base + fixed buffers *)
    let g = apply_buffers g0 fixed in
    let net, lg = synth_map ~session config g in
    run_gate audit ~stage:"netlist" (fun () -> Lint.Engine.check_netlist g net);
    (* every iteration's netlist/AIG/cover triple is validated, whether
       it came from a fresh synthesis or a warm artifact-cache hit *)
    tv_gate audit ~stage:"tv" net lg;
    let lut_extra = if config.routing_aware then routing_extra net lg else fun _ -> 0. in
    let tg, model =
      Trace.with_span "flow:model" (fun () ->
          Timing.Mapping_aware.build_with_graph ~lut_extra g ~net lg)
    in
    run_gate audit ~stage:"lut-mapping" (fun () -> Lint.Engine.check_mapping g lg tg model);
    let cfdfcs = Buffering.Cfdfc.extract g in
    (* the previous iteration's placement seeds this iteration's MILP
       incumbent (once the flow converges the seed is already optimal
       and branch & bound terminates on the certified bound) *)
    let placement, candidate, cert, phi =
      solve_and_audit ~name:"Flow.iterative" audit session ?warm milp g model cfdfcs
    in
    let ((_, cand_lg, _) as synthesized) = synthesize ~session config candidate in
    let achieved = cand_lg.Techmap.Lutgraph.max_level in
    let stop = achieved <= config.target_levels || it >= config.max_iterations in
    let kept =
      if stop then [] else sparse_min_penalty_subset g model placement.Buffering.Formulation.new_buffers
    in
    iterations :=
      iteration ~it ~model ~placement ~cert ~phi ~achieved ~kept:(List.length kept) :: !iterations;
    if stop then
      let final =
        if config.slack_match then slack_match ~session config audit candidate synthesized
        else synthesized
      in
      (* slack matching only adds transparent capacity, which cannot
         lower the bound or break liveness, so the pre-slack certificate
         stays valid for the final graph *)
      `Done
        (finish config audit ~tv_stage:"tv-final" ~narrowing ~iterations:(List.rev !iterations)
           ~cert candidate final)
    else
      `Continue
        (List.sort_uniq compare (fixed @ kept), Some placement.Buffering.Formulation.all_buffered)
  in
  let rec iterate it fixed warm =
    match Trace.with_span "flow:iteration" (fun () -> step it fixed warm) with
    | `Done outcome -> outcome
    | `Continue (fixed', warm') -> iterate (it + 1) fixed' warm'
  in
  iterate 1 [] None

let baseline ?(config = default_config) ?(session = Session.make ()) input =
  Trace.with_span "flow:baseline" @@ fun () ->
  let milp =
    Session.milp_config session { config.milp with Buffering.Formulation.use_penalty = false }
  in
  let audit = new_audit () in
  let g, narrowing = prepare config audit session input in
  Session.check_cancel session;
  Session.status session "model";
  let model =
    Trace.with_span "flow:model" (fun () ->
        Timing.Precharacterized.build ~cache:session.Session.cache g)
  in
  let cfdfcs = Buffering.Cfdfc.extract g in
  let placement, final, cert, phi =
    solve_and_audit ~name:"Flow.baseline" audit session milp g model cfdfcs
  in
  (* the baseline synthesises once, at the end: its single tv gate
     validates that final netlist/AIG/cover triple *)
  let ((_, lg, _) as synthesized) = synthesize ~session config final in
  let achieved = lg.Techmap.Lutgraph.max_level in
  finish config audit ~tv_stage:"tv" ~narrowing
    ~iterations:[ iteration ~it:1 ~model ~placement ~cert ~phi ~achieved ~kept:0 ]
    ~cert final synthesized

let run ?config ?session = function
  | `Iterative -> iterative ?config ?session
  | `Baseline -> baseline ?config ?session

(* A canonical, byte-comparable rendering of everything a flow run
   decides: the buffered circuit itself (canonical DFG hash) plus every
   per-iteration number the flow reported. *)
let summary o =
  let b = Buffer.create 256 in
  Printf.bprintf b "dfg=%s\nlevels=%d met=%b buffers=%d cert=%.9f live=%b\n"
    (Cache.Hash.dfg o.graph) o.final_levels o.met_target o.total_buffers
    o.certified.Analysis.Certify.throughput o.certified.Analysis.Certify.live;
  List.iter
    (fun it ->
      Printf.bprintf b "it%d: phi=%.9f obj=%.9f bound=%.9f levels=%d proposed=%d kept=%d\n"
        it.it_index it.milp_phi it.milp_objective it.certified_bound it.achieved_levels
        it.proposed_buffers it.kept_as_fixed)
    o.iterations;
  Buffer.contents b
