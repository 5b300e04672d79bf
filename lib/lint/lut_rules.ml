module G = Dataflow.Graph
module L = Techmap.Lutgraph
module LM = Timing.Lut_map
module D = Diagnostic

let r_owner_invalid =
  {
    Rule.id = "lut-owner-invalid";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "every LUT must be labelled with a live unit of the graph";
  }

let r_owner_undet =
  {
    Rule.id = "lut-owner-undetermined";
    target = Rule.Lut_mapping;
    severity = D.Info;
    doc = "a LUT without an owner cannot contribute to any unit's penalty";
  }

let r_unmapped =
  {
    Rule.id = "lut-unmapped-edges";
    target = Rule.Lut_mapping;
    severity = D.Info;
    doc = "LUT edges with no DFG path are kept as explicitly artificial edges";
  }

let r_fake_accounting =
  {
    Rule.id = "lut-fake-accounting";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "n_real/n_fake must match the delay nodes present (one real node per LUT)";
  }

let r_cross_buffered =
  {
    Rule.id = "lut-cross-buffered";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "no mapped path may traverse an opaque-buffered channel";
  }

let r_timing_cycle =
  {
    Rule.id = "lut-timing-cycle";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "the node-level timing graph must be acyclic";
  }

let r_penalty =
  {
    Rule.id = "lut-penalty-range";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "every channel penalty must be finite and within [0, 1]";
  }

let rules =
  [
    r_owner_invalid;
    r_owner_undet;
    r_unmapped;
    r_fake_accounting;
    r_cross_buffered;
    r_timing_cycle;
    r_penalty;
  ]

let check g (lg : L.t) (tg : LM.t) (model : Timing.Model.t) =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  let n_units = G.n_units g in
  (* ---- LUT labels ---- *)
  Array.iter
    (fun (l : L.lut) ->
      if l.L.owner = -1 then
        emit
          (Rule.diag r_owner_undet ~loc:(D.Lut l.L.lid)
             "LUT %d (cone of %d nodes) has no determined owner" l.L.lid l.L.cone_size)
      else if l.L.owner < -1 || l.L.owner >= n_units then
        emit
          (Rule.diag r_owner_invalid ~loc:(D.Lut l.L.lid)
             "LUT %d is labelled with unit %d, but %s has only %d units" l.L.lid l.L.owner
             (G.name g) n_units))
    lg.L.luts;
  (* ---- fake/real node accounting ---- *)
  let real = ref 0 and fake = ref 0 in
  Array.iter
    (fun k ->
      match k with
      | LM.Delay { fake = false; _ } -> incr real
      | LM.Delay { fake = true; _ } -> incr fake
      | _ -> ())
    tg.LM.kinds;
  if tg.LM.n_real < 0 || tg.LM.n_fake < 0 || tg.LM.n_unmapped_edges < 0 then
    emit
      (Rule.diag r_fake_accounting ~loc:D.Whole
         "negative node accounting: n_real=%d n_fake=%d n_unmapped=%d" tg.LM.n_real
         tg.LM.n_fake tg.LM.n_unmapped_edges)
  else begin
    if tg.LM.n_real <> !real || tg.LM.n_fake <> !fake then
      emit
        (Rule.diag r_fake_accounting ~loc:D.Whole
           "counters claim %d real / %d fake delay nodes, graph holds %d / %d" tg.LM.n_real
           tg.LM.n_fake !real !fake);
    if tg.LM.n_real < Array.length lg.L.luts then
      emit
        (Rule.diag r_fake_accounting ~loc:D.Whole
           "%d LUTs mapped but only %d real delay nodes (every LUT must own one)"
           (Array.length lg.L.luts) tg.LM.n_real)
  end;
  if tg.LM.n_unmapped_edges > 0 then
    emit
      (Rule.diag r_unmapped ~loc:D.Whole
         "%d LUT edge(s) had no DFG path and were kept as direct artificial edges"
         tg.LM.n_unmapped_edges);
  (* ---- crossing nodes vs buffers ---- *)
  let n_channels = G.n_channels g in
  Array.iteri
    (fun i k ->
      match k with
      | LM.Cross_fwd c | LM.Cross_bwd c ->
        if c < 0 || c >= n_channels then
          emit
            (Rule.diag r_cross_buffered ~loc:(D.Timing_node i)
               "crossing node %d references channel %d, out of range" i c)
        else (
          match G.buffer g c with
          | Some { G.transparent = false; _ } ->
            let ch = G.channel g c in
            emit
              (Rule.diag r_cross_buffered ~loc:(D.Timing_node i)
                 "crossing node %d traverses opaque-buffered channel %d (%d -> %d)" i c
                 ch.G.src ch.G.dst)
          | _ -> ())
      | _ -> ())
    tg.LM.kinds;
  (* ---- acyclicity of the timing graph (Kahn peeling) ---- *)
  (match Support.Digraph.topo tg.LM.succs with
  | _, [] -> ()
  | _, (witness :: _ as rest) ->
    (* the unpeeled nodes lie on or downstream of a cycle; report the
       lowest-numbered one *)
    emit
      (Rule.diag r_timing_cycle ~loc:(D.Timing_node witness)
         "timing graph has a cycle (%d of %d nodes lie on or behind it)" (List.length rest)
         (Array.length tg.LM.kinds)));
  (* ---- penalty range (Eq. 2) ---- *)
  if Array.length model.Timing.Model.penalty <> n_channels then
    emit
      (Rule.diag r_penalty ~loc:D.Whole "penalty array has %d entries for %d channels"
         (Array.length model.Timing.Model.penalty) n_channels)
  else
    Array.iteri
      (fun c p ->
        if Float.is_nan p || p < 0. || p > 1. then
          emit
            (Rule.diag r_penalty ~loc:(D.Channel c) "penalty(%d) = %g is outside [0, 1]" c p))
      model.Timing.Model.penalty;
  List.rev !acc
