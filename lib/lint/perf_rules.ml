module G = Dataflow.Graph
module LM = Timing.Lut_map
module C = Analysis.Certify
module D = Diagnostic

let r_phi =
  {
    Rule.id = "perf-phi-overclaimed";
    target = Rule.Perf;
    severity = D.Error;
    doc = "MILP throughput must not exceed the certified min-cycle-ratio bound";
  }

let r_comb =
  {
    Rule.id = "perf-comb-loop";
    target = Rule.Perf;
    severity = D.Error;
    doc = "every cycle must carry sequential latency (an opaque buffer or pipelined unit)";
  }

let r_deadlock =
  {
    Rule.id = "perf-deadlock";
    target = Rule.Perf;
    severity = D.Error;
    doc = "every cycle must keep a free slot beyond its tokens, else no transfer can fire";
  }

let r_truncated =
  {
    Rule.id = "perf-cycle-limit-truncated";
    target = Rule.Perf;
    severity = D.Warning;
    doc = "cycle enumeration hit its cap: the MILP's cycle constraints may under-cover";
  }

let r_karp =
  {
    Rule.id = "perf-karp-disagrees";
    target = Rule.Perf;
    severity = D.Error;
    doc = "Howard's and Karp's min cycle ratio must agree (certifier self-check)";
  }

let r_crossing =
  {
    Rule.id = "perf-domain-crossing";
    target = Rule.Lut_mapping;
    severity = D.Error;
    doc = "artificial domain-crossing pivots only at FPL'22 interaction units (SIV-D)";
  }

let r_uncovered =
  {
    Rule.id = "perf-delay-uncovered";
    target = Rule.Lut_mapping;
    severity = D.Warning;
    doc = "every real LUT delay node must lie on a launch-to-capture path";
  }

let rules = [ r_phi; r_comb; r_deadlock; r_truncated; r_karp; r_crossing; r_uncovered ]

let cycle_loc cy = match cy.C.cy_channels with c :: _ -> D.Channel c | [] -> D.Whole

(* absorbs LP arithmetic noise in a claimed throughput *)
let eps = 1e-4

let check ?(truncated = false) ~phi cert g =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  if truncated then
    emit
      (Rule.diag r_truncated ~loc:D.Whole
         "simple-cycle enumeration was truncated: MILP cycle-legality rows may miss cycles \
          (the certifier's SCC-local analysis above is still exhaustive)");
  (* liveness, with the offending cycle as witness *)
  List.iter
    (fun s ->
      List.iter
        (fun v ->
          match v with
          | C.Comb_loop cy ->
            emit
              (Rule.diag r_comb ~loc:(cycle_loc cy) "combinational loop: %a"
                 (C.pp_cycle g) cy)
          | C.Deadlock cy ->
            emit
              (Rule.diag r_deadlock ~loc:(cycle_loc cy)
                 "token deadlock: %d token(s) fill the cycle's capacity %d on %a"
                 cy.C.cy_tokens cy.C.cy_capacity (C.pp_cycle g) cy))
        s.C.sc_violations)
    cert.C.sccs;
  (* MILP phi vs certified bound, SCCs matched by their unit sets *)
  let key units = List.fold_left min max_int units in
  let claimed = Hashtbl.create 8 in
  List.iter (fun (units, th) -> Hashtbl.replace claimed (key units) (units, th)) phi;
  List.iter
    (fun s ->
      match Hashtbl.find_opt claimed (key s.C.sc_units) with
      | None -> ()
      | Some (units, th) ->
        if th > s.C.sc_bound +. eps then
          emit
            (Rule.diag r_phi
               ~loc:(match units with u :: _ -> D.Unit u | [] -> D.Whole)
               "MILP claims throughput %.4f for the %d-unit CFDFC, but the certified bound \
                is %.4f%s"
               th (List.length units) s.C.sc_bound
               (match s.C.sc_critical with
               | Some cy ->
                 Format.asprintf " (limiting cycle: %a)" (C.pp_cycle g) cy
               | None -> "")))
    cert.C.sccs;
  (* certifier self-check: the two independent solvers must agree *)
  List.iter
    (fun s ->
      match s.C.sc_karp with
      | Some k when Float.abs (k -. s.C.sc_ratio) > 1e-9 ->
        emit
          (Rule.diag r_karp
             ~loc:(match s.C.sc_units with u :: _ -> D.Unit u | [] -> D.Whole)
             "Howard computed cycle ratio %.9f but Karp computed %.9f for the %d-unit SCC"
             s.C.sc_ratio k (List.length s.C.sc_units))
      | _ -> ())
    cert.C.sccs;
  List.rev !acc

let check_domains g (tg : LM.t) =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  let interaction = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace interaction u ()) (Elaborate.interaction_units g);
  let n = Array.length tg.LM.kinds in
  let is_fwd i = match tg.LM.kinds.(i) with LM.Cross_fwd _ -> true | _ -> false in
  let is_bwd i = match tg.LM.kinds.(i) with LM.Cross_bwd _ -> true | _ -> false in
  Array.iteri
    (fun i k ->
      match k with
      | LM.Delay { fake = true; unit_id; _ }
        when List.exists is_fwd tg.LM.preds.(i) && List.exists is_bwd tg.LM.succs.(i) ->
        (* the SIV-D pivot: a forward (data/valid) path turns into a
           backward (ready) path inside this unit *)
        if unit_id < 0 || unit_id >= G.n_units g then
          emit
            (Rule.diag r_crossing ~loc:(D.Timing_node i)
               "domain-crossing pivot node %d is attributed to unit %d, out of range" i
               unit_id)
        else if not (Hashtbl.mem interaction unit_id) then
          emit
            (Rule.diag r_crossing ~loc:(D.Timing_node i)
               "domain-crossing pivot node %d sits in u%d(%a), which is not an FPL'22 \
                interaction unit"
               i unit_id Dataflow.Unit_kind.pp (G.unit_node g unit_id).G.kind)
      | _ -> ())
    tg.LM.kinds;
  (* every real delay node must be constrained by some launch->capture
     path, else its LUT's delay silently drops out of the model *)
  let reach_from root step =
    let seen = Array.make n false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter dfs (step i)
      end
    in
    dfs root;
    seen
  in
  let fwd = reach_from tg.LM.launch (fun i -> tg.LM.succs.(i)) in
  let bwd = reach_from tg.LM.capture (fun i -> tg.LM.preds.(i)) in
  Array.iteri
    (fun i k ->
      match k with
      | LM.Delay { fake = false; unit_id; delay } when not (fwd.(i) && bwd.(i)) ->
        emit
          (Rule.diag r_uncovered ~loc:(D.Timing_node i)
             "real delay node %d (unit %d, %.2f ns) lies on no launch-to-capture path" i
             unit_id delay)
      | _ -> ())
    tg.LM.kinds;
  List.rev !acc
