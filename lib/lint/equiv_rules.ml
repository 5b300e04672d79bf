(* The equiv-* rule family: translation-validation findings rendered as
   structured lint diagnostics. The analysis itself lives in [Tv]
   (Equiv/Labels/Refine); this module owns the rule ids, severities and
   messages, and adapts Tv's typed violations to [Diagnostic.t]. *)

let aig_mismatch =
  {
    Rule.id = "equiv-aig-mismatch";
    target = Rule.Tv;
    severity = Diagnostic.Error;
    doc = "netlist and rewritten AIG must compute the same function at every combinational output";
  }

let cover_mismatch =
  {
    Rule.id = "equiv-cover-mismatch";
    target = Rule.Tv;
    severity = Diagnostic.Error;
    doc = "the K-feasible LUT cover must implement the AIG function (per LUT and per output)";
  }

let label_unsound =
  {
    Rule.id = "equiv-label-unsound";
    target = Rule.Tv;
    severity = Diagnostic.Error;
    doc = "a LUT's unit label must name a unit contributing gates to its input cone";
  }

let domain_inconsistent =
  {
    Rule.id = "equiv-domain-inconsistent";
    target = Rule.Tv;
    severity = Diagnostic.Error;
    doc = "a LUT's timing domain must be the join of its cone gates' domains";
  }

let buffer_nonrefinement =
  {
    Rule.id = "equiv-buffer-nonrefinement";
    target = Rule.Tv;
    severity = Diagnostic.Error;
    doc = "buffer insertion may only add the selected buffers with the selected slot counts";
  }

let rules =
  [ aig_mismatch; cover_mismatch; label_unsound; domain_inconsistent; buffer_nonrefinement ]

let dom_name = function
  | Net.Data -> "data"
  | Net.Valid -> "valid"
  | Net.Ready -> "ready"
  | Net.Mixed -> "mixed"

(* Passes 1 + 2 over a synthesised/mapped circuit. Returns the
   diagnostics together with the raw equivalence result so callers (the
   [regulate tv] CLI) can report signatures and counts without running
   the simulation twice. *)
let check_translation net lg =
  let r = Tv.Equiv.run net lg in
  let equiv_ds =
    List.map
      (function
        | Tv.Equiv.Aig_mismatch { co; tag; _ } ->
          Rule.diag aig_mismatch ~loc:(Diagnostic.Gate tag)
            "netlist and AIG disagree at combinational output %d (netlist gate %d)" co tag
        | Tv.Equiv.Cover_mismatch { lut; _ } ->
          Rule.diag cover_mismatch ~loc:(Diagnostic.Lut lut)
            "LUT %d's output disagrees with its AIG root function (leaves agree)" lut
        | Tv.Equiv.Cover_co_mismatch { co; tag; _ } ->
          Rule.diag cover_mismatch ~loc:(Diagnostic.Gate tag)
            "LUT cover and netlist disagree at combinational output %d (netlist gate %d)" co tag
        | Tv.Equiv.Cover_structural { lut; reason } ->
          Rule.diag cover_mismatch ~loc:(Diagnostic.Lut lut) "LUT %d cover is malformed: %s" lut
            reason)
      r.Tv.Equiv.mismatches
  in
  let label_ds =
    List.map
      (function
        | Tv.Labels.Owner_unsound { lut; owner; cone_units } ->
          Rule.diag label_unsound ~loc:(Diagnostic.Lut lut)
            "LUT %d is labelled with unit %d, which contributes no gates to its cone (cone units: %s)"
            lut owner
            (String.concat "," (List.map string_of_int cone_units))
        | Tv.Labels.Domain_inconsistent { lut; dom; expect } ->
          Rule.diag domain_inconsistent ~loc:(Diagnostic.Lut lut)
            "LUT %d carries timing domain %s but its cone joins to %s" lut (dom_name dom)
            (dom_name expect))
      (Tv.Labels.check lg)
  in
  (equiv_ds @ label_ds, r)

(* Pass 3 over a buffered DFG. *)
let check_refinement ~base ~buffered ~allowed =
  List.map
    (function
      | Tv.Refine.Shape_changed { detail } ->
        Rule.diag buffer_nonrefinement ~loc:Diagnostic.Whole
          "buffered graph is not a refinement of its input: %s" detail
      | Tv.Refine.Buffer_added { channel; spec } ->
        Rule.diag buffer_nonrefinement ~loc:(Diagnostic.Channel channel)
          "channel %d grew a buffer (%s) that no selection asked for" channel
          (Tv.Refine.spec_str spec)
      | Tv.Refine.Buffer_removed { channel } ->
        Rule.diag buffer_nonrefinement ~loc:(Diagnostic.Channel channel)
          "channel %d lost its selected buffer" channel
      | Tv.Refine.Buffer_mismatch { channel; got; want } ->
        Rule.diag buffer_nonrefinement ~loc:(Diagnostic.Channel channel)
          "channel %d's buffer is %s but the selection asked for %s" channel
          (Tv.Refine.spec_str got) (Tv.Refine.spec_str want))
    (Tv.Refine.check ~base ~buffered ~allowed)
