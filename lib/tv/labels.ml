(* Pass 2 of the translation validator: label & domain soundness of the
   LUT cover. The penalty term of Eq. 3 divides |X_fake(c)| by |X(c)|
   per unit, so a LUT attributed to a unit that contributed no gates to
   its cone, or tagged with the wrong timing domain, silently corrupts
   the MILP objective. The check recomputes each LUT's cone with an
   independent walk (same cut semantics as the mapper: stop at leaves
   and at constant node 0) and compares the recorded owner and domain
   against what the cone actually contains. *)

module L = Techmap.Lutgraph
module Aig = Techmap.Aig
module Synth = Techmap.Synth

type violation =
  | Owner_unsound of { lut : int; owner : int; cone_units : int list }
  | Domain_inconsistent of { lut : int; dom : Net.domain; expect : Net.domain }

let cone aig (l : L.lut) =
  let visited = Hashtbl.create 16 in
  let acc = ref [] in
  let rec walk u =
    if (not (Hashtbl.mem visited u)) && (not (Array.exists (Int.equal u) l.L.leaves)) && u <> 0
    then begin
      Hashtbl.replace visited u ();
      acc := u :: !acc;
      if not (Aig.is_ci aig u) then begin
        let f0, f1 = Aig.fanins aig u in
        walk (Aig.node_of_lit f0);
        walk (Aig.node_of_lit f1)
      end
    end
  in
  walk l.L.root;
  !acc

let cone_units aig nodes =
  List.map (fun u -> Aig.owner aig u) nodes |> List.sort_uniq compare

let cone_dom aig nodes =
  match nodes with
  | [] -> Net.Data
  | first :: rest ->
    List.fold_left
      (fun d u ->
        let du = Aig.dom aig u in
        if d = du then d else Net.Mixed)
      (Aig.dom aig first) rest

let check (lg : L.t) =
  Support.Trace.with_span ~cat:"tv" "tv:labels" @@ fun () ->
  let aig = lg.L.synth.Synth.aig in
  let violations = ref [] in
  Array.iter
    (fun (l : L.lut) ->
      let nodes = cone aig l in
      (* owner -1 means "undetermined" and is audited elsewhere
         ([lut-owner-undetermined]); a concrete owner must be a unit
         that actually contributed at least one cone node *)
      if l.L.owner >= 0 && not (List.exists (fun u -> Aig.owner aig u = l.L.owner) nodes) then
        violations :=
          Owner_unsound { lut = l.L.lid; owner = l.L.owner; cone_units = cone_units aig nodes }
          :: !violations;
      let expect = cone_dom aig nodes in
      if l.L.dom <> expect then
        violations := Domain_inconsistent { lut = l.L.lid; dom = l.L.dom; expect } :: !violations)
    lg.L.luts;
  let vs = List.rev !violations in
  Support.Trace.add "tv.label.violations" (List.length vs);
  vs
