(* Lint rules backed by the abstract-interpretation value analysis
   ({!Absint}): wrap-possible arithmetic, provably-constant steering,
   width excess against the proven envelope, and the equivalence gate on
   the narrowing rewrite itself. *)

module D = Diagnostic
module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops
module V = Absint.Value

let r_overflow =
  {
    Rule.id = "range-overflow-possible";
    target = Rule.Range;
    (* wrap modulo 2^w is the datapath's defined semantics (the reference
       interpreter wraps identically), so a provably-wrappable accumulator
       is a heads-up, not a correctness warning *)
    severity = D.Info;
    doc = "an arithmetic result can exceed the unit width and wraps modulo 2^w";
  }

let r_dead =
  {
    Rule.id = "range-dead-branch";
    target = Rule.Range;
    severity = D.Warning;
    doc = "a branch condition or mux selector is provably constant; one side never fires";
  }

let r_excess =
  {
    Rule.id = "range-width-excess";
    target = Rule.Range;
    severity = D.Info;
    doc = "a unit is wider than its proven value envelope; narrowing would shrink it";
  }

let r_diverged =
  {
    Rule.id = "range-analysis-diverged";
    target = Rule.Range;
    severity = D.Warning;
    doc = "the abstract interpreter hit its evaluation budget; ranges fell back to top";
  }

let r_equiv =
  {
    Rule.id = "equiv-narrow";
    target = Rule.Tv;
    severity = D.Error;
    doc = "the narrowed circuit must be simulation-equivalent to the original";
  }

let rules = [ r_overflow; r_dead; r_excess; r_diverged; r_equiv ]

let unit_desc g u =
  let n = G.unit_node g u in
  if n.G.label = "" then Printf.sprintf "%s#%d" (K.name n.G.kind) u
  else Printf.sprintf "%s#%d (%s)" (K.name n.G.kind) u n.G.label

let with_interval rule ?width v ~loc fmt =
  Format.kasprintf
    (fun message ->
      D.make
        ~extra:[ ("interval", V.to_string ?width v) ]
        ~rule:rule.Rule.id ~severity:rule.Rule.severity ~loc message)
    fmt

let check ?result g =
  let res = match result with Some r -> r | None -> Absint.Analyze.run g in
  if res.Absint.Analyze.diverged then
    [
      Rule.diag r_diverged ~loc:D.Whole
        "abstract interpretation gave up after %d evaluations; no range facts available"
        res.Absint.Analyze.evals;
    ]
  else begin
    let acc = ref [] in
    let val_of cid = Absint.Analyze.value res cid in
    let in_vals (n : G.node) =
      Array.to_list n.G.ins
      |> List.map (function Some cid -> val_of cid | None -> V.Bot)
    in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        let loc = D.Unit u in
        let out0 = match n.G.outs with [||] -> None | outs -> outs.(0) in
        (match n.G.kind with
        | K.Operator { op; _ } ->
            let ins = in_vals n in
            if Absint.Transfer.may_wrap ~width:n.G.width op ins then
              let ov = match out0 with Some cid -> val_of cid | None -> V.top n.G.width in
              acc :=
                with_interval r_overflow ~width:n.G.width ov ~loc
                  "%s: %s result can exceed %d bits (wraps)" (unit_desc g u)
                  (Ops.name op) n.G.width
                :: !acc
        | K.Branch -> (
            let ins = in_vals n in
            match ins with
            | [ va; vc ] when not (V.is_bot va || V.is_bot vc) -> (
                match Absint.Analyze.cond_cases vc with
                | true, false | false, true ->
                    let always = match Absint.Analyze.cond_cases vc with true, false -> "true" | _ -> "false" in
                    acc :=
                      with_interval r_dead ~width:2 vc ~loc
                        "%s: condition is always %s; the %s output never fires"
                        (unit_desc g u) always
                        (if always = "true" then "false" else "true")
                      :: !acc
                | _ -> ())
            | _ -> ())
        | K.Mux arms -> (
            let sel = match n.G.ins.(0) with Some cid -> val_of cid | None -> V.Bot in
            if not (V.is_bot sel) then
              match Absint.Analyze.mux_arms ~sel ~arms with
              | [ k ] when arms > 1 ->
                  acc :=
                    with_interval r_dead ~width:n.G.width sel ~loc
                      "%s: selector always picks arm %d of %d" (unit_desc g u) k arms
                    :: !acc
              | _ -> ())
        | _ -> ());
        (* width excess against the proven envelope *)
        match n.G.kind with
        | K.Entry | K.Source | K.Load _ | K.Store _ -> ()
        | _ ->
            if n.G.width >= 1 && n.G.width < 62 && Array.length n.G.outs > 0 then begin
              let needed = ref 0 and live = ref false in
              Array.iter
                (function
                  | Some cid ->
                      let v = val_of cid in
                      if not (V.is_bot v) then begin
                        live := true;
                        needed := max !needed (V.needed_width n.G.width v)
                      end
                  | None -> ())
                n.G.outs;
              (* narrowing clamps to >= 1 bit, so needed 0 at width 1 is
                 not actionable *)
              let needed = max 1 !needed in
              if !live && needed < n.G.width then
                let v = match out0 with Some cid -> val_of cid | None -> V.Bot in
                acc :=
                  with_interval r_excess ~width:n.G.width v ~loc
                    "%s: %d bits suffice for the proven envelope (has %d)"
                    (unit_desc g u) needed n.G.width
                  :: !acc
            end);
    List.rev !acc
  end

(* The translation-validation gate on the narrowing rewrite: random
   simulation of both variants on shared memories.  Any mismatch is an
   error — the flows abort rather than ship the rewritten circuit. *)
let check_narrowing ~original ~variant =
  Tv.Simdiff.check ~original ~variant ()
  |> List.map (fun msg -> Rule.diag r_equiv ~loc:D.Whole "%s" msg)
