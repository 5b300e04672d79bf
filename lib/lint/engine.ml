module D = Diagnostic
module J = Support.Json

type report = {
  diagnostics : D.t list;
  errors : int;
  warnings : int;
  infos : int;
}

exception Lint_error of report

let empty = { diagnostics = []; errors = 0; warnings = 0; infos = 0 }

let of_diagnostics ds =
  let count sev = List.length (List.filter (fun d -> d.D.severity = sev) ds) in
  {
    diagnostics = ds;
    errors = count D.Error;
    warnings = count D.Warning;
    infos = count D.Info;
  }

let merge a b =
  {
    diagnostics = a.diagnostics @ b.diagnostics;
    errors = a.errors + b.errors;
    warnings = a.warnings + b.warnings;
    infos = a.infos + b.infos;
  }

let ok r = r.errors = 0
let clean r = r.errors = 0 && r.warnings = 0

let gate ~stage r =
  if ok r then r
  else
    raise
      (Lint_error
         (of_diagnostics
            (List.map
               (fun d -> { d with D.message = Printf.sprintf "[%s] %s" stage d.D.message })
               r.diagnostics)))

let check_graph ?stage g = of_diagnostics (Dfg_rules.check ?stage g)
let check_ranges ?result g = of_diagnostics (Range_rules.check ?result g)

let check_narrowing ~original ~variant =
  of_diagnostics (Range_rules.check_narrowing ~original ~variant)

let check_netlist g net = of_diagnostics (Net_rules.check g net)

let check_mapping g lg tg model =
  of_diagnostics (Lut_rules.check g lg tg model @ Perf_rules.check_domains g tg)

let check_milp ~cp_target ~buffered model lp x =
  of_diagnostics (Milp_rules.check ~cp_target ~buffered model lp x)

let check_perf ?truncated ~phi cert g =
  of_diagnostics (Perf_rules.check ?truncated ~phi cert g)

let check_translation net lg = of_diagnostics (fst (Equiv_rules.check_translation net lg))

let check_refinement ~base ~buffered ~allowed =
  of_diagnostics (Equiv_rules.check_refinement ~base ~buffered ~allowed)

let pp_report fmt r =
  if r.diagnostics = [] then Fmt.pf fmt "lint: clean"
  else begin
    Fmt.pf fmt "lint: %d error(s), %d warning(s), %d info(s)" r.errors r.warnings r.infos;
    List.iter (fun d -> Fmt.pf fmt "@\n  %a" D.pp d) r.diagnostics
  end

let report_to_json ?label r =
  let int i = J.Num (float_of_int i) in
  J.Obj
    ((match label with Some l -> [ ("label", J.Str l) ] | None -> [])
    @ [
        ("errors", int r.errors);
        ("warnings", int r.warnings);
        ("infos", int r.infos);
        ("diagnostics", J.Arr (List.map D.to_json r.diagnostics));
      ])

(* target order is the constructor order of [Rule.target] *)
let catalogue =
  List.concat
    [
      Dfg_rules.rules;
      Range_rules.rules;
      Net_rules.rules;
      Lut_rules.rules;
      Milp_rules.rules;
      Perf_rules.rules;
      Equiv_rules.rules;
    ]
  |> List.sort (fun (a : Rule.info) b -> compare (a.target, a.id) (b.target, b.id))

let pp_catalogue fmt () = List.iter (fun r -> Fmt.pf fmt "%a@\n" Rule.pp_info r) catalogue
