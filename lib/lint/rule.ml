type target = Dfg | Range | Netlist | Lut_mapping | Milp | Perf | Tv

let target_name = function
  | Dfg -> "dfg"
  | Range -> "range"
  | Netlist -> "netlist"
  | Lut_mapping -> "lut-mapping"
  | Milp -> "milp"
  | Perf -> "perf"
  | Tv -> "tv"

type info = {
  id : string;
  target : target;
  severity : Diagnostic.severity;
  doc : string;
}

let diag r ~loc fmt =
  Format.kasprintf
    (fun message -> Diagnostic.make ~rule:r.id ~severity:r.severity ~loc message)
    fmt

let pp_info fmt r =
  Fmt.pf fmt "%-24s %-11s %-7s %s" r.id (target_name r.target)
    (Diagnostic.severity_name r.severity) r.doc
