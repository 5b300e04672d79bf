type severity = Error | Warning | Info

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

type location =
  | Unit of int
  | Channel of int
  | Lut of int
  | Gate of int
  | Milp_row of int
  | Milp_var of int
  | Timing_node of int
  | Whole

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
  extra : (string * string) list;
}

let make ?(extra = []) ~rule ~severity ~loc message = { rule; severity; loc; message; extra }

let location_parts = function
  | Unit i -> ("unit", Some i)
  | Channel i -> ("channel", Some i)
  | Lut i -> ("lut", Some i)
  | Gate i -> ("gate", Some i)
  | Milp_row i -> ("milp-row", Some i)
  | Milp_var i -> ("milp-var", Some i)
  | Timing_node i -> ("timing-node", Some i)
  | Whole -> ("whole", None)

let pp_location fmt loc =
  match location_parts loc with
  | kind, Some i -> Fmt.pf fmt "%s %d" kind i
  | kind, None -> Fmt.string fmt kind

let pp fmt d =
  Fmt.pf fmt "%-7s %s @@ %a: %s" (severity_name d.severity) d.rule pp_location d.loc d.message

module J = Support.Json

let to_json d =
  let kind, id = location_parts d.loc in
  let id = match id with Some i -> [ ("id", J.Num (float_of_int i)) ] | None -> [] in
  J.Obj
    ([
       ("rule", J.Str d.rule);
       ("severity", J.Str (severity_name d.severity));
       ("loc", J.Obj (("kind", J.Str kind) :: id));
       ("message", J.Str d.message);
     ]
    @ List.map (fun (k, v) -> (k, J.Str v)) d.extra)
