(** Structured lint diagnostics.

    Every finding carries the id of the rule that produced it, a severity,
    a location inside the artefact being checked (a dataflow unit, a
    channel, a LUT, a netlist gate, an MILP row or variable, a timing-graph
    node — or the whole artefact), and a human-readable message. Rendering
    goes through [Fmt]; a machine-readable JSON form is provided for the
    [regulate lint --json] output mode. *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type location =
  | Unit of int          (** dataflow unit id *)
  | Channel of int       (** dataflow channel id *)
  | Lut of int           (** mapped LUT id *)
  | Gate of int          (** netlist gate id *)
  | Milp_row of int      (** constraint row index of the LP *)
  | Milp_var of int      (** variable index of the LP *)
  | Timing_node of int   (** node id of the node-level timing graph *)
  | Whole                (** the artefact as a whole *)

type t = {
  rule : string;         (** id of the rule that fired *)
  severity : severity;
  loc : location;
  message : string;
  extra : (string * string) list;
      (** machine-readable key/value payload carried into the JSON form
          (e.g. the inferred interval behind a range-* finding) *)
}

val make :
  ?extra:(string * string) list ->
  rule:string -> severity:severity -> loc:location -> string -> t

val pp_location : location Fmt.t
val pp : t Fmt.t
(** [rule-id severity @ location: message] on one line. *)

val to_json : t -> Support.Json.t
(** One JSON object: [{"rule":…,"severity":…,"loc":{"kind":…,"id":…},"message":…}]
    plus one string member per [extra] pair. *)
