(** Lint rule descriptions.

    Rules are identified by a stable kebab-case id ([dfg-comb-cycle],
    [milp-row-violated], …), grouped by the analysis target they inspect,
    and carry a default severity plus a one-line description. Each rule
    module ({!Dfg_rules}, {!Range_rules}, {!Net_rules}, {!Lut_rules},
    {!Milp_rules}, {!Perf_rules}, {!Equiv_rules}) exports its rules as a
    [rules] list; {!Engine.catalogue} is their sorted union. *)

type target =
  | Dfg          (** dataflow-graph structure *)
  | Range        (** abstract-interpretation value/width analysis (Absint) *)
  | Netlist      (** elaborated gate-level netlist *)
  | Lut_mapping  (** LUT-to-DFG mapping + timing model (§IV) *)
  | Milp         (** MILP solution certificate *)
  | Perf         (** throughput & liveness certificate vs. the MILP's claims *)
  | Tv           (** translation validation: stage-by-stage equivalence *)

val target_name : target -> string

type info = {
  id : string;
  target : target;
  severity : Diagnostic.severity;  (** default severity of this rule's findings *)
  doc : string;                    (** one-line description for the catalogue *)
}

val diag : info -> loc:Diagnostic.location -> ('a, Format.formatter, unit, Diagnostic.t) format4 -> 'a
(** [diag r ~loc fmt …] builds a {!Diagnostic.t} for rule [r] at its
    default severity with an [Fmt]-formatted message. *)

val pp_info : Format.formatter -> info -> unit
