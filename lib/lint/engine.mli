(** The lint driver: runs rule groups over flow artefacts, aggregates
    structured reports, and renders them for humans ([Fmt]) or machines
    (JSON).

    The flow ({!module:Core.Flow} once wired) uses the [check_*]
    functions as pre/post-stage gates: a report containing errors aborts
    the run ({!Lint_error}); warnings and infos ride along in the run
    report. *)

type report = {
  diagnostics : Diagnostic.t list;  (** in emission order *)
  errors : int;
  warnings : int;
  infos : int;
}

exception Lint_error of report
(** Raised by {!gate} when a report contains at least one error. *)

val empty : report
val of_diagnostics : Diagnostic.t list -> report
val merge : report -> report -> report
val ok : report -> bool
(** No errors (warnings and infos allowed). *)

val clean : report -> bool
(** No errors and no warnings. *)

val gate : stage:string -> report -> report
(** Identity when {!ok}; raises {!Lint_error} otherwise, with the stage
    name prefixed to the report's diagnostics for context. *)

(** {2 Stage checkers} *)

val check_graph : ?stage:Dfg_rules.stage -> Dataflow.Graph.t -> report

val check_ranges : ?result:Absint.Analyze.result -> Dataflow.Graph.t -> report
(** The [range-*] family over the abstract-interpretation value analysis;
    runs the analysis when no [result] is supplied.  See
    {!Range_rules.check}. *)

val check_narrowing : original:Dataflow.Graph.t -> variant:Dataflow.Graph.t -> report
(** Random-simulation equivalence of a graph and its narrowed rewrite;
    mismatches are [equiv-narrow] errors.  See
    {!Range_rules.check_narrowing}. *)

val check_netlist : Dataflow.Graph.t -> Net.t -> report

val check_mapping :
  Dataflow.Graph.t -> Techmap.Lutgraph.t -> Timing.Lut_map.t -> Timing.Model.t -> report
(** {!Lut_rules.check} plus the §IV-D domain discipline of
    {!Perf_rules.check_domains}. *)

val check_milp :
  cp_target:float ->
  buffered:Dataflow.Graph.channel_id list ->
  Timing.Model.t ->
  Milp.Lp.t ->
  float array ->
  report

val check_perf :
  ?truncated:bool ->
  phi:(Dataflow.Graph.unit_id list * float) list ->
  Analysis.Certify.t ->
  Dataflow.Graph.t ->
  report
(** The MILP's throughput claims vs. the independent certificate; see
    {!Perf_rules.check}. *)

val check_translation : Net.t -> Techmap.Lutgraph.t -> report
(** The translation validator's equivalence and label/domain soundness
    passes over a synthesised + mapped circuit; see
    {!Equiv_rules.check_translation}. *)

val check_refinement :
  base:Dataflow.Graph.t ->
  buffered:Dataflow.Graph.t ->
  allowed:(Dataflow.Graph.channel_id * Dataflow.Graph.buffer_spec) list ->
  report
(** The buffer-insertion refinement pass; see
    {!Equiv_rules.check_refinement}. *)

(** {2 Rendering} *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : ?label:string -> report -> Support.Json.t
(** One JSON object; [label] (e.g. the kernel name) is included when
    given. *)

val catalogue : Rule.info list
(** Every rule of the seven rule modules, sorted by target (in the
    constructor order of {!Rule.target}) then id. *)

val pp_catalogue : Format.formatter -> unit -> unit
