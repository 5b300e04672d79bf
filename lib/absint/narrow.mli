(** Verified narrowing: rewrite a DFG down to the envelope proven by
    {!Analyze} — shrink unit widths, fold constant operators, collapse
    branches/muxes with proven-constant steering, and delete units that
    provably never fire.  The pass rebuilds the graph (unit and channel ids
    are renumbered); kept channels retain their buffer annotations and
    back-edge marks.  A diverged analysis yields an unchanged copy.

    The rewrites preserve token values and per-channel token order; the
    flow additionally gates the result behind random-simulation
    equivalence (see [Lint.Engine.check_narrowing]), so a transfer-function
    bug aborts the flow instead of shipping a wrong circuit. *)

type entry = {
  nr_uid : Dataflow.Graph.unit_id;  (** uid in the original graph *)
  nr_label : string;
  nr_old_width : int;
  nr_new_width : int;
  nr_range : string;  (** printed abstract value of the unit's output *)
}

type report = {
  r_narrowed : entry list;
  r_folded : (Dataflow.Graph.unit_id * string * int) list;
      (** operators folded to constants: uid, label, value *)
  r_rewired : (Dataflow.Graph.unit_id * string * string) list;
      (** branch/mux/cmerge specialisations: uid, label, description *)
  r_deleted : (Dataflow.Graph.unit_id * string) list;
  r_bits_before : int;  (** total channel bits *)
  r_bits_after : int;
  r_units_before : int;
  r_units_after : int;
  r_diverged : bool;
}

val changed : report -> bool

val run : Analyze.result -> Dataflow.Graph.t -> Dataflow.Graph.t * report
(** [run res g] where [res = Analyze.run g].  Raises [Failure] if the
    rebuilt graph fails [Graph.validate] (an internal invariant bug, never
    expected on a valid input graph). *)

val pp_report : Format.formatter -> report -> unit
(** A summary line, then one line per narrowed, folded, rewired and
    deleted unit (in that order); no trailing newline. *)
