(** Verified narrowing: shrink each unit of a DFG to the width its output
    envelope, proven by {!Analyze}, needs.  The result has the input's
    units, channels, ids, labels, back-edge marks and buffer annotations;
    only widths change ([Const] values are masked to their unit's width).
    A diverged analysis yields an unchanged copy.  Constant steering is
    left in place and reported by the [range-dead-branch] lint.

    A sound width shrink preserves token values and per-channel token
    order; the flow additionally gates the result behind random-simulation
    equivalence (see [Lint.Engine.check_narrowing]), so a transfer-function
    bug aborts the flow instead of shipping a wrong circuit. *)

type entry = {
  nr_uid : Dataflow.Graph.unit_id;
  nr_label : string;
  nr_old_width : int;
  nr_new_width : int;
  nr_range : string;  (** printed abstract value of the unit's output *)
}

type report = {
  r_narrowed : entry list;
  r_bits_before : int;  (** total channel bits *)
  r_bits_after : int;
  r_diverged : bool;
}

val changed : report -> bool
(** Some unit's width shrank. *)

val run : Analyze.result -> Dataflow.Graph.t -> Dataflow.Graph.t * report
(** [run res g] where [res = Analyze.run g]. *)

val pp_report : Format.formatter -> report -> unit
(** A channel-bits summary line, then one line per narrowed unit; no
    trailing newline. *)
