(** Lint rules backed by the abstract-interpretation value analysis
    ({!Absint}): the [range-*] family plus the [equiv-narrow] gate on the
    narrowing rewrite.

    - [range-overflow-possible] (warning): an Add/Sub/Mul/Shl result can
      exceed the unit width and wraps modulo [2^w];
    - [range-dead-branch] (warning): a branch condition or mux selector is
      provably constant, so one side never fires;
    - [range-width-excess] (info): a unit is wider than its proven value
      envelope;
    - [range-analysis-diverged] (warning): the interpreter hit its
      evaluation budget and no range facts are available;
    - [equiv-narrow] (error): random-simulation mismatch between a graph
      and its narrowed rewrite.

    Interval-carrying findings put the printed abstract value under the
    ["interval"] key of {!Diagnostic.t.extra}. *)

val rules : Rule.info list

val check : ?result:Absint.Analyze.result -> Dataflow.Graph.t -> Diagnostic.t list
(** Runs the analysis when no [result] is supplied. *)

val check_narrowing :
  original:Dataflow.Graph.t -> variant:Dataflow.Graph.t -> Diagnostic.t list
(** Random-simulation equivalence via {!Tv.Simdiff}; every mismatch is an
    [equiv-narrow] error. *)
