(** The mapping-agnostic baseline timing model (the "Prev." flow of the
    paper's Table I, i.e., Dynamatic's FPL'22 model).

    Each dataflow unit is characterised {e in isolation}: it is placed
    between opaque buffers (so its logic sits between registers), run
    through the same synthesis + LUT mapping as the full circuit, and its
    level count is taken as its delay (levels ×
    {!Techmap.Lutgraph.level_delay}). The full-circuit
    timing model then assumes that every path through a unit costs the
    unit's whole characterised delay — ignoring all cross-unit logic
    simplification, which is precisely the conservatism the paper
    attacks. All penalties are zero (Eq. 1 objective). *)

val unit_delay :
  ?cache:Cache.Session.t -> Dataflow.Graph.t -> Dataflow.Graph.unit_id -> float
(** Characterised delay of one unit, memoized by its kind, width and
    port-width signature in the session's artifact cache (default
    {!Cache.Session.disabled}: characterised on every call). There is no
    process-wide table: a disabled session is genuinely cold, and the
    result is a function of the signature alone. *)

val build : ?cache:Cache.Session.t -> Dataflow.Graph.t -> Model.t
(** The whole-circuit baseline model, every unit's delay looked up
    through {!unit_delay} with the same [cache]. Units that share a
    signature inside the graph are characterised once per call. *)
