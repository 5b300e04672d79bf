(** The buffer-placement MILP (Eq. 1 / Eq. 3 of the paper).

    Given a timing model (mapping-aware or pre-characterised), the MILP
    decides a binary [R_c] per channel:

    - {b clock-period constraints}: per-channel arrival-time variables;
      a delay pair [s -> t] contributes [a_t >= a_s + d - CP*R_s] and
      [a_t >= d]; capture pairs bound arrivals by [CP];
    - {b throughput}: per CFDFC, the fluid-retiming marked-graph model
      with McCormick linearisation of the [Θ·R_c] product — telescoping
      around any cycle yields the classical bound
      [Θ <= tokens(C) / (latency(C) + buffers(C))];
    - {b legality}: every enumerated cycle keeps at least one opaque
      buffer (no combinational cycles);
    - {b objective} (Eq. 3): [max α·ΣΘ − β·Σ R_c·(1 + penalty(c))]; with
      [use_penalty = false] this degenerates to Eq. 1 (the baseline).

    Channels already buffered in the graph are fixed at [R_c = 1] (the
    iterative flow's "predefined buffers are fixed; new buffers can be
    freely added"). *)

type config = {
  cp_target : float;    (** ns; the paper uses 6 levels x 0.7 = 4.2 *)
  alpha : float;
  beta : float;
  use_penalty : bool;
  node_limit : int;     (** branch & bound node budget *)
  time_limit : float;
      (** branch & bound wall-clock budget, seconds (default 120; the
          [regulate serve] admission control narrows it per request) *)
}

val default_config : config

type placement = {
  new_buffers : Dataflow.Graph.channel_id list;  (** channels to newly buffer *)
  all_buffered : Dataflow.Graph.channel_id list; (** including pre-existing *)
  throughput : float list;                       (** per CFDFC *)
  objective : float;
  proved_optimal : bool;
  unfixable_paths : int;  (** delay pairs no buffering can fix (> CP inside a segment) *)
  milp_vars : int;
  milp_constrs : int;
  lp : Milp.Lp.t;         (** the solved model, kept as a certificate… *)
  solution : float array; (** …together with the raw assignment, so the
                              lint layer can re-check every row instead of
                              trusting the solver *)
}

val solve :
  ?cache:Cache.Session.t ->
  ?warm:Dataflow.Graph.channel_id list ->
  config ->
  Dataflow.Graph.t ->
  Timing.Model.t ->
  Cfdfc.t list ->
  (placement, string) result
(** [cache] is the session whose artifact store memoizes the solved
    assignment (default {!Cache.Session.disabled}: solve in place).
    [warm] is the previous flow iteration's [all_buffered] placement: it
    is re-priced under the current model (every listed [R_c] pinned to
    1, the rest to 0, one warm-started LP over the continuous variables)
    and, when feasible, seeds branch & bound's incumbent in place of the
    rounding heuristic. The branch & bound additionally fathoms nodes
    against an LP-free certified objective ceiling built from Howard's
    minimum cycle ratio per CFDFC ({!Analysis.Cycle_ratio}), and
    reports [Bb.Exhausted] budget exhaustion as a distinct error. *)
