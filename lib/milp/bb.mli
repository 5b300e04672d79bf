(** Branch & bound over the simplex relaxation: the MILP solver proper.

    Best-first search on the relaxation bound, branching on the most
    fractional integer variable. Child nodes warm-start the revised
    simplex from their parent's final basis (only bounds differ between
    parent and child, so {!Simplex}'s phase 1 typically needs a handful
    of pivots rather than a cold two-phase run). An optional LP-free
    certified bound fathoms subtrees without solving their relaxations
    and stops the search as soon as the incumbent provably matches the
    certified optimum. Two primal heuristics (a warm-started root dive
    and per-node simple rounding) find strong incumbents long before
    best-first order would reach an integral vertex.

    Emits [milp.bb.nodes], [milp.lp.relaxations] and
    [milp.bb.fathomed_by_cert] {!Support.Trace} counters. *)

type result =
  | Optimal of { obj : float; x : float array; proved_optimal : bool; nodes : int }
  | Infeasible
  | Unbounded
  | Exhausted
      (** The node or time budget ran out before any integer-feasible
          point was found. Distinct from [Infeasible]: the model may
          well have solutions, the search just never reached one.
          (Budget exhaustion {e with} an incumbent still returns
          [Optimal] with [proved_optimal = false].) *)

val solve :
  ?node_limit:int ->
  ?time_limit:float ->
  ?initial:float array ->
  ?warm:Simplex.basis ->
  ?cert_bound:((int * float * float) list -> float) ->
  Lp.t ->
  result
(** Integrality tolerance [1e-6].  Defaults: [node_limit = 50_000],
    [time_limit = 120.] seconds (wall clock; on expiry the incumbent is
    returned with [proved_optimal = false], mirroring a solver time
    limit). [initial], when feasible and integral, seeds the incumbent
    so the search starts with a pruning bound. [warm] seeds the root
    relaxation's basis (e.g. from the previous flow iteration's solve of
    the structurally identical model). [cert_bound fixes] must return a
    {e sound} bound on the objective of any feasible point inside the
    node box described by [fixes] (an upper bound when maximising, lower
    when minimising): nodes whose certified bound cannot beat the
    incumbent are fathomed without an LP solve, and the search stops
    early once the incumbent reaches the certified root bound. The
    returned incumbent has its integer variables rounded exactly, its
    objective re-evaluated at the rounded point, and falls back to the
    unrounded (LP-feasible) point if rounding broke a constraint. *)
