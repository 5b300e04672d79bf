(** Whole-graph abstract interpretation over the token-carrying DFG.

    Maps every channel to a {!Value.t} over-approximating the data values of
    all tokens it ever carries, for any memory contents.  Worklist fixpoint
    with widening after a per-channel update budget, a global evaluation cap
    (divergence backstop), and two descending refinement passes.  Branch
    outputs are refined by tracing the condition to a comparison on the
    branch's own data value (through Fork/Buffer/Join/And/Or). *)

type result = {
  values : Value.t array;  (** indexed by channel id *)
  diverged : bool;
      (** the evaluation cap was hit; all values fell back to top *)
  evals : int;
}

val run : Dataflow.Graph.t -> result
(** Buffers and back-edge marks are irrelevant to the result, so the graph
    does not need seeded buffers.  A channel widens after 16 updates, and
    the run gives up (diverges) after [512 * (n_units + 1)] unit
    evaluations. *)

val value : result -> Dataflow.Graph.channel_id -> Value.t

val cond_cases : Value.t -> bool * bool
(** Possible outcomes of a Branch condition test ([value land 1]):
    [(can_be_true, can_be_false)]. *)

val mux_arms : sel:Value.t -> arms:int -> int list
(** Data arms a Mux with [arms] data inputs can select given the selector
    abstraction ([k = sel mod arms]). *)
