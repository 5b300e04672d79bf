(** The paper's primary contribution: iterative, mapping-aware frequency
    regulation (Figure 4, §V), plus the one-shot mapping-agnostic
    baseline it is compared against (§VI-A).

    Both flavors are assembled from the same stages, none of which knows
    which flavor called it:
    + {e prepare}: copy the input, clear its buffers, seed opaque buffers
      on all loop back edges, run the [dfg] gate and the value-range
      narrowing stage;
    + {e solve and audit}: solve the buffer-placement MILP (a solve
      without a placement raises {!Milp_failed}), run the [milp] gate,
      then certify the candidate placement (the [tv-buffer] and [perf]
      gates);
    + {e finish}: translation-validate the final synthesis, run the
      [final-dfg] gate and record the {!outcome}.

    The flavors differ only where the paper says they do: the timing
    model, the penalty term of the MILP objective, and the loop.

    Iterative flow: synthesise and LUT-map the circuit, build the
    mapping-aware timing model and channel penalties, solve the MILP with
    the penalty (Eq. 3), re-synthesise with the chosen buffers and
    measure logic levels. If the target is met (or iterations are
    exhausted) stop; otherwise keep a sparse subset of the found buffers
    — per basic block, the one with the lowest penalty — as additional
    fixed buffers and repeat.

    Baseline flow: build the pre-characterised model, solve the same MILP
    once without penalties (Eq. 1), synthesise the result, done.

    Every stage is audited by a {!module:Lint} gate: errors abort the run
    with {!Lint.Engine.Lint_error}, warnings and infos are collected into
    {!outcome.lint}. *)

type config = {
  target_levels : int;      (** the paper targets 6 *)
  max_iterations : int;
  milp : Buffering.Formulation.config;
  routing_aware : bool;
      (** fold placement-estimated wire delays into the timing model (the
          §VI future-work enhancement; off in the paper's configuration) *)
  slack_match : bool;
      (** pad reconvergent paths with transparent capacity after buffer
          placement (the FPGA'20 sizing companion; off by default) *)
  balance : bool;
      (** run the depth-reducing AND re-association pass before LUT
          mapping (ABC's [balance]; off to match the paper's `if -K 6`
          only run) *)
  narrow : bool;
      (** run the abstract-interpretation value analysis and the verified
          narrowing rewrite ({!module:Absint}) on the seeded graph before
          synthesis (on by default; the [--no-narrow] CLI escape hatch).
          The rewrite is always gated by random-simulation equivalence
          ([equiv-narrow]): a mismatch aborts the flow *)
}

val default_config : config
(** The paper's configuration: [with_levels 6], six iterations, narrowing
    on. Flows always map to 6-LUTs and always run every gate. *)

val with_levels : int -> config -> config
(** [with_levels n cfg] targets [n] logic levels: it sets
    [target_levels = n] and the MILP clock-period target
    [milp.cp_target] to [n] times {!Techmap.Lutgraph.level_delay}. Every
    CLI and the serve daemon derive a level target through this one
    function. *)

type flavor = [ `Iterative | `Baseline ]

val flavors : (string * flavor) list
(** Every flavor by its command-line and protocol name, iterative first. *)

val flavor_name : flavor -> string
(** ["iterative"] or ["baseline"]. *)

type iteration = {
  it_index : int;
  model_pairs : int;
  delay_nodes : int;
  fake_nodes : int;
  proposed_buffers : int;
  kept_as_fixed : int;      (** buffers promoted to the fixed set after this iteration *)
  achieved_levels : int;    (** post-synthesis levels with this iteration's buffers *)
  milp_objective : float;
  milp_proved : bool;
  milp_phi : float;
      (** the MILP's own throughput claim: min over its per-CFDFC
          [theta]s (1.0 for an acyclic circuit) *)
  certified_bound : float;
      (** the LP-free certified throughput bound of this iteration's
          candidate placement ({!Analysis.Certify}); the [perf] gate
          enforces [milp_phi <= certified_bound + eps] *)
}

type outcome = {
  graph : Dataflow.Graph.t;     (** final buffered circuit *)
  net : Net.t;
      (** elaborated netlist of {!field:graph} — the flow's own final
          synthesis, so downstream measurement (P&R, STA) need not
          re-synthesise the circuit *)
  lutgraph : Techmap.Lutgraph.t;
      (** LUT mapping of {!field:net}; [lutgraph.max_level] always equals
          {!field:final_levels}, including under [slack_match] (the
          transparent buffers are part of this netlist) *)
  synth_key : string option;
      (** the artifact-cache key of that final synthesis ({!synthesize}'s
          memo key: canonical netlist hash, LUT size, balance switch);
          [None] when the flow ran without a cache. Artifacts derived
          from {!field:net} and {!field:lutgraph} extend it (kind [sta]
          in {!Experiment}; the iterative flow's per-iteration timing
          model, kind [model], extends that iteration's key the same
          way), so their keys cannot drift from it. *)
  iterations : iteration list;
  met_target : bool;
  final_levels : int;           (** levels of the {e final} circuit, after slack matching *)
  total_buffers : int;
  certified : Analysis.Certify.t;
      (** the final placement's throughput & liveness certificate (from
          the last MILP solve's candidate; slack matching only adds
          transparent capacity, which cannot invalidate it) *)
  lint : Lint.Engine.report;    (** non-fatal findings from the stage gates *)
  lint_stages : string list;
      (** audit trail: the gate stages that actually ran, in order; both
          flavors end with ["final-dfg"] *)
  narrowing : Absint.Narrow.report option;
      (** what the value-range narrowing stage did (which unit widths
          shrank); [None] when [config.narrow] is off *)
}

val seed_back_edges : Dataflow.Graph.t -> Dataflow.Graph.channel_id list
(** Place (and return) the opaque buffers required on
    {!Dataflow.Analysis.loop_back_edges}. Mutates the graph. *)

val iterative : ?config:config -> ?session:Session.t -> Dataflow.Graph.t -> outcome
(** Mapping-aware iterative flow. The input graph is not mutated.
    [session] supplies the cache handle, MILP budget overrides, the
    cooperative-cancellation poll (checked at every iteration boundary
    and before every MILP solve — raises {!Session.Cancelled}) and the
    status sink. The default, [Session.make ()], caches nothing and
    keeps [config]'s budgets. *)

val baseline : ?config:config -> ?session:Session.t -> Dataflow.Graph.t -> outcome
(** Mapping-agnostic one-shot flow (the paper's "Prev."). Takes the same
    [session] environment as {!iterative}. *)

val run : ?config:config -> ?session:Session.t -> flavor -> Dataflow.Graph.t -> outcome
(** [run flavor g] is {!iterative} or {!baseline}: the one place that
    picks between the two. *)

exception Milp_failed of string * Buffering.Formulation.failure
(** Raised by both flows when a buffer MILP solve returns no placement:
    the flow's name (["Flow.iterative"] or ["Flow.baseline"]) and the
    solver's verdict. Callers classify the constructor, never a message. *)

val milp_failed_message : string -> Buffering.Formulation.failure -> string
(** [milp_failed_message name failure] is the failure's one-line text,
    e.g. ["Flow.baseline: buffer MILP infeasible"]. *)

val summary : outcome -> string
(** A canonical, byte-comparable rendering of everything a flow run
    decides: the canonical hash of the buffered circuit, the final level
    count, buffer count and certificate, and one line per iteration
    (phi, objective, certified bound, levels, proposed and kept
    buffers). The same run digests identically whether it was served by
    the daemon or run through the one-shot CLI, and whether the cache was
    cold or warm. *)

val audit_placement :
  cfdfcs:Buffering.Cfdfc.t list ->
  Buffering.Formulation.placement ->
  Dataflow.Graph.t ->
  Dataflow.Graph.t * Analysis.Certify.t * Lint.Engine.report
(** [audit_placement ~cfdfcs placement g] applies the MILP's new buffers
    to a copy of [g] as opaque 2-slot buffers, certifies that candidate
    ({!Analysis.Certify.certify}) and audits the MILP's per-CFDFC
    throughput claims against the certificate
    ({!Lint.Engine.check_perf}; [cfdfcs] are the ones the MILP was
    solved over). Returns the candidate, its certificate and the [perf]
    report. Both flows and the [lint] / [verify --milp] commands audit a
    placement through this one function. *)

val synthesize :
  ?session:Session.t ->
  config ->
  Dataflow.Graph.t ->
  Net.t * Techmap.Lutgraph.t * string option
(** Elaborate, synthesise (with the configured optimisation passes) and
    LUT-map the graph, memoizing through the session's cache (default
    [Session.make ()], which computes in place) under kind [synthmap],
    keyed by the canonical netlist hash, the LUT size and the balance
    switch. Returns that key too ([None] without a cache): the flows
    keep their final synthesis's key in the outcome, and the iterative
    flow keys each iteration's timing model on that iteration's. *)

