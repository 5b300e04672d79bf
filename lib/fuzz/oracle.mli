(** The differential oracle: every invariant one generated kernel must
    satisfy, end to end through both flows.

    Per seed the oracle generates the program ({!Hls.Generate}), runs
    the reference interpreter, compiles the DFG, then pushes a copy
    through the iterative and the baseline flow and checks:

    - {b parse-roundtrip}: the pretty-printed source re-parses to the
      identical AST;
    - {b interp-error} / {b compile-error} / {b invalid-graph}: the
      front end accepts its own generator's output;
    - {b lint-gate} / {b tv-gate}: no stage gate fires
      ({!Lint.Engine.Lint_error} from inside the flow);
    - {b flow-error}: the flow completes (a MILP node-budget exhaustion
      is recorded as {e explained}, not as a violation — the budget is a
      resource limit, not a wrong answer);
    - {b phi-exceeds-bound}: every iteration's MILP throughput claim
      stays within the LP-free certified bound ([milp_phi <=
      certified_bound + 1e-4]);
    - {b target-inconsistent}: [met_target] agrees with
      [final_levels <= target_levels];
    - {b not-live} / {b sim-deadlock} / {b sim-timeout}: the certified
      final circuit actually terminates in cycle-accurate simulation;
    - {b value-mismatch} / {b memory-mismatch}: simulated exit value and
      final memory contents equal the interpreter's;
    - {b sim-beats-bound}: measured steady-state transfers on every
      channel inside a cyclic SCC stay within [sc_bound * cycles + 4]
      — the simulator never outruns the Howard certificate;
    - {b cache-divergence}: when the session's cache is enabled, a warm
      re-run of the flow produces a byte-identical canonical summary;
    - {b mutant-*}: additive DFG mutations ({!Mutate}) of the final
      circuit keep the exit value, memories and liveness. *)

type check = {
  kind : string;    (** one of the invariant names above *)
  flavor : string;  (** ["iterative"], ["baseline"], ["front-end"], ["mutant"] *)
  detail : string;
}

type report = {
  seed : int;
  features : (string * int) list;  (** the program's coverage histogram *)
  violations : check list;
  explained : check list;  (** expected resource-limit outcomes *)
  source : string;         (** generated source, for repros *)
}

val flow_config : Core.Flow.config
(** The throttled flow configuration the fuzzer uses by default: few
    iterations and a small MILP node budget, so thousands of kernels
    fit in a CI smoke budget while every gate stays armed. *)

val check :
  ?gen_cfg:Hls.Generate.cfg ->
  ?config:Core.Flow.config ->
  ?session:Core.Session.t ->
  ?mutations:int ->
  int ->
  report
(** [check seed] runs the whole battery on one generated kernel.
    [mutations] (default 2) mutants are derived from the final circuit
    of each flavor. Both flows run under [session] (default
    [Core.Session.make ()], no cache); when its cache is enabled each
    flow runs a second, warm time for the [cache-divergence] check.
    Deterministic: same arguments, same report. *)

val check_program :
  ?config:Core.Flow.config ->
  ?session:Core.Session.t ->
  ?mutations:int ->
  Hls.Generate.program ->
  report
(** The battery on an explicit program — the minimizer's re-check entry
    point (shrunk candidates are not products of {!Hls.Generate}). *)

val summary_of_outcome : Core.Flow.outcome -> string
(** The canonical flow digest compared between cold and warm runs. *)

val is_explained_failure : string -> bool
(** Recognise flow [Failure] messages that are resource-limit outcomes
    (MILP node budget, simulator cycle cap) rather than bugs. *)
