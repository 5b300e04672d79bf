(** End-to-end evaluation harness: runs both flows on a kernel and
    collects every metric of the paper's Table I.

    For one kernel and one flow: optimise buffering → re-synthesise →
    place & route (CP, LUTs, FFs, logic levels) → simulate the kernel's
    workload (clock cycles, with the exit value and the final memory
    image checked against the AST interpreter) → execution time = CP ×
    cycles. *)

type metrics = {
  cp : float;             (** achieved clock period after P&R, ns *)
  cycles : int;           (** simulated clock cycles *)
  exec_ns : float;        (** CP x cycles *)
  luts : int;
  ffs : int;
  levels : int;           (** post-synthesis logic levels *)
  buffers : int;          (** opaque buffers placed *)
  iterations : int;       (** optimisation iterations used *)
  met_target : bool;
  value_ok : bool;
      (** the simulation finished with the reference interpreter's exit
          value and final memory image *)
}

type row = {
  bench : string;
  prev : metrics;   (** mapping-agnostic baseline *)
  iter : metrics;   (** iterative mapping-aware flow *)
}

val measure : session:Session.t -> Flow.outcome -> Hls.Kernels.t -> metrics
(** Place, route and simulate a flow's final circuit on the kernel's
    workload. With a cache, the place & route is memoised (kind [sta]),
    keyed by the final synthesis's key ({!Flow.outcome.synth_key}) plus
    the placer's seed and effort, and the simulation (kind [sim]) by the
    circuit's {!Cache.Hash.dfg}, the initial memory image and the
    simulator config, so a warm recompile places and simulates nothing.
    The interpreter runs every time: [value_ok] compares it with the
    simulation, served or not. *)

val run_flow :
  ?config:Flow.config ->
  ?session:Session.t ->
  flavor:[ `Baseline | `Iterative ] ->
  Hls.Kernels.t ->
  metrics * Flow.outcome
(** [session] is threaded into the flow: cache handle, MILP budget
    overrides, cancellation, status sink. Without one the flow runs
    uncached on [config]'s budgets; the measurement is {!measure}'s. *)

type task_timing = {
  t_bench : string;
  t_flavor : string;     (** ["baseline"] or ["iterative"] *)
  t_seconds : float;     (** the task's own wall-clock *)
}

val run_all :
  ?config:Flow.config ->
  ?session:Session.t ->
  jobs:int ->
  Hls.Kernels.t list ->
  row list * task_timing list * float
(** The evaluation of [kernels] fanned out over a {!Support.Pool} of
    [jobs] worker domains: one task per kernel x flavor. Returns one row
    per kernel, the per-task wall-clock timings (both in submission
    order) and the wall-clock of the whole batch; the sum of the task
    timings approximates the sequential cost, so [sum /. wall] is the
    realised parallel speedup. Every task builds its own kernel graph and
    RNGs, so the rows are identical — row for row — at any [jobs] width;
    at [jobs = 1] each task runs in place, in order. Every task runs
    under the one [session] (as in {!run_flow}); its store is
    domain-safe. *)
