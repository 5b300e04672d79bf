(** End-to-end evaluation harness: runs both flows on a kernel and
    collects every metric of the paper's Table I.

    For one kernel and one flow: optimise buffering → re-synthesise →
    place & route (CP, LUTs, FFs, logic levels) → simulate the kernel's
    workload (clock cycles, with the exit value checked against the AST
    interpreter) → execution time = CP × cycles. *)

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
  value_ok : bool;        (** simulation matched the reference interpreter *)
}

type row = {
  bench : string;
  prev : metrics;   (** mapping-agnostic baseline *)
  iter : metrics;   (** iterative mapping-aware flow *)
}

val run_flow :
  ?config:Flow.config ->
  ?session:Session.t ->
  flavor:[ `Baseline | `Iterative ] ->
  Hls.Kernels.t ->
  metrics * Flow.outcome
(** [session] is threaded into the flow: cache handle, MILP budget
    overrides, cancellation, status sink. Without one the flow runs
    uncached on [config]'s budgets. *)

val run_kernel : ?config:Flow.config -> Hls.Kernels.t -> row

val run_all :
  ?config:Flow.config -> ?names:string list -> ?kernels:Hls.Kernels.t list -> unit -> row list
(** Runs the paper's nine benchmarks sequentially ([kernels] overrides
    [names]; default all nine). *)

type task_timing = {
  t_bench : string;
  t_flavor : string;     (** ["baseline"] or ["iterative"] *)
  t_seconds : float;     (** the task's own wall-clock *)
}

val run_all_timed :
  ?config:Flow.config ->
  ?session:Session.t ->
  ?jobs:int ->
  ?names:string list ->
  ?kernels:Hls.Kernels.t list ->
  unit ->
  row list * task_timing list * float
(** Like {!run_all_parallel}, also returning per-task wall-clock timings
    (in submission order) and the total wall-clock of the whole batch.
    The sum of task timings approximates the sequential cost, so
    [sum /. wall] is the realised parallel speedup. Every task runs
    under the one [session] (as in {!run_flow}); its store is
    domain-safe. *)

val run_all_parallel :
  ?config:Flow.config ->
  ?session:Session.t ->
  ?jobs:int ->
  ?names:string list ->
  ?kernels:Hls.Kernels.t list ->
  unit ->
  row list
(** The evaluation fanned out over a {!Support.Pool}: one task per
    kernel x flavor, [jobs] worker domains ([jobs] defaults to
    {!Support.Pool.default_jobs}, i.e. the [REPRO_JOBS] environment
    variable or 1). Every task builds its own kernel graph and RNGs, so
    the returned rows are identical — row for row — to {!run_all} at any
    [jobs] width; only wall-clock changes. *)
