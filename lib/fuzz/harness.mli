(** Campaign driver: pump seed ranges through the {!Oracle} on a
    {!Support.Pool}, collect coverage and failure statistics, and
    auto-minimize every violation into a repro.

    Determinism contract: a campaign over the same seed range with the
    same configuration produces the same statistics and findings at any
    pool width — each seed's work is self-contained, and results are
    folded in submission order. The wall-clock budget is the one
    non-deterministic input; it only truncates the seed range (always at
    a batch boundary), and the number of kernels actually checked is
    part of the stats. *)

type finding = {
  f_seed : int;
  f_kind : string;         (** violation kind ({!Oracle.check.kind}) *)
  f_flavor : string;
  f_detail : string;
  f_source : string;       (** original generated source *)
  f_minimized : string;    (** minimized source (or the original) *)
  f_min_stmts : int;       (** {!Minimize.size} of the minimized kernel *)
}

type stats = {
  s_kernels : int;             (** kernels generated and checked *)
  s_violations : int;
  s_explained : int;           (** resource-limit outcomes (MILP budget) *)
  s_failures_by_kind : (string * int) list;    (** sorted by kind *)
  s_explained_by_kind : (string * int) list;
  s_features : (string * int) list;  (** coverage histogram over all kernels *)
  s_duration_s : float;
  s_budget_hit : bool;         (** stopped early on the wall-clock budget *)
}

type t = { stats : stats; findings : finding list }

val run :
  ?gen_cfg:Hls.Generate.cfg ->
  ?config:Core.Flow.config ->
  ?mutations:int ->
  ?budget_s:float ->
  ?minimize:bool ->
  ?log:(string -> unit) ->
  pool:Support.Pool.t ->
  start_seed:int ->
  seeds:int ->
  unit ->
  t
(** Check seeds [start_seed .. start_seed + seeds - 1]. [budget_s]
    (default none) stops submitting new batches once exceeded;
    [minimize] (default [true]) shrinks each finding's kernel with
    {!Minimize.shrink_func} re-running the single-seed oracle as the
    predicate. [log] receives one progress line per batch. *)

val stats_to_json : stats -> Support.Json.t
(** One JSON object: totals, failure histogram and feature coverage —
    the payload CI renders into the step summary. *)

val write_repro : dir:string -> finding -> string
(** Write a self-describing repro fixture
    ([fuzz_seed<N>_<kind>.c]) and return its path. The header comments
    carry the seed, the invariant and the detail; the body is the
    minimized source. *)
