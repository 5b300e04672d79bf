(** Flow-wide hierarchical tracing and metrics.

    A process-global span + counter layer for the whole flow: every
    stage of {!Core.Flow}, the MILP solver, the LUT mapper, placement
    STA and the lint gates record hierarchical spans and named counters
    into {e per-domain} buffers, which {!stop} merges into one report
    with two sinks — Chrome trace-event JSON (loadable in
    [chrome://tracing] or Perfetto) and a flat per-stage summary table
    (call counts, total and self time).

    {b Zero-cost when disabled.} Tracing is off until {!start}; every
    primitive first reads one atomic flag and returns, allocating
    nothing, so permanently-instrumented hot paths cost one load.

    {b Domain safety.} Each domain owns its buffer (domain-local
    storage), so recording never takes a lock and composes with
    {!Pool}: a task's spans land on its worker's buffer. Spans nest per
    domain via a thread-local stack; to nest tasks under the submitting
    span at any pool width, capture {!current_context} before
    submitting and wrap the task body in {!with_context}. {!start} and
    {!stop} must be called from the main domain, and {!stop} only after
    every pool that traced has been shut down (its worker domains
    joined) — {!Pool.run} guarantees that on return.

    Chrome cannot draw cross-track arrows, so a task span on a worker
    track is not visually nested under its submitter; the logical
    parent is recorded in each event's [args.parent] and drives the
    self-time attribution of the summary table. *)

val enabled : unit -> bool
(** Whether a trace session is running. *)

val start : unit -> unit
(** Begin a trace session: reset all buffers (a new generation) and
    enable recording. Main domain only. *)

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] runs [f ()] inside a span named [name]
    (category [cat], default ["flow"]). The span closes when [f]
    returns {e or raises}; nesting follows the calling domain's span
    stack. When disabled this is exactly [f ()]. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** [timed ~cat name f] is [with_span ~cat name f] that additionally
    returns the elapsed wall-clock seconds — measured whether or not
    tracing is enabled, so callers can keep their timing output
    identical while the span only exists under [--trace]. *)

val add : string -> int -> unit
(** [add name n] adds [n] to counter [name] on the calling domain's
    buffer (merged by summation at {!stop}). No-op when disabled. *)

type context
(** The calling domain's current span path, for re-rooting task spans
    submitted to a pool. *)

val current_context : unit -> context
val with_context : context -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] as the logical span path:
    root spans opened inside [f] report the innermost span of [ctx] as
    parent, at the matching depth, whichever domain runs [f]. The
    domain's own stack is saved and restored around [f]. *)

(** {1 Reports} *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;  (** the recording domain's id *)
  sp_start : float;  (** absolute seconds (epoch) *)
  sp_stop : float;
  sp_depth : int;
  sp_parent : string option;  (** logical parent span name *)
}

type report = {
  r_t0 : float;  (** absolute time of {!start} *)
  r_wall : float;  (** seconds from {!start} to {!stop} *)
  r_spans : span list;  (** sorted by start time *)
  r_counters : (string * int) list;  (** summed across domains, sorted by name *)
}

val stop : unit -> report
(** Disable recording and merge every domain buffer of the current
    session. Main domain only; see the header for the pool-shutdown
    precondition. *)

type row = {
  row_name : string;
  row_calls : int;
  row_total : float;  (** summed span seconds *)
  row_self : float;  (** total minus direct children (clamped at 0) *)
}

val summary : report -> row list
(** Per-stage aggregation of the report's spans, largest total first.
    Self time subtracts direct children by parent name; with parallel
    children (a pool fan-out) a parent's children can overlap it, which
    clamps its self time to 0. *)

val counter : report -> string -> int
(** Merged value of a counter; 0 when never touched. *)

val pp_summary : Format.formatter -> report -> unit
(** The flat per-stage table (calls, total ms, self ms) followed by the
    counters. Intended for stderr: stdout stays byte-identical. *)

val to_chrome_json : report -> Json.t
(** Chrome trace-event JSON: one ["X"] (complete) event per span, one
    ["C"] (counter) event per merged counter, plus an [otherData]
    object carrying [wall_s], the merged counters and the summary rows
    (machine-readable for CI guards). *)

val write_chrome_json : report -> string -> unit
(** [write_chrome_json r path] creates [path]'s parent directories as
    needed and writes {!to_chrome_json} as one line. Raises [Sys_error]
    with a plain message on an unwritable path (no backtraces). *)

val ensure_parent_dir : string -> unit
(** [ensure_parent_dir path] creates the missing parent directories of
    [path] ([mkdir -p] of [dirname path]). Raises [Sys_error] on
    failure. Shared by every output-file flag of the CLIs. *)
