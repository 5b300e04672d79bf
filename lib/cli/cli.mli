(** The command-line terms shared by [regulate] and the bench harness:
    kernel resolution, numeric converters, and the jobs, levels, trace,
    cache and narrowing options. Every bad value is a cmdliner usage
    error (exit 124) naming the option, never an exception. Also the one
    driver of the per-kernel report commands. *)

open Cmdliner

val int_at_least : int -> int Arg.conv
(** Integers [>= lo]; anything else is a usage error. *)

val pos_int : int Arg.conv
(** [int_at_least 1]. *)

val kernel_conv : Hls.Kernels.t Arg.conv
(** A kernel by name; an unknown name is a usage error naming it. *)

val kernels_arg : tool:string -> Hls.Kernels.t list Term.t
(** The positional kernels, default all nine. A repeated kernel keeps
    its first occurrence and is reported as a ["[tool] warning"] on
    stderr. *)

val kernel_list_arg : tool:string -> doc:string -> Hls.Kernels.t list option Term.t
(** [--kernels a,b,c]: a comma-separated subset ([None] when absent),
    deduplicated like {!kernels_arg}. *)

val jobs_arg : int Term.t
(** [-j N] / [--jobs N], default {!Support.Pool.default_jobs}. *)

val levels_arg : int Term.t
(** [--levels N], the target logic levels, default 6. *)

val trace_arg : string option Term.t
(** [--trace FILE]. *)

val traced :
  name:string -> string option -> (unit -> 'a) -> ('a, [> `Msg of string ]) result
(** [traced ~name trace f] runs [f]; when [trace] names a file, [f] runs
    under a trace session as one top-level span [name], the Chrome JSON
    lands in the file and the summary table goes to stderr (stdout is
    untouched). *)

val cache_dir_arg : string option Term.t
(** [--cache-dir DIR]. *)

val open_cache : string option -> (Cache.Session.t, [> `Msg of string ]) result
(** The artifact cache named by [--cache-dir] or [$REPRO_CACHE] (the
    disabled session when neither is set). *)

val with_cache_session :
  string option ->
  (Cache.Session.t -> ('a, ([> `Msg of string ] as 'e)) result) ->
  ('a, 'e) result
(** Run [f] with the command's one cache session; the session's counters
    are appended to the store's stats.log whichever way [f] returns. *)

val no_narrow_arg : bool Term.t
(** [--no-narrow]: skip the value-range narrowing stage. *)

(** {1 Per-kernel reports} *)

val report :
  json:bool ->
  jobs:int ->
  label:('task -> string) ->
  check:('task -> 'r) ->
  to_json:('task -> 'r -> Support.Json.t) ->
  print:('task -> 'r -> unit) ->
  failed:('r -> bool) ->
  'task list ->
  bool
(** [report ... tasks] runs [check] on every task and prints one row per
    task in submission order: with [json], [to_json] as one element of a
    JSON array that is closed even when a row raises, so a machine
    consumer always gets a complete document; else [print]. Stdout is
    flushed after each row. At [jobs = 1] each task runs just before its
    row is printed (rows stream); wider runs fan the checks out over a
    {!Support.Pool} of [jobs] domains and print the same rows. A check
    that raises prints [{"label": label task, "error": msg}] (text:
    [label  ERROR: msg]) and counts as failed. Returns whether any task
    [failed]. *)
