(** Session-owned cache handles.

    A session is an explicit, first-class capability to consult (or
    skip) the artifact cache: either a handle on an open {!Store.t} or
    the disabled session, which computes everything in place. The flow
    layers ({!Core.Flow}, the pre-characterised unit delays, the MILP
    solve) take a session parameter, defaulting to {!disabled}; there is
    no process-global store. Each CLI entry point opens one session with
    {!of_flag}, passes it down explicitly and calls {!finish} on exit,
    so one process can also serve many concurrent requests that share a
    single store — or mix cached and uncached work — without any
    cross-request cache-state leakage.

    Sessions are cheap records; share one {!Store.t} between as many
    sessions (and {!Support.Pool} domains) as needed — the store itself
    is domain-safe. *)

type t

val disabled : t
(** The no-cache session: {!memo} is exactly [f ()]. *)

val of_store : Store.t -> t
(** A session backed by an open store. The caller keeps ownership of
    the store (one {!Store.finish} when the owner is done). *)

val of_dir : ?mem_bytes:int -> string -> t
(** [of_store (Store.open_dir ?mem_bytes dir)]. Raises [Sys_error] if
    the directory cannot be created. *)

val resolve_dir : string option -> string option
(** The effective cache directory: the [--cache-dir] flag when given,
    else the [REPRO_CACHE] environment variable when set and
    non-empty. *)

val of_flag : ?mem_bytes:int -> string option -> (t, string) result
(** The CLI entry point: {!resolve_dir}, then {!of_dir} on the result;
    {!disabled} when neither the flag nor the environment names a
    directory. [Error] carries the [Sys_error] message of a directory
    that cannot be created. *)

val enabled : t -> bool
val store : t -> Store.t option

val memo_keyed :
  t -> kind:string -> key:(unit -> string list) -> (unit -> 'a) -> 'a * string option
(** The one memoisation helper: every cached stage goes through it, so
    every key is built the same way. [memo_keyed t ~kind ~key f] returns
    the cached value for [(kind, Hash.combine (key ()))], or computes
    [f ()] and stores it, together with that combined key. [key] lists
    the stage's inputs as content hashes ({!Hash.dfg}, {!Hash.netlist},
    an earlier stage's key, ...) plus a rendering of every parameter the
    result depends on; on the disabled session it is never called, so
    nothing is hashed, the result is exactly [(f (), None)]. [key] is
    called before [f], so it may hash an input that [f] mutates.

    Values are [Marshal]-encoded; the store's header checksums and
    version stamps guarantee a decoded payload is byte-exact and written
    by this model version, so the only type obligation is the caller's:
    {b one [kind] string must map to exactly one result type} across the
    whole code base. *)

val memo : t -> kind:string -> key:(unit -> string list) -> (unit -> 'a) -> 'a
(** {!memo_keyed} without the key. *)

val finish : t -> unit
(** {!Store.finish} on the underlying store, if any: appends the
    session's counters to the store's [stats.log]. Only call from the
    session that owns the store. *)
