(** The compile daemon behind [regulate serve].

    One long-lived process serves many kernel-compilation requests over
    {!Protocol}: a single dispatch domain reads request lines (stdio or
    a Unix-domain socket) and admits them against a bounded in-flight
    limit; admitted compiles run on a {!Support.Pool} of worker domains
    sharing one session-scoped artifact cache; each worker emits its own
    response lines (completion order) under a per-client write lock.

    Admission happens only on the dispatch domain, so the reject-on-full
    decision is deterministic for a given request interleaving. Every
    request runs in its own {!Core.Session}: per-request MILP budgets,
    a cooperative cancellation flag ([cancel] lines and client
    disconnects set it; the flow polls it at iteration boundaries), and
    a status sink that streams [status] events. Flow failures — MILP
    budget exhaustion, infeasibility, lint gates, parse errors — become
    structured [error] events; nothing a request does kills the daemon.

    Shutdown ([{"shutdown":true}], or client EOF on stdio) drains:
    new compiles are rejected with [shutting-down], admitted ones
    finish, then the pool is joined and [bye] is emitted. *)

type config = {
  jobs : int;              (** worker-pool width *)
  queue_limit : int;       (** max accepted-but-unfinished compiles; reject beyond *)
  levels : int option;
      (** server-wide target-levels override (a request's own [levels]
          wins); applied with {!Core.Flow.with_levels} *)
  milp_nodes : int option;      (** default per-request MILP node budget *)
  milp_budget_s : float option; (** default per-request MILP wall budget *)
  cache : Cache.Session.t; (** shared across all requests; [finish]ed on drain *)
  flow : Core.Flow.config; (** base flow configuration *)
}

val default_config : config
(** [jobs = 1], [queue_limit = 8], no overrides, cache disabled,
    {!Core.Flow.default_config}. *)

type runner = Core.Session.t -> Protocol.request -> Protocol.completion
(** What actually compiles one admitted request. The default runner runs
    the real flow ({!Core.Experiment.run_flow} for named kernels — flow
    plus P&R and simulation, the same work as one-shot [regulate flow] —
    or {!Core.Flow.iterative}/[baseline] for inline source). Tests
    inject blocking or failing runners to exercise admission,
    cancellation and error paths deterministically. *)

type t

val create : ?runner:runner -> config -> t
(** Build the server state and spawn its worker pool. Raises
    [Invalid_argument] if [jobs] or [queue_limit] is < 1. *)

val handle_line :
  t -> emit:(Protocol.event -> unit) -> string -> [ `Continue | `Stop ]
(** Dispatch one raw request line. [emit] must be safe to call from
    worker domains (the transports wrap it in a write lock); it receives
    every event for requests admitted from this line, including the
    terminal event emitted later by a worker. Blank lines are ignored;
    malformed lines answer with a [bad-request] error event. [`Stop]
    means a shutdown command was read. *)

val request_cancel : t -> string -> bool
(** Set the cancellation flag of an in-flight request; [false] if no
    such id is in flight. The terminal [cancelled] event comes from the
    worker when it notices. *)

val stats : t -> Protocol.stats

val drain : t -> unit
(** Stop admitting, wait for in-flight compiles, join the pool, flush
    the cache session's counters. Terminal: the server cannot be reused. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve line-delimited JSON on a channel pair (stdin/stdout, or a pipe
    in tests) until EOF or shutdown, then {!drain} and emit [bye]. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the given path and serve until some
    client sends [shutdown]: select-based multiplexing of any number of
    concurrent clients on the dispatch domain. A client disconnecting
    takes its in-flight requests with it (they are cancelled); a write
    to a vanished client is swallowed. Drains, byes surviving clients,
    and unlinks the socket path on exit. *)
