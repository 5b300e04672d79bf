(** Wire protocol of the compile daemon: line-delimited JSON.

    A client writes one JSON object per line; the daemon answers with one
    or more event lines per request ([accepted], zero or more [status],
    then exactly one terminal [done] / [error] / [rejected] /
    [cancelled]). Responses from concurrent requests interleave in
    completion order, so every line carries the request [id] it belongs
    to. Both directions of the codec live here so the daemon, the load
    generator and the tests share one definition. *)

type flavor = Core.Flow.flavor

val flavor_name : flavor -> string
(** {!Core.Flow.flavor_name}. *)

type request = {
  id : string;                    (** client-chosen, echoed on every event *)
  kernel : string option;         (** named benchmark kernel … *)
  source : string option;         (** … or inline mini-C text (exactly one) *)
  flavor : flavor;
  levels : int option;            (** target logic levels override *)
  milp_nodes : int option;        (** per-request MILP node budget *)
  milp_budget_s : float option;   (** per-request MILP wall budget, seconds *)
}

type command =
  | Compile of request
  | Cancel of string  (** id of the in-flight request to cancel *)
  | Stats
  | Shutdown

val command_of_line : string -> (command, string) result
(** Parse one client line. [Error] is a human-readable reason; the
    server answers it with an [error] event and keeps serving. *)

val request_to_json : request -> Support.Json.t
val request_to_line : request -> string

(** {1 Events (daemon → client)} *)

type measured = {
  m_cp : float;
  m_cycles : int;
  m_exec_ns : float;
  m_luts : int;
  m_ffs : int;
  m_value_ok : bool;
}

type completion = {
  r_digest : string;        (** canonical digest of the flow outcome *)
  r_flavor : flavor;
  r_levels : int;
  r_met_target : bool;
  r_buffers : int;
  r_iterations : int;
  r_phi : float;            (** final MILP throughput claim *)
  r_certified : float;      (** certified throughput bound *)
  r_measured : measured option;  (** P&R + simulation, named kernels only *)
}

type stats = {
  s_served : int;
  s_errors : int;
  s_rejected : int;
  s_cancelled : int;
  s_inflight : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_uptime_s : float;
}

type event =
  | Accepted of { id : string; inflight : int }
  | Rejected of { id : string; code : string; message : string }
  | Status of { id : string; stage : string }
  | Done of { id : string; wall_ms : float; result : completion }
  | Failed of { id : string option; code : string; message : string }
  | Cancelled of { id : string }
  | Stats_reply of stats
  | Bye

val hit_rate : int -> int -> float
(** [hit_rate hits misses]; [0.] when both are zero. *)

val event_to_json : event -> Support.Json.t
val event_to_line : event -> string

val event_of_line : string -> (event, string) result
(** Client-side decoder (load generator, tests). *)

(** {1 Digests and classification} *)

val outcome_digest : Core.Flow.outcome -> string
(** The hash of {!Core.Flow.summary}: a canonical digest over the
    buffered circuit and every per-iteration decision. Byte-identical for the same request whether served
    concurrently at any [-j] width, serially by the one-shot CLI
    ([regulate flow --digest]), or answered from a warm cache. *)

val completion_of_outcome :
  flavor:flavor -> ?measured:measured -> Core.Flow.outcome -> completion

val measured_of_metrics : Core.Experiment.metrics -> measured

val error_of_exn : exn -> string * string
(** [(code, message)] for a flow exception: ["milp-exhausted"],
    ["milp-infeasible"] or ["milp-unbounded"] for a
    {!Core.Flow.Milp_failed}, ["lint-failed"], ["compile-failed"],
    ["unknown-kernel"], ["flow-failed"] for any other [Failure], or
    ["internal-error"]. A budget blowout is a structured protocol error,
    never a daemon-killing exception. *)
