(** Latency load generator for the compile daemon ([regulate loadgen]).

    Connects to a serving Unix-domain socket, pushes a request list with
    windowed pipelining (at most [window] requests outstanding), and
    reports client-observed latency percentiles, throughput and the
    cache hit rate over exactly this run (stats are sampled before and
    after, so a warm daemon's history does not pollute the numbers). *)

type result = {
  l_sent : int;
  l_completed : int;
  l_errors : int;
  l_rejected : int;
  l_cancelled : int;
  l_wall_s : float;
  l_mean_ms : float;
  l_p50_ms : float;          (** send-to-terminal-event, milliseconds *)
  l_p99_ms : float;
  l_throughput : float;      (** completed requests per second *)
  l_hits : int;              (** cache hits attributable to this run *)
  l_misses : int;
  l_digests : (string * string) list;
      (** (request id, outcome digest) for every completed request, in
          request order — the determinism cross-check against one-shot runs *)
}

val run : ?window:int -> socket:string -> Protocol.request list -> result
(** [window] defaults to 4; keep it at or below the daemon's
    [queue_limit] or requests bounce off admission control (bounced
    requests are counted in [l_rejected], not retried). *)

val shutdown : socket:string -> unit
(** Send [{"shutdown":true}] and wait for the daemon's [bye]. *)

val result_to_json : result -> Support.Json.t
(** The CI-facing summary: percentiles, throughput, hit rate. *)

(** {1 Sequential one-shot comparison} *)

type oneshot = {
  o_wall_s : float;
  o_digests : (string * string) list;  (** same shape as [l_digests] *)
}

val run_oneshot : exe:string -> Protocol.request list -> oneshot
(** Run each (named-kernel) request through [exe flow <kernel> --digest]
    as a separate sequential process — the no-daemon workflow the
    speedup claim is measured against. Raises [Failure] if a run exits
    non-zero or prints no digest, [Invalid_argument] on an
    inline-source request. *)
