(** Throughput & liveness certification of a buffered dataflow circuit
    (LP-free; the independent oracle for the buffer-placement MILP).

    The steady-state throughput of a choice-free dataflow circuit is
    governed by its cycles: a cycle holding [M] tokens whose units and
    opaque buffers accumulate [T] cycles of sequential latency sustains
    at most [M/T] initiations per cycle (the classical marked-graph
    bound the MILP's fluid-retiming constraints telescope into). This
    module computes that bound {e directly on the graph} — per cyclic
    SCC, as a minimum cycle ratio via Howard's policy iteration, with
    Karp's algorithm as an independent cross-check — plus the two
    marked-graph liveness conditions:

    - every cycle must carry at least one unit of sequential latency
      (an opaque buffer or a pipelined unit), else it is a
      combinational loop;
    - every cycle must have spare capacity beyond its token count,
      else no transfer on it can ever fire (token deadlock).

    Per channel [c] with source unit [u] the certifier uses
    - tokens: 1 if [c] is a loop back edge (front-end marks, else DFS);
    - latency: [Unit_kind.latency u] plus 1 if [c] has an opaque buffer;
    - capacity: [u]'s pipeline slots plus [c]'s buffer slots. *)

type cycle = {
  cy_channels : Dataflow.Graph.channel_id list;  (** in traversal order *)
  cy_tokens : int;
  cy_latency : int;
  cy_capacity : int;
}

type violation =
  | Comb_loop of cycle  (** zero sequential latency around the cycle *)
  | Deadlock of cycle   (** tokens fill every slot: no transfer can fire *)

type scc_cert = {
  sc_units : Dataflow.Graph.unit_id list;
  sc_ratio : float;   (** minimum tokens/latency cycle ratio (0 on a comb loop) *)
  sc_bound : float;   (** certified throughput bound: [min 1. sc_ratio] *)
  sc_critical : cycle option;  (** a cycle attaining the ratio *)
  sc_karp : float option;      (** Karp's independently computed ratio *)
  sc_violations : violation list;
}

type t = {
  sccs : scc_cert list;       (** one per cyclic SCC, in {!Dataflow.Analysis.cyclic_sccs} order *)
  throughput : float;         (** min bound over SCCs; 1.0 for an acyclic graph *)
  violations : violation list;
  live : bool;                (** no violations *)
  howard_iterations : int;
  cycles_evaluated : int;     (** policy cycles examined across all Howard runs *)
  karp_checks : int;
}

val certify : ?karp:bool -> Dataflow.Graph.t -> t
(** Certify the graph's current buffer placement. [karp] (default
    [true]) also runs Karp's algorithm on every throughput instance and
    records its value per SCC. Emits [perf.*] {!Support.Trace}
    counters. *)

val karp_agrees : t -> bool
(** Every SCC where Karp ran agrees with Howard within 1e-9. *)

val pp_cycle : Dataflow.Graph.t -> Format.formatter -> cycle -> unit
(** [u3(mux2) -c7-> u5(add) -c9-> u3] with the token/latency/capacity
    totals. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary. *)

val to_json : t -> Support.Json.t
(** One JSON object (bound, liveness, per-SCC ratios, counters). An
    SCC whose ratio is [infinity] (no cycle ratio found) prints it as
    [null]. *)
