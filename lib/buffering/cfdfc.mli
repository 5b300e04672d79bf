(** Choice-free dataflow circuit (CFDFC) extraction.

    A CFDFC is the cyclic portion of the graph a control-flow loop
    executes; the MILP maximises the throughput of each. We approximate a
    CFDFC by a cyclic strongly connected component, with its simple
    cycles enumerated (capped) for the cycle-legality constraints and the
    initial-token marking on its back edges. *)

type t = {
  units : Dataflow.Graph.unit_id list;
  channels : Dataflow.Graph.channel_id list;
  back_edges : Dataflow.Graph.channel_id list;  (** carry the initial token *)
  cycles : Dataflow.Graph.channel_id list list; (** enumerated simple cycles *)
  truncated : bool;
  (** the [cycle_limit] cap stopped the global cycle enumeration, so
      [cycles] may be incomplete and the MILP's cycle-legality rows
      under-constrain — downstream the throughput certifier's
      [perf-cycle-limit-truncated] warning surfaces this *)
}

val extract : ?cycle_limit:int -> Dataflow.Graph.t -> t list
(** [cycle_limit] defaults to 256. *)
