(** LUT-to-DFG mapping (§IV-A + §IV-D): builds the node-level timing
    graph from the mapped LUT network.

    Every LUT becomes a delay node inside the dataflow unit it is
    labelled with. Every LUT edge is assigned a unique DFG path:

    - {b one edge → one path}: the only directed DFG path between the two
      units (searched forward, then backward for ready-domain edges);
    - {b one edge → many paths}: the path with the fewest dataflow units
      (BFS shortest);
    - {b domain interaction} (§IV-D): when neither direction has a path,
      the edge is routed through the nearest domain-interaction unit
      (forward to it from both sides), with an artificial zero-delay node
      in the interaction unit;
    - {b one edge → no path}: a direct artificial edge that contributes
      delay but cannot be broken.

    Paths never traverse an opaque-buffered channel (a register is not a
    combinational through-path). Traversed units without their own LUT on
    the path receive zero-delay {e fake} nodes, recorded per
    (unit, channel) for the §IV-C penalty computation. *)

type node_kind =
  | Delay of { unit_id : int; delay : float; fake : bool }
  | Launch                                      (** merged reg/input launch point, time 0 *)
  | Capture                                     (** merged reg/output capture point *)
  | Cross_fwd of Dataflow.Graph.channel_id      (** forward crossing of a channel *)
  | Cross_bwd of Dataflow.Graph.channel_id      (** backward (ready) crossing *)

type t = {
  kinds : node_kind array;
  succs : int list array;
  preds : int list array;
  launch : int;                (** node id of the merged launch *)
  capture : int;               (** node id of the merged capture *)
  n_real : int;                (** count of real delay nodes *)
  n_fake : int;
  n_unmapped_edges : int;      (** LUT edges that needed a direct artificial edge *)
}

val build :
  ?lut_extra:(int -> float) ->
  Dataflow.Graph.t ->
  net:Net.t ->
  Techmap.Lutgraph.t ->
  t
(** Each LUT costs {!Techmap.Lutgraph.level_delay} (the paper's
    per-logic-level delay). [lut_extra] adds a per-LUT delay surcharge (by LUT id) — the hook the
    routing-aware mode uses to fold estimated wire delays into the model
    (the enhancement the paper's §VI discusses as future work). [net] is
    the elaborated netlist the LUT graph was mapped from (needed to
    attribute sequential endpoints to their units). *)

val shortest_unbuffered :
  Dataflow.Graph.t ->
  src:Dataflow.Graph.unit_id ->
  dst:Dataflow.Graph.unit_id ->
  Dataflow.Graph.channel_id list option
(** Fewest-units DFG path that does not pass through an opaque-buffered
    channel. Exposed for tests. *)
