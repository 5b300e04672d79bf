(** Facade for the paper's mapping-aware timing model: LUT-to-DFG
    mapping (§IV-A, §IV-D) followed by timing-model generation and
    penalty computation (§IV-B, §IV-C). *)

val build :
  ?lut_extra:(int -> float) ->
  Dataflow.Graph.t ->
  net:Net.t ->
  Techmap.Lutgraph.t ->
  Model.t

val build_with_graph :
  ?lut_extra:(int -> float) ->
  Dataflow.Graph.t ->
  net:Net.t ->
  Techmap.Lutgraph.t ->
  Lut_map.t * Model.t
(** Like {!build} but also returns the intermediate node-level timing
    graph, so static checkers can audit the LUT-to-DFG mapping itself
    (crossing nodes, fake-node accounting, acyclicity). *)
