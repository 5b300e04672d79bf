(** Structural analyses over dataflow graphs: strongly connected
    components, cycle enumeration, back-edge detection and a topological
    order. *)

val cyclic_sccs : Graph.t -> Graph.unit_id list list
(** The strongly connected components that contain a cycle (two or more
    units, or one unit with a self-loop), in {!Support.Digraph.sccs}
    order over the units' successor lists. *)

val back_edges : Graph.t -> Graph.channel_id list
(** Channels whose removal breaks all cycles (DFS back edges from the
    entry units). *)

val loop_back_edges : Graph.t -> Graph.channel_id list
(** The channels the flow seeds its initial buffers on: the front end's
    marked loop-carried channels ({!Graph.marked_back_edges}) when there
    are any, else {!back_edges}. *)

val simple_cycles_capped : ?limit:int -> Graph.t -> Graph.channel_id list list * bool
(** Johnson-style enumeration of simple cycles, each as a channel list,
    capped at [limit] (default 512) cycles to stay tractable, plus a flag
    that is [true] when the cap stopped the enumeration — i.e. the
    returned list may be missing cycles. The flag is conservative: a
    graph with exactly [limit] simple cycles also reports [true]. *)

val topo_order : Graph.t -> Graph.unit_id list
(** Topological order ignoring back edges (i.e., of the DAG obtained by
    deleting [back_edges], not [loop_back_edges]), as peeled by
    {!Support.Digraph.topo}. *)
