(** Structural analyses over dataflow graphs: strongly connected
    components, cycle enumeration, back-edge detection and a topological
    order. *)

val sccs : Graph.t -> Graph.unit_id list list
(** Tarjan strongly connected components; components in reverse
    topological order, each as a list of unit ids. Singleton components
    without a self-loop are included. *)

val cyclic_sccs : Graph.t -> Graph.unit_id list list
(** Only components that actually contain a cycle. *)

val back_edges : Graph.t -> Graph.channel_id list
(** Channels whose removal breaks all cycles (DFS back edges from the
    entry units). These are where the flow seeds its initial buffers. *)

val simple_cycles_capped : ?limit:int -> Graph.t -> Graph.channel_id list list * bool
(** Johnson-style enumeration of simple cycles, each as a channel list,
    capped at [limit] (default 512) cycles to stay tractable, plus a flag
    that is [true] when the cap stopped the enumeration — i.e. the
    returned list may be missing cycles. The flag is conservative: a
    graph with exactly [limit] simple cycles also reports [true]. *)

val topo_order : Graph.t -> Graph.unit_id list
(** Topological order ignoring back edges (i.e., of the DAG obtained by
    deleting [back_edges]). *)
