(** Strongly connected components and a topological peel: the one
    implementation of each that the flow's graph analyses share.

    A digraph is a plain adjacency array: nodes are [0 .. n-1] for
    [n = Array.length adj], and [adj.(v)] lists the successors of [v]
    (repeats are parallel edges). Callers build the array from their own
    IR, and the order they build it in is the only input to the
    orderings below.

    Ordering contract (results are pinned byte-for-byte by digests, lint
    diagnostic order and exception texts, so it must not drift):
    - {!sccs} starts a depth-first search from every unvisited node in
      ascending id order and visits successors in list order.
    - {!topo} seeds a FIFO queue with the zero in-degree nodes in
      ascending id order and releases successors in list order. *)

val sccs : int list array -> int list list
(** Tarjan's strongly connected components, every node in exactly one.
    Components come out in reverse order of completion, which is a
    topological order of the condensation (a component precedes every
    component it reaches). Each component lists its members in
    discovery order, root first. Singletons without a self-loop are
    included. *)

val topo : int list array -> int array * int list
(** Kahn's peel: [(order, rest)]. [order] holds the peeled nodes, each
    after all of its peeled predecessors. [rest] holds, in ascending id
    order, the nodes the peel never frees: those on a cycle or
    reachable from one. [rest = []] iff the digraph is acyclic. *)
