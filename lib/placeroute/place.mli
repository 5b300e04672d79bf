(** Simulated-annealing placement of the mapped circuit.

    Items are the LUTs plus every sequential/IO endpoint of the LUT
    graph. The annealer minimises total Manhattan wirelength over the
    LUT-graph edges; it is deterministic for a given seed. The initial
    placement clusters items of the same dataflow unit, which is roughly
    what a real placer's wirelength optimisation achieves.

    The annealer works on dense item ids: positions, grid occupancy and
    edge incidence are int arrays, and the edges a move touches are
    deduplicated with a per-move stamp. {!t.pos} is built once at the
    end. *)

type item = It_lut of int | It_seq of int  (** LUT id | netlist gate id *)

type t = {
  side : int;
  pos : (item, int * int) Hashtbl.t;
  wirelength : int;   (** total Manhattan length after annealing *)
}

val distance : t -> item -> item -> int

val item_of_endpoint : Techmap.Lutgraph.endpoint -> item

val run : ?seed:int -> ?effort:float -> Net.t -> Techmap.Lutgraph.t -> t
(** [effort] scales the annealing move budget (default 1.0). *)
