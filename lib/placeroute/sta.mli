(** Post-place-and-route static timing analysis.

    Longest register-to-register path over the mapped LUT graph, with
    each LUT costing {!Techmap.Lutgraph.level_delay} and each connection
    costing the placed Manhattan-distance wire delay. This yields the
    achieved clock period the paper reports (CP columns of Table I),
    which exceeds [levels x level_delay] by the routing contribution the
    paper's approach deliberately does not model. *)

type report = {
  cp : float;           (** achieved clock period, ns *)
  logic_levels : int;   (** max LUT levels between registers *)
  n_luts : int;
  n_ffs : int;
  wirelength : int;
  critical_path : int list;
      (** LUT ids along the slowest register-to-register path, source to
          sink — the path the optimiser would need to break next *)
}

val run : Net.t -> Techmap.Lutgraph.t -> Place.t -> report

val analyze : ?seed:int -> ?effort:float -> Net.t -> Techmap.Lutgraph.t -> report
(** Convenience: place then analyse. *)

val pp_critical_path :
  Format.formatter -> Dataflow.Graph.t -> Techmap.Lutgraph.t -> report -> unit
(** Human-readable critical path: each LUT with the dataflow unit it is
    labelled with. *)
