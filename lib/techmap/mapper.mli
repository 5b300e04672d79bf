(** K-feasible-cut LUT mapping (the "if -K 6" step of ABC in the paper).

    Depth-oriented priority-cuts mapping: every AND node keeps its best
    few cuts ordered by (depth, leaf count); selection walks back from the
    combinational outputs materialising one LUT per chosen cut. *)

val run : ?k:int -> Synth.t -> Lutgraph.t
(** [k] defaults to {!Lutgraph.lut_k} (Stratix-style 6-LUTs, as the
    paper's ABC run); every node keeps at most 8 priority cuts. *)
