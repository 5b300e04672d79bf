(** K-feasible-cut LUT mapping (the "if -K 6" step of ABC in the paper).

    Depth-oriented priority-cuts mapping: every AND node keeps its best
    few cuts ordered by (depth, leaf count); selection walks back from the
    combinational outputs materialising one LUT per chosen cut. *)

val run : ?k:int -> ?cut_limit:int -> Synth.t -> Lutgraph.t
(** Defaults: [k] is {!Lutgraph.lut_k} (Stratix-style 6-LUTs, as the
    paper's ABC run) and [cut_limit = 8] priority cuts per node. *)
