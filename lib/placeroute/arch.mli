(** FPGA architecture model (a Stratix-IV-flavoured island grid).

    One cell per LUT or flip-flop; routing delay is a linear function of
    Manhattan distance, calibrated so that a 6-level path plus typical
    wiring lands near the paper's observed 4.5–5.5 ns clock periods. *)

val wire_delay : int -> float
(** Routing delay for a connection of a given Manhattan distance. *)

val grid_side : int -> int
(** Grid side length for a given cell count (30% spare capacity). *)
