(** The hashtable simulated-annealing placer, retained as a testing
    oracle.

    This is the placer {!Placeroute.Place} replaced. It is kept solely
    so the [place-differential] suite can check that the dense-array
    placer returns the same side, wirelength and positions. Nothing on
    the production path calls it. *)

val run : ?seed:int -> ?effort:float -> Net.t -> Techmap.Lutgraph.t -> Placeroute.Place.t
(** Same contract as {!Placeroute.Place.run}. *)
