(** LUT truth tables.

    Each mapped LUT's function is computed by exhaustively evaluating its
    AIG cone over its (at most K) leaves. The translation validator
    ([Tv.Equiv]) simulates the cover through these tables. *)

val lut_table : Lutgraph.t -> int -> int64
(** Truth table of a LUT (bit [i] = output under leaf assignment [i],
    leaf 0 is the least significant selector bit). Raises
    [Invalid_argument] for LUTs with more than 6 leaves. *)
