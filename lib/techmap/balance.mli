(** Depth-reducing AND-tree re-association (ABC's [balance] pass).

    Long conjunction chains — ripple carries, wide joins — synthesise
    into deep AND ladders; re-associating them as balanced trees reduces
    AIG depth and therefore mapped logic levels. Chains are flattened
    through single-fanout, uncomplemented AND edges (multi-fanout nodes
    stay shared) and rebuilt Huffman-style, pairing the two shallowest
    operands first.

    The result is a fresh {!Synth.t} whose combinational outputs carry
    the same tags; the test suite checks functional equivalence by
    direct AIG-vs-AIG simulation and by mapping the balanced AIG. *)

val run : Synth.t -> Synth.t
