(** LUT truth tables.

    Each mapped LUT's function is read off its AIG cone in one word
    pass: leaf [i] carries the [i]-th projection word ([0xAAAA…],
    [0xCCCC…], [0xF0F0…], …), so bit [j] of every node's word is its
    value under leaf assignment [j], and the root's word, masked to
    2{^k} bits, is the table. The translation validator ([Tv.Equiv])
    simulates the cover through these tables. *)

val lut_table : Lutgraph.t -> int -> int64
(** Truth table of a LUT (bit [i] = output under leaf assignment [i],
    leaf 0 is the least significant selector bit). A leaf listed twice
    takes its last index. Raises [Invalid_argument] for LUTs with more
    than 6 leaves, and for a cone with a CI outside the leaves that some
    assignment reads (an AND reads its second fanin only where its first
    is true). *)
