(** Combinational-equivalence pass of the translation validator.

    Checks that the three representations the flow chains together —
    elaborated netlist, structurally-hashed/rewritten AIG, K-feasible
    LUT cover — compute the same Boolean function at every combinational
    output (primary outputs and flip-flop D inputs), and that every LUT
    implements exactly its AIG root's function.

    The cheap pass is 64-bit-parallel random simulation: each [int64]
    word carries 64 independent input lanes drawn from a seeded
    {!Support.Rng}, so signatures are deterministic and byte-identical
    at any worker-pool width. A word mismatch yields a concrete
    counterexample lane. The test suite confirms every witness by
    replaying it through independent scalar evaluators
    ([test/logic_reference.ml]). *)

type lane = {
  lane_gates : (int * bool) list;  (** netlist Input/Ff gate id -> stimulus *)
  lane_cis : (int * bool) list;    (** AIG CI node id -> the same stimulus *)
}
(** One counterexample input assignment, in both name spaces. *)

type mismatch =
  | Aig_mismatch of { co : int; tag : int; lane : lane }
      (** netlist vs. AIG at combinational output [co] (netlist gate
          [tag]): synthesis broke the function. *)
  | Cover_mismatch of { lut : int; lane : lane }
      (** cover vs. AIG at LUT [lut] — the first topological LUT whose
          output disagrees with its root while its leaves agree. *)
  | Cover_co_mismatch of { co : int; tag : int; lane : lane }
      (** cover vs. netlist at a combinational output (wrong output
          wiring). *)
  | Cover_structural of { lut : int; reason : string }
      (** malformed cover: oversized cut, duplicate/unmapped leaf,
          broken root back-pointer, unbuildable truth table. *)

type result = {
  cos_checked : int;
  luts_checked : int;
  vectors : int;                   (** rounded up to a multiple of 64 *)
  signatures : (int * int64) list;
      (** per-CO [(netlist gate tag, semantic hash)] of the netlist
          function, in CO order *)
  mismatches : mismatch list;
}

val run : Net.t -> Techmap.Lutgraph.t -> result
(** Validate netlist vs. [lg.synth.aig] vs. the LUT cover on 256 vectors
    (4 words) from a fixed seed. Cuts larger than
    {!Techmap.Lutgraph.lut_k} leaves are structural errors. Emits [tv.*]
    trace counters. Raises [Failure] on a combinationally cyclic
    netlist. *)

val cover_words : Techmap.Lutgraph.t -> int64 array -> int64 array
(** [cover_words lg ci_words] is the 64-lane output word of every LUT,
    by LUT id, when each AIG CI node [v] carries [ci_words.(v)]: the
    cover evaluation of {!run}. Each LUT's truth table
    ({!Techmap.Truth.lut_table}) is applied to its leaf words as a
    Shannon mux tree, 2{^k} - 1 word muxes for [k] leaves. A LUT whose
    table cannot be built, and a leaf that is neither a CI nor a mapped
    root, read 0. *)

val signature_hex : result -> string
(** All per-CO signatures folded to one 16-hex-digit digest — the
    "semantic hash" of the compile, stable across pool widths. *)
