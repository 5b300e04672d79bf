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
    counterexample lane. With [exact], every witness is additionally
    replayed through the scalar oracles and the offending LUT's function
    is exhaustively re-derived from its cone (2^K cases, K <= 6) by an
    independent cone evaluator. *)

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
  exact_checked : int;             (** witnesses replayed (exact mode) *)
  exact_confirmed : int;           (** witnesses that reproduced *)
}

val run :
  ?vectors:int -> ?seed:int -> ?exact:bool -> Net.t -> Techmap.Lutgraph.t -> result
(** Validate netlist vs. [lg.synth.aig] vs. the LUT cover. [vectors]
    defaults to 256 (4 words), [seed] is fixed, cuts larger than
    {!Techmap.Lutgraph.lut_k} leaves are structural errors, [exact] turns
    on witness confirmation. Emits [tv.*] trace counters. Raises
    [Failure] on a combinationally cyclic netlist. *)

val signature_hex : result -> string
(** All per-CO signatures folded to one 16-hex-digit digest — the
    "semantic hash" of the compile, stable across pool widths. *)

val net_signatures : ?vectors:int -> ?seed:int -> Net.t -> (int * int64) list
(** Per-CO signatures of a netlist alone (outputs then FF D inputs, by
    driving gate id). Two netlists with equal gate ids can be compared
    signature-for-signature; the mutation harness uses this to prove a
    seeded gate flip is observable. *)
