(** Mapped LUT graph.

    Each LUT covers a cone of AIG nodes, is labelled with the dataflow
    unit that contributes most nodes to that cone (the paper's §IV-A
    labelling rule), and carries the timing domain of its cone. Edges of
    this graph — LUT to LUT, register/input to LUT, LUT to register/output
    — are what the LUT-to-DFG mapper of the timing model consumes. *)

type lut = {
  lid : int;
  root : int;           (** AIG node implemented by this LUT *)
  leaves : int array;   (** AIG nodes feeding it (CIs or other LUT roots) *)
  owner : int;          (** DFG unit id; -1 if undetermined *)
  dom : Net.domain;
  cone_size : int;
}

(** An endpoint of a register-to-register path: either a mapped LUT or a
    sequential/IO netlist gate. *)
type endpoint =
  | Lut of int          (** LUT id *)
  | Seq of int          (** netlist gate id (FF, Input or Output) *)

type edge = { e_src : endpoint; e_dst : endpoint }

type t = {
  synth : Synth.t;
  luts : lut array;
  lut_of_node : int array;   (** AIG node → LUT id, -1 if not a LUT root *)
  edges : edge list;         (** all combinational edges incl. to/from seq *)
  levels : int array;        (** per-LUT logic level (1 = fed by seq only) *)
  max_level : int;           (** the circuit's logic-level count *)
}

val lut_k : int
(** 6: the LUT input count of the target device (a Stratix-IV ALM in
    6-LUT mode), the mapper's default cut size. *)

val level_delay : float
(** 0.7 ns per logic level: the paper's calibration constant. The
    mapping-aware timing model charges it per LUT, the pre-characterised
    model per level of an isolated unit, static timing per LUT on the
    critical path, and the MILP clock-period target is a level count
    times it. *)

val n_luts : t -> int

val lut_edges : t -> (int * int) list
(** Only the LUT→LUT edges, as (src lid, dst lid). *)

val owner_of_endpoint : t -> Net.t -> endpoint -> int
(** DFG unit owning an endpoint (the netlist gate's owner for [Seq]). *)

val luts_of_unit : t -> int -> lut list
(** All LUTs labelled with a given unit. *)
