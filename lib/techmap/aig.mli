(** And-inverter graph with structural hashing.

    This replaces the paper's logic-synthesis step (Yosys + ABC): building
    the AIG from the elaborated netlist performs the cross-unit merging
    and constant propagation that make pre-characterised per-unit delays
    wrong — e.g. the removed AND gate of the paper's Figure 1 disappears
    here through constant folding and structural hashing.

    Nodes are numbered densely; node 0 is constant false. A {e literal}
    is [2*node + complement]. Node fanins always reference lower-numbered
    nodes, so node order is a topological order. *)

type t
type lit = int

val create : unit -> t

val lit_false : lit
val lit_true : lit

val n_nodes : t -> int

val ci : t -> owner:int -> dom:Net.domain -> lit
(** New combinational input (primary input or flip-flop output). *)

val bnot : lit -> lit

val band : t -> owner:int -> lit -> lit -> lit
(** Hashed AND with constant folding and the trivial-identity rules
    ([a·a = a], [a·a' = 0], ...). If hashing merges logic created by two
    different units, the node keeps its first creator's label — the
    "contributes most" rule of §IV-A resolves the rest at LUT level. *)

val bor : t -> owner:int -> lit -> lit -> lit
val bxor : t -> owner:int -> lit -> lit -> lit

val add_co : t -> owner:int -> tag:int -> lit -> unit
(** Register a combinational output (flip-flop D input or primary
    output); [tag] identifies the netlist gate it drives. *)

val cos : t -> (int * int * lit) list
(** [(co_index, tag, literal)] in registration order. *)

val is_ci : t -> int -> bool
val fanins : t -> int -> lit * lit
(** Fanins of an AND node; raises [Invalid_argument] on CIs/constant. *)

val owner : t -> int -> int
val dom : t -> int -> Net.domain

val node_of_lit : lit -> int
val is_complement : lit -> bool

val depth : t -> int
(** AND-node depth from CIs (an upper proxy for mapped levels). *)
