(** Gate-level netlist.

    This is the substrate that replaces the paper's RTL + ODIN-II/Yosys
    step: dataflow units are elaborated (see {!Elaborate}) into a netlist
    of primitive gates, with every gate labelled by the dataflow unit it
    came from ([owner]) and the handshake timing domain it computes
    ([domain]). The technology mapper consumes the combinational portion;
    flip-flops, inputs and outputs are path endpoints. *)

type domain =
  | Data   (** datapath bits *)
  | Valid  (** forward handshake *)
  | Ready  (** backward handshake *)
  | Mixed  (** fanins span domains: a domain-interaction gate (§IV-D) *)

type kind =
  | Input of string
  | Output of string  (** one fanin *)
  | Const of bool
  | Buf               (** identity; used as a forward-declared wire *)
  | Not
  | And2
  | Or2
  | Xor2
  | Ff of bool        (** D flip-flop with reset/init value *)

type gate = private {
  id : int;
  kind : kind;
  mutable fanins : int array;  (** gate ids; -1 = not yet connected *)
  owner : int;                 (** DFG unit id; -1 for top-level IO *)
  mutable dom : domain;
}

type t

val create : string -> t
val name : t -> string
val n_gates : t -> int
val gate : t -> int -> gate
val iter : t -> (gate -> unit) -> unit

(** {2 Construction}

    All constructors take the owning DFG unit and a domain. Logical
    operations compute the result domain themselves: if the fanin domains
    disagree, the gate is [Mixed]. *)

val input : t -> owner:int -> dom:domain -> string -> int
val output : t -> owner:int -> string -> int -> int
val const : t -> owner:int -> dom:domain -> bool -> int
val wire : t -> owner:int -> dom:domain -> int
(** Forward-declared signal; connect later with {!connect}. *)

val connect : t -> int -> int -> unit
(** [connect t w src] sets the single fanin of wire/output/ff gate [w]. *)

val not_ : t -> owner:int -> int -> int
val and2 : t -> owner:int -> int -> int -> int
val or2 : t -> owner:int -> int -> int -> int
val xor2 : t -> owner:int -> int -> int -> int
val mux2 : t -> owner:int -> sel:int -> int -> int -> int
(** [mux2 ~sel a b] = if sel then a else b, expanded to primitive gates. *)

val and_list : t -> owner:int -> dom:domain -> int list -> int
(** Balanced AND tree; empty list is constant true. *)

val or_list : t -> owner:int -> dom:domain -> int list -> int

val ff : t -> owner:int -> dom:domain -> int
(** Flip-flop with reset value [false]; connect its D input later with
    {!connect}. *)

val clone_map_kind : t -> (gate -> kind) -> t
(** Structural copy with every gate's kind rewritten by the callback
    (gate ids, fanins, owners and domains are preserved). The new kind
    must keep the gate's arity or {!validate} will reject the clone.
    The test suite's mutation harness injects seeded gate flips with
    it. *)

val inputs : t -> int list
val outputs : t -> int list
val ffs : t -> int list

val count_ffs : t -> int

val validate : t -> (unit, string) result
(** Every fanin connected, arities correct. *)
