(** Datapath operations carried by [Operator] units.

    Latency/initiation-interval defaults follow the Dynamatic unit library:
    integer add/sub/compare and logic are combinational, multipliers are
    pipelined over four stages, loads take two cycles against the simple
    memory model. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Add
  | Sub
  | Mul
  | Shl            (** shift left by constant or operand *)
  | Lshr           (** logical shift right *)
  | And_
  | Or_
  | Xor_
  | Icmp of cmp
  | Select         (** cond ? a : b *)

val arity : t -> int
(** Number of data inputs. *)

val default_latency : t -> int
(** Pipeline latency in cycles (0 = combinational). *)

val default_ii : t -> int
(** Initiation interval (1 = fully pipelined). *)

val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val eval : t -> int list -> int
(** Functional semantics over OCaml ints (used by the simulator and by
    differential tests against the gate-level datapath). Operates on the
    two's-complement value truncated by the caller. *)

val apply : t -> int -> int -> int -> int
(** [apply t a b c] is [eval t [a; b; c]] for the ternary [Select] and
    [eval t [a; b]] for every binary op, which ignores [c]. It takes its
    operands unboxed, for the simulator's inner loop. *)
