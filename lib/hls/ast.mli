(** Abstract syntax of the mini-C kernel language.

    The subset covers what the paper's PolyBench/MachSuite-derived
    kernels need: [int] scalars, one-dimensional [int] arrays (2-D
    accesses are written with explicit flat indexing), [for]/[while]
    loops, [if]/[else], and integer arithmetic. Semantics are unsigned,
    modulo the circuit's data width. *)

type binop =
  | Add | Sub | Mul
  | Shl | Lshr
  | And | Or | Xor
  | Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Var of string
  | Load of string * expr            (** a\[e\] *)
  | Binop of binop * expr * expr
  | Not of expr                      (** !e = (e == 0) *)
  | Ternary of expr * expr * expr    (** c ? a : b — if-converted to a select unit *)

type stmt =
  | Decl of string * expr            (** int x = e; *)
  | Assign of string * expr          (** x = e; *)
  | Store of string * expr * expr    (** a\[e1\] = e2; *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | Return of expr
  | Break                            (** leave the innermost loop *)
  | Continue                         (** next iteration of the innermost loop *)

type param = Scalar of string | Array of string * int  (** name, size *)

type func = {
  fname : string;
  params : param list;
  body : stmt list;
}

val pp_expr : Format.formatter -> expr -> unit
val pp_func : Format.formatter -> func -> unit
