(** The dense-scan product-form basis factorisation, retained as a
    testing oracle.

    This is the factorisation {!Milp.Basis} replaced: for every column it
    fills an m-vector, walks every earlier eta and scans every row, so a
    factorisation costs O(m^2). It is kept solely so the
    [basis-differential] suite can check that the sparse factorisation
    produces bit-identical solves. Nothing on the production path calls
    it. *)

type t

exception Singular

val factorize : m:int -> col:(int -> Milp.Sparse.t) -> int array -> t
val ftran : t -> float array -> unit
val btran : t -> float array -> unit
val update : t -> row:int -> float array -> unit
val n_etas : t -> int
