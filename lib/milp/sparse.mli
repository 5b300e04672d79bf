(** Sparse column vectors for the revised simplex.

    A column is an index/value pair of parallel arrays (duplicates
    merged, exact zeros dropped at construction). Columns are immutable
    once built; the solver shares them freely between the pricing loop
    and the basis factorisation. *)

type t = private { idx : int array; v : float array }

val empty : t
val of_list : (int * float) list -> t
(** Merges duplicate indices, drops zero coefficients, sorts by index. *)

val unit : int -> t
(** [unit i] is the unit column [e_i] (a slack's column). *)

val nnz : t -> int

val dot : t -> float array -> float
(** [dot c y] is the inner product of the column with a dense vector. *)

val iter : (int -> float -> unit) -> t -> unit

val axpy : float -> t -> float array -> unit
(** [axpy a c y] performs [y += a * c] into the dense vector [y]. *)
