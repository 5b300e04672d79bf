(** Linear / mixed-integer model builder.

    This is the modelling layer that replaces Gurobi in the paper's flow.
    Variables have bounds and a kind; constraints are linear with
    [<=], [>=] or [=]; the objective is a linear expression. *)

type var_kind = Continuous | Binary | Integer

type relation = Le | Ge | Eq

type t

val create : string -> t
val name : t -> string

val add_var : t -> ?lo:float -> ?hi:float -> ?kind:var_kind -> string -> int
(** Defaults: [lo = 0.], [hi = infinity], [kind = Continuous]. Binary
    variables are clamped to [\[0, 1\]]. Returns the variable index. *)

val n_vars : t -> int
val var_name : t -> int -> string
val var_kind : t -> int -> var_kind
val bounds : t -> int -> float * float
val set_bounds : t -> int -> lo:float -> hi:float -> unit

val add_constr : t -> ?name:string -> (float * int) list -> relation -> float -> unit
(** [add_constr t terms rel rhs] adds [sum terms rel rhs]; terms are
    (coefficient, variable) pairs, repeated variables are summed. *)

val n_constrs : t -> int
val constr : t -> int -> (float * int) list * relation * float

val col_major : t -> Sparse.t array
(** Column-major sparse view of the constraint matrix (one {!Sparse.t}
    of (row, coefficient) entries per variable), cached on the model and
    rebuilt only when rows or variables were added since the last call.
    Bound and objective edits — the B&B case — reuse the cached view, so
    the per-node cost of the revised simplex stays proportional to the
    work it does rather than to model size. *)

val set_objective : t -> maximize:bool -> (float * int) list -> unit
val objective : t -> bool * (float * int) list

val eval_expr : (float * int) list -> float array -> float

val feasible : t -> float array -> bool
(** Whether an assignment satisfies all constraints and bounds, to an
    absolute tolerance of [1e-6]. *)

(** A certificate check failure: which row, bound or integrality
    requirement an assignment violates, with the offending values. Used
    by the lint layer to audit solver output instead of trusting it. *)
type violation =
  | V_constr of { row : int; name : string; lhs : float; rel : relation; rhs : float }
  | V_bound of { var : int; value : float; lo : float; hi : float }
  | V_integrality of { var : int; value : float }

val violations : t -> float array -> violation list
(** Every bound, integrality and constraint-row violation of an
    assignment, in that order, each reported once. Unlike {!feasible}
    this also checks integrality of [Binary]/[Integer] variables. Raises
    [Invalid_argument] if the assignment length differs from {!n_vars}. *)

val pp_violation : t -> Format.formatter -> violation -> unit
