(** Factorised simplex basis: sparse product-form factorisation with
    singleton triangularisation, updated by further eta vectors between
    refactorisations.

    The basis matrix [B] is the [m x m] submatrix of the (column-sparse)
    constraint matrix selected by the basic variables. {!factorize}
    first peels column and row singletons — which permutes the bulk of a
    slack-heavy LP basis to triangular form with zero fill — and
    factorises the remaining bump with threshold partial pivoting,
    storing everything as eta vectors in one flat eta file; each
    subsequent simplex pivot appends one more eta instead of
    refactorising, so an FTRAN/BTRAN costs one pass over the file. The
    solver refactorises periodically (and on numerical-stability
    failures), which also squashes the eta file.

    {b Cost.} Absorbing a column applies only the earlier etas it
    reaches, in reach order: the column's nonzero rows push the etas
    pivoted on them onto a min-heap of eta indices, which is popped in
    increasing order, and each applied eta pushes the etas of the rows
    it newly fills. A factorisation therefore costs O(nnz + eta work)
    plus heap logarithms, with O(m) set-up per call and none per column.
    The buffering MILPs' bases are overwhelmingly slack and network
    columns, and a column applies only a couple of earlier etas.

    {b Exactness.} The factors are bit-identical to a dense elimination
    that applies every earlier eta to every column in index order. An
    eta changes the column only when the column is nonzero on the eta's
    pivot row, and the heap pops etas in index order, so every eta that
    can change that row has been applied before the eta's turn comes. A
    row that first becomes nonzero while eta [p] is applied pushes only
    its etas after [p]: the dense order reached the earlier ones while
    the row was still zero, when they did nothing. Pivot choices
    (largest live magnitude, lowest row on ties, the stability test
    against the structural row), eta entry order (ascending rows) and
    every floating-point operation are the dense elimination's, so no
    pivot, node or digest of the solver depends on the sparse scheme.
    The structural row hint is taken without a liveness test, as it
    always was, so a row can carry more than one base eta; a row's etas
    are chained, and each is pushed by the same rule.

    {b Storage.} A basis owns its eta file and every workspace its
    factorisations and solves use, so once the eta file has grown to its
    working size, {!factorize}, {!update}, {!ftran} and {!btran}
    allocate no array. *)

type t

exception Singular
(** The selected basic columns are linearly dependent (or numerically
    indistinguishable from it). *)

val create : int -> t
(** [create m] is the identity factorisation of an [m]-row basis, with
    the workspaces {!factorize} reuses. *)

val factorize : t -> col:(int -> Sparse.t) -> int array -> unit
(** [factorize b ~col basic] LU-factorises, in place, the basis matrix
    whose [k]-th column is [col basic.(k)], dropping any updates. Raises
    {!Singular}; [b] then holds no valid factorisation until the next
    successful [factorize]. *)

val ftran : t -> float array -> unit
(** [ftran b y] solves [B x = y] in place ([y] becomes [x]). *)

val btran : t -> float array -> unit
(** [btran b y] solves [B^T x = y] in place. *)

val update : t -> row:int -> float array -> unit
(** [update b ~row d] replaces basic position [row] given [d = B^-1 a_q]
    (the FTRANed entering column, as returned by {!ftran}) by pushing a
    product-form eta. Raises {!Singular} if the pivot element
    [d.(row)] is numerically zero. *)

val n_etas : t -> int
(** Etas accumulated since the last {!factorize} (refactorisation
    trigger for the caller). *)
