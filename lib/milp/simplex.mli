(** Revised simplex on sparse columns for the LP relaxation.

    Bounded-variable primal simplex working on a factorised basis
    ({!Basis}: sparse product-form factors plus eta updates with
    periodic refactorisation) over the sparse column-major constraint matrix
    ({!Lp.col_major}). A refactorisation costs O(nnz + eta work), not
    O(m{^2}) (see {!Basis} for why its factors are bit-identical to a
    dense elimination's). Each solve owns its workspaces — the basis's
    eta file and solve buffer, and the entering-column, pricing and
    right-hand-side vectors — so no pivot, FTRAN or BTRAN allocates an
    m-vector. Variable bounds — including free variables and
    free variables with one finite bound — are handled implicitly as
    nonbasic-at-bound states, so no bound ever becomes a tableau row
    and no free variable is split. Phase 1 minimises the sum of primal
    infeasibilities from any starting basis (no artificial columns),
    which is what makes warm starts work: a basis inherited from a
    parent B&B node or a previous solve re-enters here and typically
    needs a handful of pivots instead of a full two-phase run.

    Pricing is Dantzig with a Bland's-rule fallback against cycling.
    Emits [milp.simplex.pivots] and [milp.simplex.refactors]
    {!Support.Trace} counters.

    The previous dense two-phase tableau is retained under [test/] as
    the [Dense_reference] oracle and cross-checked against this solver
    by the differential test suite. *)

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

type basis
(** Opaque warm-start token: the final basis and nonbasic statuses of a
    previous solve of a {e structurally identical} model (same variable
    and constraint counts; bounds may differ — that is the B&B case).
    A token that does not match the model, or that selects a singular
    basis, is ignored and the solve starts cold. *)

type workspace
(** The solver state of a sequence of solves: its bounds, values,
    factorisation and work vectors. A solve reuses the previous solve's
    arrays when the model has the same shape and reloads everything from
    the model, so results never depend on the workspace; {!Bb} keeps one
    per search, so its nodes allocate no solver arrays. A workspace
    serves one solve at a time. *)

val workspace : unit -> workspace

val solve : ?warm:basis -> Lp.t -> result
(** Solves the continuous relaxation of the model (integrality is
    handled by {!Bb}). Variable bounds are honoured natively. *)

val solve_basis : ?ws:workspace -> ?warm:basis -> Lp.t -> result * basis option
(** Like {!solve}, in [ws] (default: a fresh workspace), additionally
    returning the final basis for warm-starting subsequent solves
    ([None] when the solve never built a factorisation, e.g. an empty
    variable box). *)
