(** Dense two-phase tableau simplex, retained as a testing oracle.

    This is the solver {!Milp.Simplex} replaced. It is kept (with one bug
    fixed: a finite upper bound on a free variable now constrains the
    split difference [cp - cn <= hi] instead of only the positive
    column, so [hi < 0] is no longer spuriously infeasible) solely so
    the differential test suite can cross-check the revised simplex on
    randomly generated models. Nothing on the production path calls it
    and it emits no trace counters. *)

type result = Milp.Simplex.result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

val solve : Milp.Lp.t -> result
(** Solves the continuous relaxation, honouring variable bounds via
    shifts, free-variable splitting and explicit upper-bound rows. *)
