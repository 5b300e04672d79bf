(** Failure minimization: shrink a failing kernel while preserving the
    failure.

    The predicate is the caller's: it re-runs whatever oracle caught the
    original failure and answers "does this candidate still fail the
    same way?". Candidates that fail {e differently} — or crash the
    front end — must make the predicate return [false], so minimization
    never drifts to an unrelated bug. *)

val shrink_stmts :
  (Hls.Ast.stmt list -> bool) -> Hls.Ast.stmt list -> Hls.Ast.stmt list
(** Greedy fixpoint statement shrinking. Tried, innermost-last, on every
    position: drop the statement; replace an [if] by either branch; hoist
    a loop body in place of the loop; drop an [else]; shrink inside
    bodies. Runs to a fixpoint of the predicate. *)

val shrink_func :
  (Hls.Ast.func -> bool) -> Hls.Ast.func -> Hls.Ast.func
(** {!shrink_stmts} applied to a function body (the return statement is
    part of the body and may itself be dropped only if the predicate
    accepts that). *)

val size : Hls.Ast.func -> int
(** Statement count (nested included) — the metric shrinking reduces. *)
