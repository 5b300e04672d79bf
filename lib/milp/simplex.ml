type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

(* nonbasic/basic state per variable, packed into a byte for the warm
   token *)
let st_basic = 0
let st_lower = 1
let st_upper = 2
let st_free = 3 (* nonbasic free variable, parked at 0 *)

type basis = { w_nv : int; w_m : int; w_basic : int array; w_stat : Bytes.t }

let ftol = 1e-7 (* primal feasibility tolerance *)
let dtol = 1e-7 (* reduced-cost (dual) tolerance *)
let ztol = 1e-9 (* pivot-element threshold *)
let refactor_every = 64
let bland_threshold = 20_000
let iteration_limit = 500_000

type state = {
  nv : int;            (* structural variables *)
  m : int;             (* rows; slack j of row i is variable nv + i *)
  ntot : int;
  mutable cols : Sparse.t array;  (* structural columns only *)
  lob : float array;   (* ntot *)
  upb : float array;   (* ntot *)
  b : float array;     (* m *)
  cost : float array;  (* ntot, phase-2 minimisation costs *)
  stat : int array;    (* ntot *)
  xval : float array;  (* ntot *)
  basic : int array;   (* m *)
  base : Basis.t;
  d : float array;     (* m: the FTRANed entering column *)
  y : float array;     (* m: the BTRANed pricing vector *)
  rhs : float array;   (* m: b - N x_N *)
  mutable pivots : int;
  mutable refactors : int;
}

let col s j = if j < s.nv then s.cols.(j) else Sparse.unit (j - s.nv)

(* y^T a_j without materialising slack columns *)
let col_dot s j y = if j < s.nv then Sparse.dot s.cols.(j) y else y.(j - s.nv)

(* scatter column j into the dense work vector *)
let col_scatter s j d =
  Array.fill d 0 s.m 0.;
  if j < s.nv then Sparse.iter (fun i c -> d.(i) <- c) s.cols.(j)
  else d.(j - s.nv) <- 1.

let factorize s = Basis.factorize s.base ~col:(col s) s.basic

let refactorize s =
  factorize s;
  s.refactors <- s.refactors + 1

(* x_B = B^-1 (b - N x_N); also snaps nonbasic values onto their bound
   (bounds can have moved since the warm basis was recorded) *)
let compute_basics s =
  let rhs = s.rhs in
  Array.blit s.b 0 rhs 0 s.m;
  for j = 0 to s.ntot - 1 do
    if s.stat.(j) <> st_basic then begin
      let v =
        if s.stat.(j) = st_lower then s.lob.(j)
        else if s.stat.(j) = st_upper then s.upb.(j)
        else 0.
      in
      s.xval.(j) <- v;
      if v <> 0. then
        if j < s.nv then Sparse.axpy (-.v) s.cols.(j) rhs
        else rhs.(j - s.nv) <- rhs.(j - s.nv) -. v
    end
  done;
  Basis.ftran s.base rhs;
  for i = 0 to s.m - 1 do
    s.xval.(s.basic.(i)) <- rhs.(i)
  done

(* a nonbasic status consistent with the (possibly changed) bounds *)
let default_stat lo hi =
  if lo > neg_infinity then st_lower else if hi < infinity then st_upper else st_free

let cold_basis s =
  for j = 0 to s.ntot - 1 do
    s.stat.(j) <- default_stat s.lob.(j) s.upb.(j)
  done;
  for i = 0 to s.m - 1 do
    s.basic.(i) <- s.nv + i;
    s.stat.(s.nv + i) <- st_basic
  done

let load_warm s (w : basis) =
  if w.w_nv <> s.nv || w.w_m <> s.m then false
  else begin
    let ok = ref true in
    let in_basis = Array.make s.ntot false in
    Array.iter
      (fun j -> if j < 0 || j >= s.ntot || in_basis.(j) then ok := false else in_basis.(j) <- true)
      w.w_basic;
    if !ok then begin
      Array.blit w.w_basic 0 s.basic 0 s.m;
      for j = 0 to s.ntot - 1 do
        if in_basis.(j) then s.stat.(j) <- st_basic
        else begin
          let st = Char.code (Bytes.get w.w_stat j) in
          (* sanitize against bounds that moved since the token was cut *)
          s.stat.(j) <-
            (if st = st_lower && s.lob.(j) > neg_infinity then st_lower
             else if st = st_upper && s.upb.(j) < infinity then st_upper
             else default_stat s.lob.(j) s.upb.(j))
        end
      done
    end;
    !ok
  end

let snapshot s =
  let w_stat = Bytes.create s.ntot in
  for j = 0 to s.ntot - 1 do
    Bytes.set w_stat j (Char.chr s.stat.(j))
  done;
  { w_nv = s.nv; w_m = s.m; w_basic = Array.sub s.basic 0 s.m; w_stat }

(* ---- one simplex phase (shared machinery) ----------------------- *)

(* Entering candidates use the uniform reduced cost r_j = c_j - y^T a_j
   (phase 1: c_j = 0 and y = B^-T sigma, sigma the infeasibility
   gradient over basic rows). A nonbasic-at-lower variable improves when
   r_j < -dtol (moves up), at-upper when r_j > dtol (moves down), free
   in either case. *)

type step =
  | S_flip of float
  | S_pivot of { t : float; row : int; leave_stat : int }
  | S_unbounded

let ratio_test s ~phase1 ~j ~dir ~d =
  (* limit from the entering variable's own opposite bound (a bound
     flip leaves the basis unchanged) *)
  let t_flip =
    if dir > 0. then if s.upb.(j) < infinity then s.upb.(j) -. s.xval.(j) else infinity
    else if s.lob.(j) > neg_infinity then s.xval.(j) -. s.lob.(j)
    else infinity
  in
  let t_best = ref infinity and row_best = ref (-1) in
  let d_best = ref 0. and leave_best = ref st_lower in
  let bland = s.pivots > bland_threshold in
  for i = 0 to s.m - 1 do
    let di = d.(i) in
    if abs_float di > ztol then begin
      let rate = -.dir *. di in
      let bv = s.basic.(i) in
      let v = s.xval.(bv) and lo = s.lob.(bv) and hi = s.upb.(bv) in
      let consider t leave_stat =
        let t = if t < 0. then 0. else t in
        let replace =
          t < !t_best -. 1e-9
          || t < !t_best +. 1e-9
             && !row_best >= 0
             && (if bland then bv < s.basic.(!row_best) else abs_float di > abs_float !d_best)
        in
        if !row_best < 0 || replace then begin
          t_best := t;
          row_best := i;
          d_best := di;
          leave_best := leave_stat
        end
      in
      if phase1 && v < lo -. ftol then begin
        (* infeasible below: blocks where the gradient breaks, at lo *)
        if rate > 0. then consider ((lo -. v) /. rate) st_lower
      end
      else if phase1 && v > hi +. ftol then begin
        if rate < 0. then consider ((v -. hi) /. -.rate) st_upper
      end
      else if rate > 0. then begin
        if hi < infinity then consider ((hi -. v) /. rate) st_upper
      end
      else if lo > neg_infinity then consider ((v -. lo) /. -.rate) st_lower
    end
  done;
  if !row_best = -1 && t_flip = infinity then S_unbounded
  else if t_flip <= !t_best +. 1e-12 && t_flip < infinity then S_flip t_flip
  else S_pivot { t = !t_best; row = !row_best; leave_stat = !leave_best }

let apply_rates s ~dir ~d ~t =
  if t <> 0. then
    for i = 0 to s.m - 1 do
      let bv = s.basic.(i) in
      s.xval.(bv) <- s.xval.(bv) -. (dir *. d.(i) *. t)
    done

(* Returns [`Progress] after a flip or pivot, [`Optimal] when no
   improving column exists, [`Unbounded] on an unbounded improving ray
   (phase 2 only; phase 1's objective is bounded below by 0). *)
let iterate s ~phase1 ~y ~d =
  let bland = s.pivots > bland_threshold in
  (* entering column *)
  let enter = ref (-1) and enter_dir = ref 1. and best_score = ref dtol in
  (try
     for j = 0 to s.ntot - 1 do
       let st = s.stat.(j) in
       if st <> st_basic && s.lob.(j) < s.upb.(j) then begin
         let r = (if phase1 then 0. else s.cost.(j)) -. col_dot s j y in
         let score, dir =
           if st = st_lower then (-.r, 1.)
           else if st = st_upper then (r, -1.)
           else (abs_float r, if r < 0. then 1. else -1.)
         in
         if score > !best_score then begin
           best_score := score;
           enter := j;
           enter_dir := dir;
           if bland then raise Exit
         end
       end
     done
   with Exit -> ());
  if !enter = -1 then `Optimal
  else begin
    let j = !enter and dir = !enter_dir in
    col_scatter s j d;
    Basis.ftran s.base d;
    s.pivots <- s.pivots + 1;
    match ratio_test s ~phase1 ~j ~dir ~d with
    | S_unbounded -> `Unbounded
    | S_flip t ->
      apply_rates s ~dir ~d ~t;
      s.xval.(j) <- s.xval.(j) +. (dir *. t);
      s.stat.(j) <- (if s.stat.(j) = st_lower then st_upper else st_lower);
      `Progress
    | S_pivot { t; row; leave_stat } -> (
      apply_rates s ~dir ~d ~t;
      s.xval.(j) <- s.xval.(j) +. (dir *. t);
      let leaving = s.basic.(row) in
      s.stat.(leaving) <- leave_stat;
      (* snap the leaving variable exactly onto its blocking bound *)
      s.xval.(leaving) <-
        (if leave_stat = st_lower then s.lob.(leaving) else s.upb.(leaving));
      s.basic.(row) <- j;
      s.stat.(j) <- st_basic;
      match Basis.update s.base ~row d with
      | () ->
        if Basis.n_etas s.base >= refactor_every then begin
          refactorize s;
          compute_basics s
        end;
        `Progress
      | exception Basis.Singular ->
        (* numerically degenerate update: rebuild the factors for the
           new basis from scratch instead *)
        refactorize s;
        compute_basics s;
        `Progress)
  end

(* the infeasibility gradient over basic rows, into [s.y]; false when
   primal feasible *)
let sigma s =
  let g = s.y in
  let any = ref false in
  for i = 0 to s.m - 1 do
    let bv = s.basic.(i) in
    let v = s.xval.(bv) in
    if v < s.lob.(bv) -. ftol then begin
      g.(i) <- -1.;
      any := true
    end
    else if v > s.upb.(bv) +. ftol then begin
      g.(i) <- 1.;
      any := true
    end
    else g.(i) <- 0.
  done;
  !any

let max_infeasibility s =
  let worst = ref 0. in
  for i = 0 to s.m - 1 do
    let bv = s.basic.(i) in
    let v = s.xval.(bv) in
    if v < s.lob.(bv) then worst := Float.max !worst (s.lob.(bv) -. v);
    if v > s.upb.(bv) then worst := Float.max !worst (v -. s.upb.(bv))
  done;
  !worst

let run_phase1 s =
  let iters = ref 0 in
  let rec loop () =
    incr iters;
    if !iters > iteration_limit then failwith "Simplex: phase 1 iteration limit";
    if not (sigma s) then `Feasible
    else begin
      Basis.btran s.base s.y;
      match iterate s ~phase1:true ~y:s.y ~d:s.d with
      | `Progress -> loop ()
      | `Unbounded -> failwith "Simplex: phase 1 unbounded (impossible)"
      | `Optimal ->
        (* no improving column while still infeasible: refresh the
           factors once to rule out numerical drift, then decide *)
        refactorize s;
        compute_basics s;
        if max_infeasibility s > 1e-6 then `Infeasible
        else `Feasible
    end
  in
  loop ()

let run_phase2 s =
  let cb = s.y in
  let iters = ref 0 in
  let rec loop () =
    incr iters;
    if !iters > iteration_limit then failwith "Simplex: phase 2 iteration limit";
    (* a pivot can push a basic variable out of bounds numerically; if
       so, repair through phase 1 (cheap: the basis is near-feasible) *)
    if max_infeasibility s > 10. *. ftol then
      match run_phase1 s with `Infeasible -> `Infeasible | `Feasible -> loop ()
    else begin
      for i = 0 to s.m - 1 do
        cb.(i) <- s.cost.(s.basic.(i))
      done;
      Basis.btran s.base cb;
      match iterate s ~phase1:false ~y:cb ~d:s.d with
      | `Progress -> loop ()
      | `Unbounded -> `Unbounded
      | `Optimal -> `Optimal
    end
  in
  loop ()

(* ---- driver ------------------------------------------------------ *)

(* The states of one sequence of solves: a solve reuses the previous
   state's arrays (its factorisation included) when the model has the
   same shape, and reloads everything else from the model. *)
type workspace = { mutable state : state option }

let workspace () = { state = None }

let alloc_state nv m =
  let ntot = nv + m in
  {
    nv;
    m;
    ntot;
    cols = [||];
    lob = Array.make ntot 0.;
    upb = Array.make ntot 0.;
    b = Array.make m 0.;
    cost = Array.make ntot 0.;
    stat = Array.make ntot st_lower;
    xval = Array.make ntot 0.;
    basic = Array.make m 0;
    base = Basis.create m;
    d = Array.make m 0.;
    y = Array.make m 0.;
    rhs = Array.make m 0.;
    pivots = 0;
    refactors = 0;
  }

(* load the bounded-variable internal form of [lp] into the workspace's
   state; None when some variable box is empty (trivially infeasible) *)
let make_state ws lp =
  let nv = Lp.n_vars lp in
  let m = Lp.n_constrs lp in
  let s =
    match ws.state with
    | Some s when s.nv = nv && s.m = m -> s
    | _ ->
      let s = alloc_state nv m in
      ws.state <- Some s;
      s
  in
  let lob = s.lob and upb = s.upb in
  Array.fill lob 0 s.ntot 0.;
  Array.fill upb 0 s.ntot 0.;
  let empty_box = ref false in
  for v = 0 to nv - 1 do
    let lo, hi = Lp.bounds lp v in
    lob.(v) <- lo;
    upb.(v) <- hi;
    if lo > hi then empty_box := true
  done;
  if !empty_box then None
  else begin
    (* slack of row i is variable nv+i with sign fixed by the relation
       (lob/upb start at 0, so Eq slacks are already pinned) *)
    for i = 0 to m - 1 do
      let _, rel, rhs = Lp.constr lp i in
      s.b.(i) <- rhs;
      let sj = nv + i in
      (match rel with
      | Lp.Le -> upb.(sj) <- infinity
      | Lp.Ge -> lob.(sj) <- neg_infinity
      | Lp.Eq -> ())
    done;
    let maximize, obj = Lp.objective lp in
    let cost = s.cost in
    Array.fill cost 0 s.ntot 0.;
    let sign = if maximize then -1. else 1. in
    List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. (sign *. c)) obj;
    s.cols <- Lp.col_major lp;
    Array.fill s.stat 0 s.ntot st_lower;
    Array.fill s.xval 0 s.ntot 0.;
    s.pivots <- 0;
    s.refactors <- 0;
    Some s
  end

let solve_basis ?(ws = workspace ()) ?warm lp =
  match make_state ws lp with
  | None -> (Infeasible, None)
  | Some s ->
    let _, obj = Lp.objective lp in
    let warm_loaded = match warm with Some w -> load_warm s w | None -> false in
    if warm_loaded then begin
      match factorize s with
      | () -> ()
      | exception Basis.Singular ->
        cold_basis s;
        factorize s
    end
    else begin
      cold_basis s;
      factorize s
    end;
    compute_basics s;
    let result =
      match run_phase1 s with
      | `Infeasible -> Infeasible
      | `Feasible -> (
        match run_phase2 s with
        | `Infeasible -> Infeasible
        | `Unbounded -> Unbounded
        | `Optimal ->
          let x = Array.sub s.xval 0 s.nv in
          Optimal { obj = Lp.eval_expr obj x; x })
    in
    Support.Trace.add "milp.simplex.pivots" s.pivots;
    Support.Trace.add "milp.simplex.refactors" s.refactors;
    (result, Some (snapshot s))

let solve ?warm lp = fst (solve_basis ?warm lp)
