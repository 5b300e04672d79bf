(* The pre-revised-simplex dense two-phase tableau solver, kept verbatim
   as a differential-testing oracle (modulo the free-variable bound fix
   below). It is never used on the hot path and emits no trace counters. *)

open Milp

type result = Simplex.result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

let eps = 1e-7

(* One variable of the original model maps to one or two non-negative
   columns: x = shift + col_pos - col_neg. *)
type var_map = { col_pos : int; col_neg : int; shift : float }

type tableau = {
  a : float array array;  (* m x n *)
  b : float array;        (* m *)
  cost : float array;     (* n, reduced cost row (minimisation) *)
  mutable z : float;      (* objective value of current basis *)
  basis : int array;      (* m, column in basis for each row *)
  m : int;
  n : int;
}

let pivot t ~row ~col =
  let piv = t.a.(row).(col) in
  let arow = t.a.(row) in
  let inv = 1. /. piv in
  for j = 0 to t.n - 1 do
    arow.(j) <- arow.(j) *. inv
  done;
  t.b.(row) <- t.b.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if abs_float f > 1e-12 then begin
        let ai = t.a.(i) in
        for j = 0 to t.n - 1 do
          ai.(j) <- ai.(j) -. (f *. arow.(j))
        done;
        t.b.(i) <- t.b.(i) -. (f *. t.b.(row))
      end
    end
  done;
  let f = t.cost.(col) in
  if abs_float f > 1e-12 then begin
    for j = 0 to t.n - 1 do
      t.cost.(j) <- t.cost.(j) -. (f *. arow.(j))
    done;
    t.z <- t.z -. (f *. t.b.(row))
  end;
  t.basis.(row) <- col

(* Minimise the current cost row over the feasible region.  [allowed j]
   filters enterable columns (used to block artificials in phase 2).
   Returns [`Optimal] or [`Unbounded]. *)
let optimize t ~allowed =
  let bland_threshold = 20_000 in
  let iter = ref 0 in
  let rec loop () =
    incr iter;
    if !iter > 200_000 then failwith "Dense_reference.optimize: iteration limit";
    let bland = !iter > bland_threshold in
    (* entering column *)
    let enter = ref (-1) in
    let best = ref (-.eps) in
    (try
       for j = 0 to t.n - 1 do
         if allowed j && t.cost.(j) < -.eps then
           if bland then begin
             enter := j;
             raise Exit
           end
           else if t.cost.(j) < !best then begin
             best := t.cost.(j);
             enter := j
           end
       done
     with Exit -> ());
    if !enter = -1 then `Optimal
    else begin
      let col = !enter in
      (* ratio test *)
      let row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        if t.a.(i).(col) > eps then begin
          let r = t.b.(i) /. t.a.(i).(col) in
          if
            r < !best_ratio -. 1e-12
            || (r < !best_ratio +. 1e-12 && !row >= 0 && t.basis.(i) < t.basis.(!row))
          then begin
            best_ratio := r;
            row := i
          end
        end
      done;
      if !row = -1 then `Unbounded
      else begin
        pivot t ~row:!row ~col;
        loop ()
      end
    end
  in
  loop ()

let solve lp =
  let nv = Lp.n_vars lp in
  (* ---- variable mapping ---- *)
  let var_maps = Array.make nv { col_pos = -1; col_neg = -1; shift = 0. } in
  let n_struct = ref 0 in
  (* finite upper bounds become explicit [terms <= ub] rows *)
  let ub_rows = ref [] in
  let empty_box = ref false in
  for v = 0 to nv - 1 do
    let lo, hi = Lp.bounds lp v in
    if lo > hi then empty_box := true;
    if lo > neg_infinity then begin
      let col = !n_struct in
      incr n_struct;
      var_maps.(v) <- { col_pos = col; col_neg = -1; shift = lo };
      if hi < infinity then ub_rows := ([ (col, 1.) ], hi -. lo) :: !ub_rows
    end
    else begin
      (* free variable: split. A finite upper bound must constrain the
         difference cp - cn, not just the positive column — otherwise
         hi < 0 is unreachable and the model is spuriously infeasible
         (the historical bug pinned by the regression suite). *)
      let cp = !n_struct in
      let cn = !n_struct + 1 in
      n_struct := !n_struct + 2;
      var_maps.(v) <- { col_pos = cp; col_neg = cn; shift = 0. };
      if hi < infinity then ub_rows := ([ (cp, 1.); (cn, -1.) ], hi) :: !ub_rows
    end
  done;
  if !empty_box then Infeasible
  else begin
  let n_struct = !n_struct in
  (* ---- rows in terms of shifted columns ---- *)
  (* each row: (coeff list over columns, relation, rhs) *)
  let rows = ref [] in
  let add_row terms rel rhs =
    let cols = Hashtbl.create 8 in
    let shift_sum = ref 0. in
    List.iter
      (fun (c, v) ->
        let vm = var_maps.(v) in
        shift_sum := !shift_sum +. (c *. vm.shift);
        let addc col k =
          Hashtbl.replace cols col (k +. Option.value (Hashtbl.find_opt cols col) ~default:0.)
        in
        addc vm.col_pos c;
        if vm.col_neg >= 0 then addc vm.col_neg (-.c))
      terms;
    let coeffs = Hashtbl.fold (fun col c acc -> (col, c) :: acc) cols [] in
    rows := (coeffs, rel, rhs -. !shift_sum) :: !rows
  in
  for i = 0 to Lp.n_constrs lp - 1 do
    let terms, rel, rhs = Lp.constr lp i in
    add_row terms rel rhs
  done;
  List.iter (fun (coeffs, ub) -> rows := (coeffs, Lp.Le, ub) :: !rows) !ub_rows;
  let rows = Array.of_list (List.rev !rows) in
  let m = Array.length rows in
  (* normalise to rhs >= 0 *)
  let rows =
    Array.map
      (fun (coeffs, rel, rhs) ->
        if rhs < 0. then
          let rel = match rel with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq in
          (List.map (fun (c, k) -> (c, -.k)) coeffs, rel, -.rhs)
        else (coeffs, rel, rhs))
      rows
  in
  (* count slacks and artificials *)
  let n_slack = Array.fold_left (fun acc (_, rel, _) -> if rel = Lp.Eq then acc else acc + 1) 0 rows in
  let n_art =
    Array.fold_left (fun acc (_, rel, _) -> if rel = Lp.Le then acc else acc + 1) 0 rows
  in
  let n = n_struct + n_slack + n_art in
  let a = Array.init m (fun _ -> Array.make n 0.) in
  let b = Array.make m 0. in
  let basis = Array.make m (-1) in
  let slack0 = n_struct in
  let art0 = n_struct + n_slack in
  let next_slack = ref 0 and next_art = ref 0 in
  Array.iteri
    (fun i (coeffs, rel, rhs) ->
      List.iter (fun (c, k) -> a.(i).(c) <- a.(i).(c) +. k) coeffs;
      b.(i) <- rhs;
      (match rel with
      | Lp.Le ->
        let s = slack0 + !next_slack in
        incr next_slack;
        a.(i).(s) <- 1.;
        basis.(i) <- s
      | Lp.Ge ->
        let s = slack0 + !next_slack in
        incr next_slack;
        a.(i).(s) <- -1.;
        let art = art0 + !next_art in
        incr next_art;
        a.(i).(art) <- 1.;
        basis.(i) <- art
      | Lp.Eq ->
        let art = art0 + !next_art in
        incr next_art;
        a.(i).(art) <- 1.;
        basis.(i) <- art))
    rows;
  let t = { a; b; cost = Array.make n 0.; z = 0.; basis; m; n } in
  (* ---- phase 1 ---- *)
  if n_art > 0 then begin
    for j = art0 to n - 1 do
      t.cost.(j) <- 1.
    done;
    (* reduce cost row against initial basis (artificials in basis) *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art0 then begin
        for j = 0 to n - 1 do
          t.cost.(j) <- t.cost.(j) -. t.a.(i).(j)
        done;
        t.z <- t.z -. t.b.(i)
      end
    done;
    match optimize t ~allowed:(fun _ -> true) with
    | `Unbounded -> failwith "Dense_reference: phase 1 unbounded (impossible)"
    | `Optimal -> ()
  end;
  let phase1_obj = -.t.z in
  if n_art > 0 && phase1_obj > 1e-6 then Infeasible
  else begin
    (* drive remaining artificials out of the basis where possible *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art0 then begin
        let found = ref (-1) in
        for j = 0 to art0 - 1 do
          if !found = -1 && abs_float t.a.(i).(j) > 1e-7 then found := j
        done;
        if !found >= 0 then pivot t ~row:i ~col:!found
        (* else the row is redundant; leave the artificial at value 0 *)
      end
    done;
    (* ---- phase 2 ---- *)
    let maximize, obj = Lp.objective lp in
    Array.fill t.cost 0 n 0.;
    t.z <- 0.;
    let sign = if maximize then 1. else -1. in
    (* internally minimise -sign * obj *)
    List.iter
      (fun (c, v) ->
        let vm = var_maps.(v) in
        t.cost.(vm.col_pos) <- t.cost.(vm.col_pos) -. (sign *. c);
        if vm.col_neg >= 0 then t.cost.(vm.col_neg) <- t.cost.(vm.col_neg) +. (sign *. c))
      obj;
    (* reduce against current basis *)
    for i = 0 to m - 1 do
      let f = t.cost.(t.basis.(i)) in
      if abs_float f > 1e-12 then begin
        for j = 0 to n - 1 do
          t.cost.(j) <- t.cost.(j) -. (f *. t.a.(i).(j))
        done;
        t.z <- t.z -. (f *. t.b.(i))
      end
    done;
    let allowed j = j < art0 in
    match optimize t ~allowed with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let xcols = Array.make n 0. in
      for i = 0 to m - 1 do
        xcols.(t.basis.(i)) <- t.b.(i)
      done;
      let x =
        Array.init nv (fun v ->
            let vm = var_maps.(v) in
            vm.shift +. xcols.(vm.col_pos)
            -. (if vm.col_neg >= 0 then xcols.(vm.col_neg) else 0.))
      in
      (* recompute the objective from x to avoid sign gymnastics *)
      Optimal { obj = Lp.eval_expr obj x; x }
  end
  end
