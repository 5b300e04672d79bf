(* The product-form basis factorisation as it was before factorize moved
   to reach-ordered sparse elimination over a flat eta file, kept
   verbatim as a differential-testing oracle. It chooses the same pivots
   and performs the same floating-point operations in the same order, so
   every FTRAN/BTRAN result must match Milp.Basis bit for bit. Nothing on
   the production path calls it. *)

open Milp

exception Singular

(* One product-form factor: the inverse gains a factor E that is the
   identity except in column [e_row], where the diagonal is [1/d_r] and
   the off-diagonals are [-d_i/d_r] (d the FTRANed column being
   absorbed). We store d's nonzeros directly and fold the division into
   application. Both the factorisation itself and the rank-one basis
   updates use the same representation. *)
type eta = {
  e_row : int;
  e_idx : int array;  (* rows i <> e_row with d_i <> 0 *)
  e_v : float array;  (* the d_i *)
  e_pivinv : float;   (* 1 / d_r *)
}

type t = {
  m : int;
  base : eta array;    (* factorisation, applied in order 0 .. m-1 *)
  pos2row : int array; (* pivot row assigned to basis position k *)
  mutable etas : eta array; (* rank-one updates since factorisation *)
  mutable n_etas : int;
}

let pivot_tol = 1e-11
let drop_tol = 1e-12

(* threshold partial pivoting: the structurally preferred row is kept
   whenever its magnitude is within this factor of the best live row *)
let stability_ratio = 0.01

let apply_eta e y =
  let yr = y.(e.e_row) in
  if yr <> 0. then begin
    let s = yr *. e.e_pivinv in
    y.(e.e_row) <- s;
    for j = 0 to Array.length e.e_idx - 1 do
      y.(e.e_idx.(j)) <- y.(e.e_idx.(j)) -. (e.e_v.(j) *. s)
    done
  end

let apply_eta_t e y =
  let acc = ref y.(e.e_row) in
  for j = 0 to Array.length e.e_idx - 1 do
    acc := !acc -. (e.e_v.(j) *. y.(e.e_idx.(j)))
  done;
  y.(e.e_row) <- !acc *. e.e_pivinv

let eta_of_dense ~row d m =
  let count = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && abs_float d.(i) > drop_tol then incr count
  done;
  let e_idx = Array.make !count 0 and e_v = Array.make !count 0. in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if i <> row && abs_float d.(i) > drop_tol then begin
      e_idx.(!k) <- i;
      e_v.(!k) <- d.(i);
      incr k
    end
  done;
  { e_row = row; e_idx; e_v; e_pivinv = 1. /. d.(row) }

(* Pivot order: peel column singletons (their elimination touches no
   other column) and row singletons (their multipliers touch no other
   row), which permutes the bulk of a slack-heavy basis to triangular
   form with zero fill; whatever remains — the bump — is factorised in
   index order with threshold partial pivoting. Returns (position,
   structural pivot row or -1) pairs. *)
let pivot_order m (cols : Sparse.t array) =
  let row2cols = Array.make m [] in
  let colcnt = Array.make m 0 and rowcnt = Array.make m 0 in
  Array.iteri
    (fun k c ->
      colcnt.(k) <- Sparse.nnz c;
      Sparse.iter
        (fun i _ ->
          row2cols.(i) <- k :: row2cols.(i);
          rowcnt.(i) <- rowcnt.(i) + 1)
        c)
    cols;
  let livecol = Array.make m true and liverow = Array.make m true in
  let col_q = Queue.create () and row_q = Queue.create () in
  for k = 0 to m - 1 do
    if colcnt.(k) = 1 then Queue.push k col_q
  done;
  for i = 0 to m - 1 do
    if rowcnt.(i) = 1 then Queue.push i row_q
  done;
  let order = Array.make m (0, -1) in
  let n = ref 0 in
  let emit k r =
    order.(!n) <- (k, r);
    incr n;
    livecol.(k) <- false;
    liverow.(r) <- false;
    Sparse.iter
      (fun i _ ->
        if liverow.(i) then begin
          rowcnt.(i) <- rowcnt.(i) - 1;
          if rowcnt.(i) = 1 then Queue.push i row_q
        end)
      cols.(k);
    List.iter
      (fun j ->
        if livecol.(j) then begin
          colcnt.(j) <- colcnt.(j) - 1;
          if colcnt.(j) = 1 then Queue.push j col_q
        end)
      row2cols.(r)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    while not (Queue.is_empty col_q) do
      let k = Queue.pop col_q in
      if livecol.(k) && colcnt.(k) = 1 then begin
        let r = ref (-1) in
        Sparse.iter (fun i _ -> if liverow.(i) && !r < 0 then r := i) cols.(k);
        if !r >= 0 then begin
          emit k !r;
          progress := true
        end
      end
    done;
    while not (Queue.is_empty row_q) do
      let r = Queue.pop row_q in
      if liverow.(r) && rowcnt.(r) = 1 then begin
        let k = ref (-1) in
        List.iter (fun j -> if livecol.(j) && !k < 0 then k := j) row2cols.(r);
        if !k >= 0 then begin
          emit !k r;
          progress := true
        end
      end
    done
  done;
  for k = 0 to m - 1 do
    if livecol.(k) then begin
      order.(!n) <- (k, -1);
      incr n
    end
  done;
  order

let factorize ~m ~col basic =
  let cols = Array.map col (Array.sub basic 0 m) in
  let order = pivot_order m cols in
  let base = Array.make m { e_row = 0; e_idx = [||]; e_v = [||]; e_pivinv = 1. } in
  let pos2row = Array.make m (-1) in
  let liverow = Array.make m true in
  let d = Array.make m 0. in
  for t_i = 0 to m - 1 do
    let k, r_hint = order.(t_i) in
    Array.fill d 0 m 0.;
    Sparse.iter (fun i c -> d.(i) <- c) cols.(k);
    for p = 0 to t_i - 1 do
      apply_eta base.(p) d
    done;
    (* best live row, then prefer the structural row when stable *)
    let best = ref (-1) and bestv = ref 0. in
    for i = 0 to m - 1 do
      if liverow.(i) && abs_float d.(i) > !bestv then begin
        best := i;
        bestv := abs_float d.(i)
      end
    done;
    if !best < 0 || !bestv < pivot_tol then raise Singular;
    let r =
      if r_hint >= 0 && abs_float d.(r_hint) >= stability_ratio *. !bestv then r_hint
      else !best
    in
    base.(t_i) <- eta_of_dense ~row:r d m;
    pos2row.(k) <- r;
    liverow.(r) <- false
  done;
  { m; base; pos2row; etas = [||]; n_etas = 0 }

let n_etas t = t.n_etas

(* B z = y: z.(k) = (E_m .. E_1 y).(pos2row k) *)
let lu_solve t y =
  let m = t.m in
  for p = 0 to m - 1 do
    apply_eta t.base.(p) y
  done;
  let z = Array.make m 0. in
  for k = 0 to m - 1 do
    z.(k) <- y.(t.pos2row.(k))
  done;
  Array.blit z 0 y 0 m

(* B^T x = y: x = E_1^T .. E_m^T P^T y with (P^T y).(pos2row k) = y.(k) *)
let lu_solve_t t y =
  let m = t.m in
  let z = Array.make m 0. in
  for k = 0 to m - 1 do
    z.(t.pos2row.(k)) <- y.(k)
  done;
  for p = m - 1 downto 0 do
    apply_eta_t t.base.(p) z
  done;
  Array.blit z 0 y 0 m

let ftran t y =
  lu_solve t y;
  for k = 0 to t.n_etas - 1 do
    apply_eta t.etas.(k) y
  done

let btran t y =
  for k = t.n_etas - 1 downto 0 do
    apply_eta_t t.etas.(k) y
  done;
  lu_solve_t t y

let update t ~row d =
  if abs_float d.(row) < 1e-9 then raise Singular;
  let e = eta_of_dense ~row d t.m in
  if t.n_etas = Array.length t.etas then begin
    let grown = Array.make (max 8 (2 * t.n_etas)) e in
    Array.blit t.etas 0 grown 0 t.n_etas;
    t.etas <- grown
  end;
  t.etas.(t.n_etas) <- e;
  t.n_etas <- t.n_etas + 1
