exception Singular

(* The factors are a file of product-form etas. Eta p makes the inverse
   gain a factor E that is the identity except in column [e_row.(p)],
   where the diagonal is [1/d_r] and the off-diagonals are [-d_i/d_r]
   (d the FTRANed column being absorbed). We store d's nonzeros directly
   and fold the division into application. The file is flat: eta p's
   entries are [e_idx]/[e_v] at [e_start.(p) .. e_start.(p+1) - 1], in
   ascending row order. The first [n_base] etas are the factorisation;
   the rest are the rank-one basis updates since. *)
type t = {
  m : int;
  pos2row : int array; (* pivot row assigned to basis position k *)
  mutable n_base : int;
  mutable n_eta : int;
  mutable e_row : int array;
  mutable e_pivinv : float array; (* 1 / d_r *)
  mutable e_start : int array;    (* one longer than [e_row] *)
  mutable e_idx : int array;
  mutable e_v : float array;
  tmp : float array;              (* FTRAN/BTRAN permutation buffer *)
  (* factorisation workspace, reused by every {!factorize} *)
  cols : Sparse.t array;
  ord_col : int array;            (* pivot order: column ... *)
  ord_row : int array;            (* ... and structural row, or -1 *)
  colcnt : int array;
  rowcnt : int array;
  livecol : Bytes.t;
  liverow : Bytes.t;
  col_q : int array;
  row_q : int array;
  row_ptr : int array;            (* row -> columns, m + 1 offsets ... *)
  mutable row_cols : int array;   (* ... into this *)
  row_eta : int array;            (* first base eta pivoted on the row, or -1 *)
  e_next : int array;             (* next base eta on the same row, or -1 *)
  heap : int array;
  pat : int array;                (* nonzero pattern of [d] *)
  inpat : Bytes.t;
  d : float array;                (* zero outside [pat] between columns *)
}

let pivot_tol = 1e-11
let drop_tol = 1e-12

(* threshold partial pivoting: the structurally preferred row is kept
   whenever its magnitude is within this factor of the best live row *)
let stability_ratio = 0.01

let create m =
  let cap = m + 16 in
  {
    m;
    pos2row = Array.init m Fun.id;
    n_base = 0;
    n_eta = 0;
    e_row = Array.make cap 0;
    e_pivinv = Array.make cap 0.;
    e_start = Array.make (cap + 1) 0;
    e_idx = Array.make (4 * cap) 0;
    e_v = Array.make (4 * cap) 0.;
    tmp = Array.make m 0.;
    cols = Array.make m Sparse.empty;
    ord_col = Array.make m 0;
    ord_row = Array.make m 0;
    colcnt = Array.make m 0;
    rowcnt = Array.make m 0;
    livecol = Bytes.make m '\000';
    liverow = Bytes.make m '\000';
    col_q = Array.make m 0;
    row_q = Array.make m 0;
    row_ptr = Array.make (m + 1) 0;
    row_cols = Array.make (2 * m) 0;
    row_eta = Array.make m (-1);
    e_next = Array.make m (-1);
    heap = Array.make m 0;
    pat = Array.make m 0;
    inpat = Bytes.make m '\000';
    d = Array.make m 0.;
  }

let live b i = Bytes.unsafe_get b i <> '\000'
let set_live b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

(* ---- the eta file ------------------------------------------------- *)

let grow_entries t need =
  let cap = Array.length t.e_idx in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let idx = Array.make cap' 0 and v = Array.make cap' 0. in
    Array.blit t.e_idx 0 idx 0 cap;
    Array.blit t.e_v 0 v 0 cap;
    t.e_idx <- idx;
    t.e_v <- v
  end

(* room for one more eta with up to [nz] entries *)
let reserve t nz =
  let cap = Array.length t.e_row in
  if t.n_eta = cap then begin
    let cap' = 2 * cap in
    let row = Array.make cap' 0 and pivinv = Array.make cap' 0. in
    let start = Array.make (cap' + 1) 0 in
    Array.blit t.e_row 0 row 0 cap;
    Array.blit t.e_pivinv 0 pivinv 0 cap;
    Array.blit t.e_start 0 start 0 (cap + 1);
    t.e_row <- row;
    t.e_pivinv <- pivinv;
    t.e_start <- start
  end;
  grow_entries t (t.e_start.(t.n_eta) + nz)

(* closes the eta whose entries were written from [e_start.(n_eta)] up
   to [stop] *)
let close_eta t ~row ~pivinv stop =
  let p = t.n_eta in
  t.e_row.(p) <- row;
  t.e_pivinv.(p) <- pivinv;
  t.e_start.(p + 1) <- stop;
  t.n_eta <- p + 1

let apply_eta t p y =
  let row = t.e_row.(p) in
  let yr = y.(row) in
  if yr <> 0. then begin
    let s = yr *. t.e_pivinv.(p) in
    y.(row) <- s;
    let idx = t.e_idx and v = t.e_v in
    for j = t.e_start.(p) to t.e_start.(p + 1) - 1 do
      y.(idx.(j)) <- y.(idx.(j)) -. (v.(j) *. s)
    done
  end

let apply_eta_t t p y =
  let idx = t.e_idx and v = t.e_v in
  let acc = ref y.(t.e_row.(p)) in
  for j = t.e_start.(p) to t.e_start.(p + 1) - 1 do
    acc := !acc -. (v.(j) *. y.(idx.(j)))
  done;
  y.(t.e_row.(p)) <- !acc *. t.e_pivinv.(p)

(* ---- a binary min-heap of ints in h.(0 .. n-1) ------------------- *)

let heap_push (h : int array) n x =
  let i = ref n in
  while !i > 0 && h.((!i - 1) / 2) > x do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- x

(* removes and returns the minimum of the n >= 1 elements *)
let heap_pop (h : int array) n =
  let top = h.(0) and x = h.(n - 1) and n = n - 1 in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < x then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if n > 0 then h.(!i) <- x;
  top

(* ---- pivot order -------------------------------------------------- *)

(* Pivot order: peel column singletons (their elimination touches no
   other column) and row singletons (their multipliers touch no other
   row), which permutes the bulk of a slack-heavy basis to triangular
   form with zero fill; whatever remains — the bump — is factorised in
   index order with threshold partial pivoting. Fills [ord_col] and
   [ord_row] (structural pivot row, or -1). Both queues are FIFO and
   each column and row enters its queue at most once (its live count
   passes 1 once), so they are plain arrays. A row's columns are walked
   from the highest column index down. *)
let pivot_order t =
  let m = t.m and cols = t.cols in
  let colcnt = t.colcnt and rowcnt = t.rowcnt and row_ptr = t.row_ptr in
  Array.fill rowcnt 0 m 0;
  let nnz = ref 0 in
  for k = 0 to m - 1 do
    let idx = cols.(k).Sparse.idx in
    colcnt.(k) <- Array.length idx;
    nnz := !nnz + Array.length idx;
    for j = 0 to Array.length idx - 1 do
      rowcnt.(idx.(j)) <- rowcnt.(idx.(j)) + 1
    done
  done;
  if Array.length t.row_cols < !nnz then
    t.row_cols <- Array.make (max !nnz (2 * Array.length t.row_cols)) 0;
  let row_cols = t.row_cols in
  (* row i's columns end up at row_ptr.(i) .. row_ptr.(i+1) - 1, highest
     column first *)
  let acc = ref 0 in
  for i = 0 to m - 1 do
    acc := !acc + rowcnt.(i);
    row_ptr.(i) <- !acc
  done;
  row_ptr.(m) <- !acc;
  for k = 0 to m - 1 do
    let idx = cols.(k).Sparse.idx in
    for j = 0 to Array.length idx - 1 do
      let i = idx.(j) in
      row_ptr.(i) <- row_ptr.(i) - 1;
      row_cols.(row_ptr.(i)) <- k
    done
  done;
  let livecol = t.livecol and liverow = t.liverow in
  Bytes.fill livecol 0 m '\001';
  Bytes.fill liverow 0 m '\001';
  let col_q = t.col_q and row_q = t.row_q in
  let ch = ref 0 and ct = ref 0 and rh = ref 0 and rt = ref 0 in
  for k = 0 to m - 1 do
    if colcnt.(k) = 1 then begin
      col_q.(!ct) <- k;
      incr ct
    end
  done;
  for i = 0 to m - 1 do
    if rowcnt.(i) = 1 then begin
      row_q.(!rt) <- i;
      incr rt
    end
  done;
  let n = ref 0 in
  let emit k r =
    t.ord_col.(!n) <- k;
    t.ord_row.(!n) <- r;
    incr n;
    set_live livecol k false;
    set_live liverow r false;
    let idx = cols.(k).Sparse.idx in
    for j = 0 to Array.length idx - 1 do
      let i = idx.(j) in
      if live liverow i then begin
        rowcnt.(i) <- rowcnt.(i) - 1;
        if rowcnt.(i) = 1 then begin
          row_q.(!rt) <- i;
          incr rt
        end
      end
    done;
    for p = row_ptr.(r) to row_ptr.(r + 1) - 1 do
      let j = row_cols.(p) in
      if live livecol j then begin
        colcnt.(j) <- colcnt.(j) - 1;
        if colcnt.(j) = 1 then begin
          col_q.(!ct) <- j;
          incr ct
        end
      end
    done
  in
  let progress = ref true in
  while !progress do
    progress := false;
    while !ch < !ct do
      let k = col_q.(!ch) in
      incr ch;
      if live livecol k && colcnt.(k) = 1 then begin
        let idx = cols.(k).Sparse.idx in
        let r = ref (-1) and j = ref 0 in
        while !r < 0 && !j < Array.length idx do
          if live liverow idx.(!j) then r := idx.(!j);
          incr j
        done;
        if !r >= 0 then begin
          emit k !r;
          progress := true
        end
      end
    done;
    while !rh < !rt do
      let r = row_q.(!rh) in
      incr rh;
      if live liverow r && rowcnt.(r) = 1 then begin
        let k = ref (-1) and p = ref row_ptr.(r) in
        while !k < 0 && !p < row_ptr.(r + 1) do
          if live livecol row_cols.(!p) then k := row_cols.(!p);
          incr p
        done;
        if !k >= 0 then begin
          emit !k r;
          progress := true
        end
      end
    done
  done;
  for k = 0 to m - 1 do
    if live livecol k then begin
      t.ord_col.(!n) <- k;
      t.ord_row.(!n) <- -1;
      incr n
    end
  done

(* ---- factorisation ------------------------------------------------ *)

(* The factorisation as a product of etas, E_{m-1} .. E_0 B = P,
   absorbs the columns in pivot order: column t is d = E_{t-1} .. E_0
   a_k, pivoted on a live row r, and becomes eta t. Applying eta p
   changes d only when d's entry on eta p's row is nonzero, so only the
   etas reachable from a_k's pattern do anything, and they are applied
   here in the same increasing order as a dense pass over all of them
   would, with the same arithmetic.

   Reach order: the work vector d is dense but only its pattern is ever
   nonzero (and cleared). When a row enters the pattern, the etas
   pivoted on it are pushed onto a min-heap of eta indices, and the
   heap is popped in increasing order. A row entering while eta p is
   applied pushes only its etas with index > p: a dense pass reached
   the earlier ones while that row of d was still zero, so they did
   nothing there. Every eta is pushed at most once per column, as
   every row enters the pattern once. A row is normally pivoted once,
   but the structural row hint is taken without a liveness test, so a
   row can carry several base etas; they are chained in index order. *)

let factorize t ~col basic =
  let m = t.m in
  for k = 0 to m - 1 do
    t.cols.(k) <- col basic.(k)
  done;
  pivot_order t;
  let d = t.d and pat = t.pat and inpat = t.inpat and h = t.heap in
  let row_eta = t.row_eta and e_next = t.e_next in
  Array.fill row_eta 0 m (-1);
  t.n_base <- 0;
  t.n_eta <- 0;
  let npat = ref 0 and nh = ref 0 in
  (* row i enters the pattern while eta p is applied (-1: the scatter) *)
  let enter i p =
    set_live inpat i true;
    pat.(!npat) <- i;
    incr npat;
    let q = ref row_eta.(i) in
    while !q >= 0 do
      if !q > p then begin
        heap_push h !nh !q;
        incr nh
      end;
      q := e_next.(!q)
    done
  in
  let clear () =
    for j = 0 to !npat - 1 do
      d.(pat.(j)) <- 0.;
      set_live inpat pat.(j) false
    done;
    npat := 0
  in
  for ti = 0 to m - 1 do
    let k = t.ord_col.(ti) and r_hint = t.ord_row.(ti) in
    let c = t.cols.(k) in
    for j = 0 to Array.length c.Sparse.idx - 1 do
      let i = c.Sparse.idx.(j) in
      d.(i) <- c.Sparse.v.(j);
      if not (live inpat i) then enter i (-1)
    done;
    let idx = t.e_idx and v = t.e_v in
    while !nh > 0 do
      let p = heap_pop h !nh in
      decr nh;
      let row = t.e_row.(p) in
      let yr = d.(row) in
      if yr <> 0. then begin
        let s = yr *. t.e_pivinv.(p) in
        d.(row) <- s;
        for j = t.e_start.(p) to t.e_start.(p + 1) - 1 do
          let i = idx.(j) in
          d.(i) <- d.(i) -. (v.(j) *. s);
          if not (live inpat i) then enter i p
        done
      end
    done;
    (* best live row (largest |d|, lowest index on ties), then prefer the
       structural row when stable *)
    let best = ref (-1) and bestv = ref 0. in
    for j = 0 to !npat - 1 do
      let i = pat.(j) in
      if row_eta.(i) < 0 then begin
        let a = abs_float d.(i) in
        if a > !bestv || (a = !bestv && !best >= 0 && i < !best) then begin
          best := i;
          bestv := a
        end
      end
    done;
    if !best < 0 || !bestv < pivot_tol then begin
      clear ();
      raise Singular
    end;
    let r =
      if r_hint >= 0 && abs_float d.(r_hint) >= stability_ratio *. !bestv then r_hint
      else !best
    in
    (* the eta's entries, sorted through the heap *)
    for j = 0 to !npat - 1 do
      let i = pat.(j) in
      if i <> r && abs_float d.(i) > drop_tol then begin
        heap_push h !nh i;
        incr nh
      end
    done;
    reserve t !nh;
    let start = t.e_start.(ti) in
    let stop = start + !nh in
    for j = start to stop - 1 do
      let i = heap_pop h !nh in
      decr nh;
      t.e_idx.(j) <- i;
      t.e_v.(j) <- d.(i)
    done;
    close_eta t ~row:r ~pivinv:(1. /. d.(r)) stop;
    e_next.(ti) <- -1;
    if row_eta.(r) < 0 then row_eta.(r) <- ti
    else begin
      let q = ref row_eta.(r) in
      while e_next.(!q) >= 0 do
        q := e_next.(!q)
      done;
      e_next.(!q) <- ti
    end;
    t.pos2row.(k) <- r;
    clear ()
  done;
  t.n_base <- m

let n_etas t = t.n_eta - t.n_base

(* B z = y: z.(k) = (E_{m-1} .. E_0 y).(pos2row k), then the updates *)
let ftran t y =
  for p = 0 to t.n_base - 1 do
    apply_eta t p y
  done;
  let z = t.tmp in
  for k = 0 to t.m - 1 do
    z.(k) <- y.(t.pos2row.(k))
  done;
  Array.blit z 0 y 0 t.m;
  for p = t.n_base to t.n_eta - 1 do
    apply_eta t p y
  done

(* B^T x = y: the updates transposed, then x = E_0^T .. E_{m-1}^T P^T y
   with (P^T y).(pos2row k) = y.(k) *)
let btran t y =
  for p = t.n_eta - 1 downto t.n_base do
    apply_eta_t t p y
  done;
  let z = t.tmp in
  (* a re-pivoted row leaves pos2row short of a permutation; the rows it
     misses read zero, as they always did *)
  Array.fill z 0 t.m 0.;
  for k = 0 to t.m - 1 do
    z.(t.pos2row.(k)) <- y.(k)
  done;
  for p = t.n_base - 1 downto 0 do
    apply_eta_t t p z
  done;
  Array.blit z 0 y 0 t.m

let update t ~row d =
  if abs_float d.(row) < 1e-9 then raise Singular;
  reserve t t.m;
  let j = ref t.e_start.(t.n_eta) in
  for i = 0 to t.m - 1 do
    if i <> row && abs_float d.(i) > drop_tol then begin
      t.e_idx.(!j) <- i;
      t.e_v.(!j) <- d.(i);
      incr j
    end
  done;
  close_eta t ~row ~pivinv:(1. /. d.(row)) !j
