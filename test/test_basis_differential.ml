(* Differential testing of the reach-ordered sparse basis factorisation
   ({!Milp.Basis}) against the retained dense-scan factorisation
   ({!Basis_reference}, which lives here with the tests).

   The sparse factorisation claims bit-identical factors: the same
   pivots, the same eta entries and the same floating-point operations
   in the same order. So FTRAN and BTRAN of every unit vector and of
   random right-hand sides must agree bit for bit, after the
   factorisation and after every rank-one update, and both must raise
   [Singular] on the same inputs. The bases come from seeded generators
   (slack-heavy, +-1 network, dense bumps, near-threshold pivots and
   ties, duplicate and dependent columns) and from the real gsum and
   gsumif buffering LPs. One sparse basis is reused across all of a
   case's factorisations, so a workspace left dirty by a previous
   factorisation (or by a [Singular] one) shows up as a mismatch. *)

open Milp
module Rng = Support.Rng
module Ref = Basis_reference

(* ---- bitwise comparison ------------------------------------------ *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let bits_equal a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let first_diff a b =
  let i = ref 0 in
  while !i < Array.length a && same_bits a.(!i) b.(!i) do
    incr i
  done;
  !i

let compare_solve what solve_new solve_ref v =
  let a = Array.copy v and b = Array.copy v in
  solve_new a;
  solve_ref b;
  if not (bits_equal a b) then begin
    let i = first_diff a b in
    Alcotest.failf "%s: entry %d differs (%h vs reference %h)" what i a.(i) b.(i)
  end;
  a

(* FTRAN and BTRAN of every unit vector and of 3 random vectors *)
let compare_solves ~what rng m nb rb =
  if Basis.n_etas nb <> Ref.n_etas rb then
    Alcotest.failf "%s: n_etas %d vs reference %d" what (Basis.n_etas nb) (Ref.n_etas rb);
  let vectors =
    List.init m (fun i ->
        (Printf.sprintf "e_%d" i, Array.init m (fun j -> if i = j then 1. else 0.)))
    @ List.init 3 (fun r ->
          ( Printf.sprintf "rhs %d" r,
            Array.init m (fun _ -> if Rng.int rng 3 = 0 then 0. else Rng.float rng 20. -. 10.) ))
  in
  List.iter
    (fun (name, v) ->
      ignore (compare_solve (what ^ " ftran " ^ name) (Basis.ftran nb) (Ref.ftran rb) v);
      ignore (compare_solve (what ^ " btran " ^ name) (Basis.btran nb) (Ref.btran rb) v))
    vectors

(* Factorises [basic] both ways (reusing [nb]); on success, checks the
   solves, then applies [n_updates] updates with entering columns drawn
   from [pool] and checks again after each. Returns whether the basis
   was nonsingular. *)
let run_case ~what ?(n_updates = 3) rng nb ~pool basic =
  let m = Array.length basic in
  let col j = pool.(j) in
  let r_new =
    match Basis.factorize nb ~col basic with () -> true | exception Basis.Singular -> false
  in
  let r_ref =
    match Ref.factorize ~m ~col basic with rb -> Some rb | exception Ref.Singular -> None
  in
  match (r_new, r_ref) with
  | false, None -> false
  | true, None -> Alcotest.failf "%s: only the reference raised Singular" what
  | false, Some _ -> Alcotest.failf "%s: only the sparse factorisation raised Singular" what
  | true, Some rb ->
    compare_solves ~what rng m nb rb;
    for u = 1 to n_updates do
      let what = Printf.sprintf "%s update %d" what u in
      let q = Rng.int rng (Array.length pool) in
      let a = Array.make m 0. in
      Sparse.iter (fun i c -> a.(i) <- c) pool.(q);
      let d = compare_solve (what ^ " entering ftran") (Basis.ftran nb) (Ref.ftran rb) a in
      (* mostly a sound pivot row; now and then the smallest nonzero,
         which may be rejected as singular *)
      let row = ref 0 in
      Array.iteri
        (fun i x ->
          let better =
            if u mod 3 = 0 then x <> 0. && (d.(!row) = 0. || abs_float x < abs_float d.(!row))
            else abs_float x > abs_float d.(!row)
          in
          if better then row := i)
        d;
      let row = !row in
      let u_new =
        match Basis.update nb ~row d with () -> true | exception Basis.Singular -> false
      in
      let u_ref = match Ref.update rb ~row d with () -> true | exception Ref.Singular -> false in
      if u_new <> u_ref then Alcotest.failf "%s: Singular disagrees (row %d)" what row;
      compare_solves ~what rng m nb rb
    done;
    true

(* ---- seeded random bases ----------------------------------------- *)

let sparse entries = Sparse.of_list entries
let value rng = if Rng.bool rng then float_of_int (Rng.int rng 7 - 3) else Rng.float rng 4. -. 2.

(* the m slacks, then the structural columns [cols] *)
let pool_of m cols = Array.append (Array.init m Sparse.unit) cols

(* [n_struct] random structural columns of the pool and random slacks
   for the rest, in shuffled basis positions: often singular *)
let random_basis rng m ncols n_struct =
  let chosen = Array.init ncols Fun.id in
  Rng.shuffle rng chosen;
  let structs = Array.init (min n_struct ncols) (fun k -> m + chosen.(k)) in
  let slacks = Array.init m Fun.id in
  Rng.shuffle rng slacks;
  let basic = Array.append structs (Array.sub slacks 0 (m - Array.length structs)) in
  Rng.shuffle rng basic;
  basic

(* A nonsingular basis from the structural candidates [cands] (pool
   indices, in the order they are tried): a candidate is kept when it is
   numerically independent of those kept before (incremental elimination
   on dense copies), until [n_struct] are kept; the slacks of the rows
   left without a pivot complete it. *)
let independent_basis rng ~m ~pool cands n_struct =
  let pivots = ref [] (* (pivot row, reduced column), newest first *) in
  let kept = ref [] and n = ref 0 in
  Array.iter
    (fun j ->
      if !n < n_struct then begin
        let a = Array.make m 0. in
        Sparse.iter (fun i c -> a.(i) <- a.(i) +. c) pool.(j);
        List.iter
          (fun (p, v) ->
            if a.(p) <> 0. then begin
              let f = a.(p) /. v.(p) in
              Array.iteri (fun i x -> a.(i) <- a.(i) -. (f *. x)) v
            end)
          (List.rev !pivots);
        let best = ref 0 in
        Array.iteri (fun i x -> if abs_float x > abs_float a.(!best) then best := i) a;
        if m > 0 && abs_float a.(!best) > 1e-6 then begin
          pivots := (!best, a) :: !pivots;
          kept := j :: !kept;
          incr n
        end
      end)
    cands;
  let covered = Array.make m false in
  List.iter (fun (p, _) -> covered.(p) <- true) !pivots;
  let slacks = List.filter (fun i -> not covered.(i)) (List.init m Fun.id) in
  let basic = Array.of_list (!kept @ slacks) in
  Rng.shuffle rng basic;
  basic

(* the structural pool indices m .. m + ncols - 1, shuffled *)
let shuffled_structs rng m ncols =
  let a = Array.init ncols (fun k -> m + k) in
  Rng.shuffle rng a;
  a

(* runs [cases] bases per generated pool, reusing one sparse basis per
   size, and requires some nonsingular ones *)
let family ~name ~seed ~sizes ~cases gen () =
  let rng = Rng.create seed in
  let nonsingular = ref 0 and total = ref 0 in
  List.iter
    (fun m ->
      let nb = Basis.create m in
      for c = 1 to cases do
        let pool, basic = gen rng m in
        incr total;
        if run_case ~what:(Printf.sprintf "%s m=%d case %d" name m c) rng nb ~pool basic then
          incr nonsingular
      done)
    sizes;
  if !nonsingular * 4 < !total then
    Alcotest.failf "%s: only %d of %d bases were nonsingular" name !nonsingular !total

let slack_heavy rng m =
  let ncols = 1 + (m / 3) in
  let cols =
    Array.init ncols (fun _ ->
        sparse (List.init (1 + Rng.int rng 3) (fun _ -> (Rng.int rng m, value rng))))
  in
  (pool_of m cols, random_basis rng m ncols (1 + Rng.int rng ncols))

(* columns of a graph's incidence matrix: +1 at the head, -1 at the
   tail, now and then a third coefficient as a timing row has *)
let network rng m =
  let ncols = 2 * m in
  let cols =
    Array.init ncols (fun _ ->
        let a = Rng.int rng m and b = Rng.int rng m in
        let extra = if Rng.int rng 5 = 0 then [ (Rng.int rng m, value rng) ] else [] in
        sparse ([ (a, 1.); (b, -1.) ] @ extra))
  in
  let pool = pool_of m cols in
  (pool, independent_basis rng ~m ~pool (shuffled_structs rng m ncols) (Rng.int rng (m + 1)))

(* a dense k x k block on random rows: all of it is bump *)
let dense_bump rng m =
  let k = 2 + Rng.int rng (max 1 (m / 2)) in
  let rows = Array.init m Fun.id in
  Rng.shuffle rng rows;
  let cols =
    Array.init (k + 2) (fun _ ->
        sparse
          (List.init k (fun r -> (rows.(r), value rng))
          @ if Rng.bool rng then [ (Rng.int rng m, value rng) ] else []))
  in
  let pool = pool_of m cols in
  (pool, independent_basis rng ~m ~pool (shuffled_structs rng m (k + 2)) k)

(* Pivots right at the threshold: a structural row holds 0.01 times the
   largest live entry (just above, at, or just below), and equal
   magnitudes on several rows exercise the lowest-row tie-break. *)
let near_threshold rng m =
  let ncols = m in
  let cols =
    Array.init ncols (fun _ ->
        let big = float_of_int (1 + Rng.int rng 4) in
        let scale =
          match Rng.int rng 4 with
          | 0 -> 0.01
          | 1 -> Float.pred 0.01
          | 2 -> Float.succ 0.01
          | _ -> 1.
        in
        let a = Rng.int rng m and b = Rng.int rng m and c = Rng.int rng m in
        sparse [ (a, big *. scale); (b, big); (c, if Rng.bool rng then big else -.big) ])
  in
  (pool_of m cols, random_basis rng m ncols (Rng.int rng (m + 1)))

(* duplicated and dependent columns: mostly singular *)
let dependent rng m =
  let ncols = 1 + (m / 2) in
  let base =
    Array.init ncols (fun _ -> List.init (1 + Rng.int rng 3) (fun _ -> (Rng.int rng m, value rng)))
  in
  let cols =
    Array.concat
      [
        Array.map sparse base;
        Array.map sparse base;
        Array.init ncols (fun k ->
            let j = Rng.int rng ncols in
            sparse (base.(k) @ List.map (fun (i, c) -> (i, 2. *. c)) base.(j)));
      ]
  in
  let basic = random_basis rng m (3 * ncols) (Rng.int rng (m + 1)) in
  (* force a duplicate pair in half the cases *)
  if Rng.bool rng && m >= 2 then begin
    basic.(0) <- m;
    basic.(1) <- m + ncols
  end;
  (pool_of m cols, basic)

let test_dependent () =
  let rng = Rng.create 505 in
  let singular = ref 0 in
  List.iter
    (fun m ->
      let nb = Basis.create m in
      for c = 1 to 40 do
        let pool, basic = dependent rng m in
        if not (run_case ~what:(Printf.sprintf "dependent m=%d case %d" m c) rng nb ~pool basic)
        then incr singular
      done)
    [ 2; 5; 9; 20 ];
  if !singular = 0 then Alcotest.fail "no dependent basis was singular"

(* The structural row hint is taken without a liveness test. In the
   first basis the row singleton (column 0, row 0) is unstable, so row 1
   is pivoted instead; row 1 then becomes column 1's structural hint and
   passes the stability test again, so row 1 carries two base etas and
   row 0 none. In the second (found by search), a later column reaches
   such a doubly pivoted row through fill, so both of its etas must be
   applied. Both factorisations must reproduce this exactly. *)
let test_repivoted_row () =
  let cases =
    [
      [|
        sparse [ (0, 1e-5); (1, 1.) ];
        sparse [ (1, 1.); (2, 1.) ];
        sparse [ (2, 1.); (3, 1.) ];
        sparse [ (2, 1.); (3, 2.) ];
      |];
      [|
        sparse [ (0, 1.); (2, 1.) ];
        sparse [ (2, 2e-5); (4, 1.) ];
        sparse [ (0, 3.); (2, 1.) ];
        sparse [ (1, 1e-5); (2, 2.); (4, 2.) ];
        sparse [ (3, 2e-5); (4, 2.) ];
      |];
    ]
  in
  let rng = Rng.create 7 in
  List.iteri
    (fun c pool ->
      let m = Array.length pool in
      let what = Printf.sprintf "re-pivoted row case %d" c in
      if not (run_case ~what rng (Basis.create m) ~pool (Array.init m Fun.id)) then
        Alcotest.failf "%s: the factorisation was expected to succeed" what)
    cases

(* ---- bases of the real buffering LPs ------------------------------ *)

(* the gsum/gsumif buffering LP (precharacterised model, as the baseline
   flow's first solve builds it), at a one-node budget *)
let buffering_lp name =
  let g = Dataflow.Graph.copy (Hls.Kernels.graph (Hls.Kernels.by_name name)) in
  ignore (Core.Flow.seed_back_edges g);
  let model = Timing.Precharacterized.build g in
  let cfg = { Buffering.Formulation.default_config with node_limit = 1 } in
  match Buffering.Formulation.solve cfg g model (Buffering.Cfdfc.extract g) with
  | Error e ->
    Alcotest.failf "%s: MILP failed: %s" name (Buffering.Formulation.failure_message e)
  | Ok p -> p.Buffering.Formulation.lp

let test_lp name () =
  let lp = buffering_lp name in
  let nv = Lp.n_vars lp and m = Lp.n_constrs lp in
  let cols = Lp.col_major lp in
  let pool = pool_of m cols in
  let rng = Rng.create (Hashtbl.hash name) in
  let nb = Basis.create m in
  let nonsingular = ref 0 in
  List.iteri
    (fun c frac ->
      if run_case ~what:(Printf.sprintf "%s case %d (%.2f structural)" name c frac) rng nb ~pool
           (independent_basis rng ~m ~pool (shuffled_structs rng m nv)
              (int_of_float (frac *. float_of_int m)))
      then incr nonsingular)
    [ 0.05; 0.2; 0.4; 0.6; 0.8; 0.95 ];
  if !nonsingular < 3 then Alcotest.failf "%s: only %d nonsingular bases" name !nonsingular

(* ---- a reused simplex workspace is invisible ---------------------- *)

let same_result what a b =
  match (a, b) with
  | Simplex.Optimal a, Simplex.Optimal b ->
    if not (same_bits a.obj b.obj && bits_equal a.x b.x) then
      Alcotest.failf "%s: reused workspace changed the optimum" what
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> ()
  | _ -> Alcotest.failf "%s: reused workspace changed the status" what

(* One workspace serves random LPs of varying shapes, each solved cold
   and then warm from its own basis with a bound moved, as branch & bound
   does; every result must equal a fresh solve's bit for bit. *)
let test_workspace_reuse () =
  let rng = Rng.create 606 in
  let ws = Simplex.workspace () in
  for seed = 1 to 300 do
    let what = Printf.sprintf "lp %d" seed in
    let lp = Test_milp_differential.random_lp ~eq_heavy:(seed mod 3 = 0) rng what in
    let fresh, basis = Simplex.solve_basis lp in
    let reused, basis' = Simplex.solve_basis ~ws lp in
    same_result what fresh reused;
    match (basis, basis') with
    | Some b, Some b' ->
      let v = Rng.int rng (Lp.n_vars lp) in
      let lo, hi = Lp.bounds lp v in
      Lp.set_bounds lp v ~lo:(Float.max lo (-1.)) ~hi:(Float.min hi 1.);
      same_result (what ^ " warm") (Simplex.solve ~warm:b lp)
        (fst (Simplex.solve_basis ~ws ~warm:b' lp))
    | None, None -> ()
    | _ -> Alcotest.failf "%s: reused workspace changed the basis" what
  done

let suite =
  [
    ( "slack-heavy bases",
      `Quick,
      family ~name:"slack-heavy" ~seed:101 ~sizes:[ 1; 4; 12; 40; 120 ] ~cases:25 slack_heavy );
    ( "network bases",
      `Quick,
      family ~name:"network" ~seed:202 ~sizes:[ 3; 10; 30; 90 ] ~cases:25 network );
    ( "dense bump blocks",
      `Quick,
      family ~name:"dense-bump" ~seed:303 ~sizes:[ 3; 8; 24; 60 ] ~cases:20 dense_bump );
    ( "near-threshold pivots and ties",
      `Quick,
      family ~name:"near-threshold" ~seed:404 ~sizes:[ 4; 12; 40 ] ~cases:30 near_threshold );
    ("duplicate and dependent columns", `Quick, test_dependent);
    ("hinted row already pivoted", `Quick, test_repivoted_row);
    ("gsum buffering LP bases", `Quick, test_lp "gsum");
    ("gsumif buffering LP bases", `Quick, test_lp "gsumif");
    ("simplex workspace reuse", `Quick, test_workspace_reuse);
  ]
