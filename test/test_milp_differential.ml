(* Differential testing of the revised simplex ({!Milp.Simplex}) against
   the retained dense two-phase tableau ({!Dense_reference}, which lives
   here with the tests), plus regressions pinning the three historical
   B&B/simplex bugs:

   - budget exhaustion with no incumbent used to report [Infeasible]
     instead of the new [Exhausted];
   - a finite upper bound on a free variable used to constrain only the
     positive split column, making [hi < 0] spuriously infeasible;
   - the incumbent's integer variables were rounded after selection
     without re-evaluating the objective or re-checking feasibility.

   The random instances deliberately cover what buffering LPs exercise
   and what the old solver got wrong: free variables, negative and
   one-sided bounds, fixed variables, equality-heavy and duplicated
   (degenerate) rows. *)

open Milp
module Rng = Support.Rng

(* ---- seeded random model generators ------------------------------ *)

let fi = float_of_int

let random_lp ?(eq_heavy = false) rng tag =
  let n = 2 + Rng.int rng 4 in
  let m = Lp.create tag in
  let vars =
    Array.init n (fun i ->
        let lo, hi =
          match Rng.int rng 6 with
          | 0 -> (neg_infinity, infinity) (* free *)
          | 1 -> (neg_infinity, fi (Rng.int rng 7) -. 3.) (* finite hi, often < 0 *)
          | 2 -> (fi (Rng.int rng 5) -. 4., infinity)
          | 3 ->
            let a = fi (Rng.int rng 9) -. 4. in
            (a, a +. fi (Rng.int rng 4)) (* narrow box, sometimes fixed *)
          | 4 -> (0., fi (Rng.int rng 3)) (* degenerate-prone small box *)
          | _ -> (-2., 2.)
        in
        Lp.add_var m ~lo ~hi (Printf.sprintf "x%d" i))
  in
  let rows = 1 + Rng.int rng 5 in
  let add_random_row () =
    let terms = Array.to_list (Array.map (fun v -> (fi (Rng.int rng 7) -. 3., v)) vars) in
    let rel =
      if eq_heavy then if Rng.int rng 3 = 0 then Lp.Le else Lp.Eq
      else match Rng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
    in
    let rhs = fi (Rng.int rng 9) -. 4. in
    Lp.add_constr m terms rel rhs;
    (terms, rel, rhs)
  in
  for _ = 1 to rows do
    let terms, rel, rhs = add_random_row () in
    (* duplicated rows make the basis degenerate on purpose *)
    if Rng.int rng 4 = 0 then Lp.add_constr m terms rel rhs
  done;
  let obj = Array.to_list (Array.map (fun v -> (fi (Rng.int rng 9) -. 4., v)) vars) in
  Lp.set_objective m ~maximize:(Rng.bool rng) obj;
  m

let pp_result fmt = function
  | Simplex.Optimal { obj; x } ->
    Format.fprintf fmt "Optimal %g at [%s]" obj
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") x)))
  | Simplex.Infeasible -> Format.fprintf fmt "Infeasible"
  | Simplex.Unbounded -> Format.fprintf fmt "Unbounded"

(* ---- LP differential: revised vs dense reference ----------------- *)

let check_lp_agreement seed lp =
  let fail fmt = Alcotest.failf ("seed %d: " ^^ fmt) seed in
  let revised = Simplex.solve lp in
  let dense = Dense_reference.solve lp in
  match (revised, dense) with
  | Simplex.Optimal r, Simplex.Optimal d ->
    if not (Lp.feasible lp r.x) then
      fail "revised optimum is infeasible (%a)" pp_result revised;
    if not (Lp.feasible lp d.x) then fail "dense optimum is infeasible (%a)" pp_result dense;
    if abs_float (r.obj -. d.obj) > 1e-5 then
      fail "objectives disagree: revised %a vs dense %a" pp_result revised pp_result dense
  | Simplex.Infeasible, Simplex.Infeasible -> ()
  | Simplex.Unbounded, Simplex.Unbounded -> ()
  | _ -> fail "status disagrees: revised %a vs dense %a" pp_result revised pp_result dense

let test_lp_differential () =
  for seed = 0 to 249 do
    let rng = Rng.create seed in
    check_lp_agreement seed (random_lp rng "diff")
  done

let test_lp_differential_eq_heavy () =
  for seed = 1000 to 1099 do
    let rng = Rng.create seed in
    check_lp_agreement seed (random_lp ~eq_heavy:true rng "diffeq")
  done

(* warm-started re-solve must agree with the cold solve, both on the
   unchanged model and after the bound edits branch & bound performs *)
let test_warm_start_equivalence () =
  for seed = 2000 to 2099 do
    let rng = Rng.create seed in
    let lp = random_lp rng "warm" in
    match Simplex.solve_basis lp with
    | Simplex.Optimal { obj; _ }, Some basis ->
      (match Simplex.solve ~warm:basis lp with
      | Simplex.Optimal { obj = obj'; x } ->
        if abs_float (obj -. obj') > 1e-6 || not (Lp.feasible lp x) then
          Alcotest.failf "seed %d: warm re-solve drifted (%g vs %g)" seed obj obj'
      | r -> Alcotest.failf "seed %d: warm re-solve lost optimality (%a)" seed pp_result r);
      (* shrink one variable's box, as a branching step would *)
      let v = Rng.int rng (Lp.n_vars lp) in
      let lo, hi = Lp.bounds lp v in
      let lo' = if lo = neg_infinity then -1. else lo in
      let hi' = Float.max lo' (if hi = infinity then 1. else Float.min hi (lo' +. 1.)) in
      Lp.set_bounds lp v ~lo:lo' ~hi:hi';
      let warm = Simplex.solve ~warm:basis lp in
      let cold' = Dense_reference.solve lp in
      (match (warm, cold') with
      | Simplex.Optimal w, Simplex.Optimal c ->
        if abs_float (w.obj -. c.obj) > 1e-5 then
          Alcotest.failf "seed %d: warm branch solve %a vs dense %a" seed pp_result warm
            pp_result cold'
      | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> ()
      | _ ->
        Alcotest.failf "seed %d: warm branch status %a vs dense %a" seed pp_result warm
          pp_result cold')
    | (Simplex.Infeasible | Simplex.Unbounded), _ -> () (* nothing to warm-start *)
    | Simplex.Optimal _, None ->
      Alcotest.failf "seed %d: optimal solve returned no basis" seed
  done

(* ---- MILP differential: branch & bound vs brute force ------------ *)

let test_milp_bruteforce () =
  for seed = 3000 to 3099 do
    let rng = Rng.create seed in
    let n = 2 + Rng.int rng 2 in
    let m = Lp.create "diffint" in
    let boxes =
      Array.init n (fun _ ->
          let lo = Rng.int rng 5 - 2 in
          (lo, lo + 1 + Rng.int rng 3))
    in
    let vars =
      Array.mapi
        (fun i (lo, hi) ->
          Lp.add_var m ~kind:Lp.Integer ~lo:(fi lo) ~hi:(fi hi) (Printf.sprintf "k%d" i))
        boxes
    in
    for _ = 1 to 1 + Rng.int rng 3 do
      let terms = Array.to_list (Array.map (fun v -> (fi (Rng.int rng 5) -. 2., v)) vars) in
      let rel = match Rng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq in
      Lp.add_constr m terms rel (fi (Rng.int rng 8) -. 2.)
    done;
    let obj = Array.to_list (Array.map (fun v -> (fi (Rng.int rng 9) -. 4., v)) vars) in
    Lp.set_objective m ~maximize:true obj;
    let best = ref neg_infinity in
    let point = Array.make n 0. in
    let rec enum i =
      if i = n then begin
        if Lp.feasible m point then best := Float.max !best (Lp.eval_expr obj point)
      end
      else
        let lo, hi = boxes.(i) in
        for v = lo to hi do
          point.(i) <- fi v;
          enum (i + 1)
        done
    in
    enum 0;
    match Bb.solve m with
    | Bb.Infeasible ->
      if !best > neg_infinity then
        Alcotest.failf "seed %d: B&B infeasible but brute force found %g" seed !best
    | Bb.Unbounded -> Alcotest.failf "seed %d: spurious unbounded" seed
    | Bb.Exhausted -> Alcotest.failf "seed %d: budget exhausted on a tiny model" seed
    | Bb.Optimal { obj = got; x; _ } ->
      if not (Lp.feasible m x) then Alcotest.failf "seed %d: B&B point infeasible" seed;
      if abs_float (got -. !best) > 1e-5 then
        Alcotest.failf "seed %d: B&B %g vs brute force %g" seed got !best
  done

(* ---- regressions pinning the three bugs -------------------------- *)

let test_exhausted_not_infeasible () =
  (* feasible MILP, fractional root, zero node budget, no initial seed:
     the search never reaches an incumbent and must say so — the old
     code reported Infeasible, which callers turned into a hard error
     claiming the model has no solution *)
  let m = Lp.create "exhaust" in
  let a = Lp.add_var m ~kind:Lp.Binary "a" in
  let b = Lp.add_var m ~kind:Lp.Binary "b" in
  Lp.add_constr m [ (1., a); (1., b) ] Lp.Le 1.5;
  Lp.set_objective m ~maximize:true [ (1., a); (1., b) ];
  (match Bb.solve ~node_limit:0 m with
  | Bb.Exhausted -> ()
  | Bb.Infeasible -> Alcotest.fail "budget exhaustion reported as Infeasible"
  | Bb.Optimal _ -> Alcotest.fail "no budget, yet an incumbent appeared"
  | Bb.Unbounded -> Alcotest.fail "spurious unbounded");
  (* the same model with any budget is optimal: 1.0 *)
  match Bb.solve m with
  | Bb.Optimal { obj; _ } -> Alcotest.(check (float 1e-9)) "objective" 1. obj
  | _ -> Alcotest.fail "feasible model not solved"

let test_free_var_finite_upper () =
  (* free variable with a finite negative upper bound: the old dense
     solver constrained only the positive split column, so x <= -3 was
     unreachable and the model reported Infeasible *)
  let check name solve =
    let m = Lp.create "freeub" in
    let x = Lp.add_var m ~lo:neg_infinity ~hi:(-3.) "x" in
    let y = Lp.add_var m ~lo:neg_infinity ~hi:infinity "y" in
    Lp.add_constr m [ (1., y); (-1., x) ] Lp.Le 10.;
    Lp.set_objective m ~maximize:true [ (1., x); (1., y) ];
    match solve m with
    | Simplex.Optimal { obj; x = pt } ->
      Alcotest.(check (float 1e-6)) (name ^ " objective") 4. obj;
      Alcotest.(check (float 1e-6)) (name ^ " x") (-3.) pt.(0);
      Alcotest.(check (float 1e-6)) (name ^ " y") 7. pt.(1)
    | r -> Alcotest.failf "%s: expected Optimal 4, got %a" name pp_result r
  in
  check "revised" Simplex.solve;
  check "dense reference" Dense_reference.solve

let test_rounded_incumbent_consistent () =
  (* the incumbent 0.9999995 counts as integral (eps 1e-6) and is
     rounded to 1 on return; the reported objective must be evaluated at
     the returned point, not at the pre-rounding one *)
  let m = Lp.create "roundobj" in
  let x = Lp.add_var m ~kind:Lp.Integer ~hi:10. "x" in
  Lp.add_constr m [ (1., x) ] Lp.Le 0.9999999;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  (match Bb.solve m with
  | Bb.Optimal { obj; x = pt; _ } ->
    Alcotest.(check (float 1e-12)) "objective re-evaluated at returned point"
      (Lp.eval_expr [ (1., x) ] pt)
      obj;
    if not (Lp.feasible m pt) then Alcotest.fail "returned point infeasible"
  | r ->
    Alcotest.failf "expected Optimal, got %s"
      (match r with
      | Bb.Infeasible -> "Infeasible"
      | Bb.Unbounded -> "Unbounded"
      | Bb.Exhausted -> "Exhausted"
      | Bb.Optimal _ -> assert false));
  (* and when rounding breaks a constraint (violation above feasibility
     eps while the fraction is below integrality eps), the unrounded
     LP-feasible point must be returned instead of a corrupted one *)
  let m = Lp.create "roundback" in
  let x = Lp.add_var m ~kind:Lp.Integer ~hi:10. "x" in
  Lp.add_constr m [ (10., x) ] Lp.Le 9.999995;
  Lp.set_objective m ~maximize:true [ (1., x) ];
  match Bb.solve m with
  | Bb.Optimal { obj; x = pt; _ } ->
    if not (Lp.feasible m pt) then
      Alcotest.failf "rounded point kept despite breaking the row (x = %g)" pt.(0);
    Alcotest.(check (float 1e-12)) "objective matches returned point" pt.(0) obj
  | _ -> Alcotest.fail "expected Optimal"

let test_cert_bound_fathoms () =
  (* certifier-guided pruning: the structural bound alone (no LP solve)
     must fathom the up-branch. max x+y st x+y <= 1.5, binaries; the
     certificate says any box that forces a variable to 1 caps the
     objective at 0.9 < incumbent 1, so the subtree dies at the pop.
     Without the cert bound the child's LP bound (1.5) keeps it alive. *)
  let m = Lp.create "certfathom" in
  let x = Lp.add_var m ~kind:Lp.Binary "x" in
  let y = Lp.add_var m ~kind:Lp.Binary "y" in
  Lp.add_constr m [ (1., x); (1., y) ] Lp.Le 1.5;
  Lp.set_objective m ~maximize:true [ (1., x); (1., y) ];
  let cert_bound fixes =
    if List.exists (fun (_, lo, _) -> lo >= 0.5) fixes then 0.9 else 2.
  in
  match Bb.solve ~cert_bound m with
  | Bb.Optimal { obj; proved_optimal; nodes; _ } ->
    Alcotest.(check (float 1e-9)) "objective" 1. obj;
    Alcotest.(check bool) "proved" true proved_optimal;
    if nodes > 3 then
      Alcotest.failf "cert bound did not fathom: %d nodes explored" nodes
  | _ -> Alcotest.fail "expected Optimal"

let suite =
  [
    Alcotest.test_case "revised vs dense: 250 random LPs" `Quick test_lp_differential;
    Alcotest.test_case "revised vs dense: equality-heavy LPs" `Quick
      test_lp_differential_eq_heavy;
    Alcotest.test_case "warm start equivalence" `Quick test_warm_start_equivalence;
    Alcotest.test_case "branch&bound vs brute force (negative boxes)" `Quick
      test_milp_bruteforce;
    Alcotest.test_case "regression: Exhausted, not Infeasible" `Quick
      test_exhausted_not_infeasible;
    Alcotest.test_case "regression: free variable with finite upper bound" `Quick
      test_free_var_finite_upper;
    Alcotest.test_case "regression: rounded incumbent is re-checked" `Quick
      test_rounded_incumbent_consistent;
    Alcotest.test_case "certifier bound fathoms without LP solves" `Quick
      test_cert_bound_fathoms;
  ]
