type result =
  | Optimal of { obj : float; x : float array; proved_optimal : bool; nodes : int }
  | Infeasible
  | Unbounded
  | Exhausted

type node = {
  bound : float; (* min of parent LP bound and certified ceiling *)
  cert : float; (* certified ceiling of this node's box, sense-space *)
  fixes : (int * float * float) list;
  warm : Simplex.basis option; (* parent's final basis *)
}

(* max-heap on the relaxation bound (for maximisation; bounds are negated
   for minimisation so the heap order is uniform) *)
module Heap = struct
  type t = { mutable data : node array; mutable len : int }

  let create () =
    { data = Array.make 64 { bound = 0.; cert = 0.; fixes = []; warm = None }; len = 0 }

  let push h n =
    if h.len = Array.length h.data then begin
      let d = Array.make (2 * h.len) n in
      Array.blit h.data 0 d 0 h.len;
      h.data <- d
    end;
    h.data.(h.len) <- n;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.data.((!i - 1) / 2).bound < h.data.(!i).bound do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let largest = ref !i in
        if l < h.len && h.data.(l).bound > h.data.(!largest).bound then largest := l;
        if r < h.len && h.data.(r).bound > h.data.(!largest).bound then largest := r;
        if !largest = !i then continue := false
        else begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!largest);
          h.data.(!largest) <- tmp;
          i := !largest
        end
      done;
      Some top
    end
end

(* above this many queued nodes, stop attaching warm bases to children:
   a basis token is O(rows + vars) memory and a cold solve is merely
   slower, not wrong *)
let warm_heap_cap = 4096

(* integrality tolerance *)
let eps = 1e-6

let solve ?(node_limit = 50_000) ?(time_limit = 120.) ?initial ?warm ?cert_bound lp =
  Support.Trace.with_span ~cat:"milp" "milp:bb" @@ fun () ->
  let started = Unix.gettimeofday () in
  let maximize, obj_terms = Lp.objective lp in
  let sense = if maximize then 1. else -1. in
  let nv = Lp.n_vars lp in
  let int_vars =
    List.filter
      (fun v -> match Lp.var_kind lp v with Lp.Binary | Lp.Integer -> true | Lp.Continuous -> false)
      (List.init nv (fun i -> i))
  in
  let original_bounds = Array.init nv (fun v -> Lp.bounds lp v) in
  let restore () =
    Array.iteri (fun v (lo, hi) -> Lp.set_bounds lp v ~lo ~hi) original_bounds
  in
  let apply_fixes fixes =
    restore ();
    (* a node's box is the intersection of all its fixes: the same
       variable can be branched more than once down a path (general
       integers with a range wider than one), and the newest fix sits at
       the head of the list — overwriting instead of intersecting would
       silently widen the box back *)
    List.iter
      (fun (v, lo, hi) ->
        let cur_lo, cur_hi = Lp.bounds lp v in
        Lp.set_bounds lp v ~lo:(max lo cur_lo) ~hi:(min hi cur_hi))
      fixes
  in
  let frac x = abs_float (x -. Float.round x) in
  let most_fractional x =
    List.fold_left
      (fun best v ->
        let f = frac x.(v) in
        if f > eps then match best with Some (_, bf) when bf >= f -> best | _ -> Some (v, f)
        else best)
      None int_vars
  in
  let incumbent =
    ref
      (match initial with
      | Some x0
        when Array.length x0 = nv
             && Lp.feasible lp x0
             && List.for_all (fun v -> abs_float (x0.(v) -. Float.round x0.(v)) <= eps) int_vars ->
        Some (Lp.eval_expr obj_terms x0, Array.copy x0)
      | _ -> None)
  in
  let nodes = ref 0 in
  let relaxations = ref 0 in
  let fathomed_by_cert = ref 0 in
  let heap = Heap.create () in
  (* one solver workspace for every relaxation of the search *)
  let ws = Simplex.workspace () in
  let relax ?warm fixes =
    incr relaxations;
    apply_fixes fixes;
    Simplex.solve_basis ~ws ?warm lp
  in
  let better obj =
    match !incumbent with None -> true | Some (bo, _) -> sense *. obj > (sense *. bo) +. 1e-9
  in
  (* the certifier's structural bound: no completion of [fixes] can push
     sense * objective above [sense * cert_bound fixes]. Sound by
     construction (see Buffering.Formulation), so a node whose certified
     ceiling does not beat the incumbent is fathomed without ever
     touching the LP. *)
  let cert_ceiling fixes =
    match cert_bound with None -> infinity | Some f -> sense *. f fixes
  in
  let beaten_by_incumbent ceiling =
    match !incumbent with
    | Some (bo, _) -> ceiling <= (sense *. bo) +. 1e-9
    | None -> false
  in
  let root_ceiling = cert_ceiling [] in
  (* the certified global optimum is reached: every open node is beaten *)
  let cert_optimal () =
    match !incumbent with
    | Some (bo, _) -> root_ceiling < infinity && sense *. bo >= root_ceiling -. 1e-9
    | None -> false
  in
  let root, root_basis = relax ?warm [] in
  let result =
    match root with
    | Simplex.Infeasible -> Infeasible
    | Simplex.Unbounded -> Unbounded
    | Simplex.Optimal { obj; x } -> (
      (* root diving heuristic: walk down from the root relaxation fixing
         the most fractional variable to its nearest integer and
         re-solving warm; if that side is infeasible (or no longer beats
         the incumbent), try the other rounding once before giving up.
         Each step is a handful of warm pivots, the dive is at most one
         LP per fractional variable, and the integral leaf it reaches is
         an LP solution — feasible by construction. Budget-limited
         searches depend on a strong early incumbent far more than on
         node order: best-first alone can spend its whole budget before
         stumbling on an integral vertex. *)
      let dive () =
        let deadline_hit () = Unix.gettimeofday () -. started > time_limit *. 0.25 in
        let rec go fixes warm x =
          match most_fractional x with
          | None ->
            let o = Lp.eval_expr obj_terms x in
            if better o then incumbent := Some (o, Array.copy x)
          | Some (v, _) when not (deadline_hit ()) ->
            let r = Float.round x.(v) in
            let try_fix value k =
              match relax ?warm ((v, value, value) :: fixes) with
              | Simplex.Optimal { obj; x }, b when better obj ->
                go ((v, value, value) :: fixes) b x
              | _ -> k ()
            in
            let other = if r > x.(v) then r -. 1. else r +. 1. in
            let lo, hi = original_bounds.(v) in
            try_fix r (fun () ->
                if other >= lo -. 1e-9 && other <= hi +. 1e-9 then
                  try_fix other (fun () -> ()))
          | Some _ -> ()
        in
        go [] root_basis x
      in
      (match most_fractional x with
      | None -> incumbent := Some (obj, x)
      | Some _ ->
        (* a zero node budget means "no search", heuristics included *)
        if node_limit > 0 then dive ();
        Heap.push heap
          {
            bound = Float.min (sense *. obj) root_ceiling;
            cert = root_ceiling;
            fixes = [];
            warm = root_basis;
          });
      let exhausted = ref false in
      let continue = ref (not (cert_optimal ())) in
      while !continue do
        match Heap.pop heap with
        | None -> continue := false
        | Some nd ->
          if !nodes >= node_limit || Unix.gettimeofday () -. started > time_limit then begin
            exhausted := true;
            continue := false
          end
          else begin
            incr nodes;
            (* prune against incumbent: the certifier's LP-free ceiling
               for this subtree (computed once, when the node was
               pushed), then the parent LP bound *)
            let prune =
              if beaten_by_incumbent nd.cert then begin
                incr fathomed_by_cert;
                true
              end
              else beaten_by_incumbent nd.bound
            in
            if not prune then begin
              match relax ?warm:nd.warm nd.fixes with
              | Simplex.Infeasible, _ -> ()
              | Simplex.Unbounded, _ -> ()
              | Simplex.Optimal { obj; x }, basis -> (
                if (not (better obj)) then ()
                else
                  match most_fractional x with
                  | None ->
                    incumbent := Some (obj, Array.copy x);
                    if cert_optimal () then continue := false
                  | Some (v, _) ->
                    (* simple-rounding primal heuristic: the node box is
                       inside the original one, so a rounded point that
                       satisfies the current lp is globally feasible.
                       Budget-limited searches live off incumbents found
                       this way — best-first alone rarely lands on
                       integral vertices. *)
                    let xr = Array.copy x in
                    List.iter (fun w -> xr.(w) <- Float.round xr.(w)) int_vars;
                    let obj_r = Lp.eval_expr obj_terms xr in
                    if better obj_r && Lp.feasible lp xr then begin
                      incumbent := Some (obj_r, xr);
                      if cert_optimal () then continue := false
                    end;
                    let lo, hi = original_bounds.(v) in
                    let lo =
                      List.fold_left (fun acc (w, l, _) -> if w = v then max acc l else acc) lo nd.fixes
                    in
                    let hi =
                      List.fold_left (fun acc (w, _, h) -> if w = v then min acc h else acc) hi nd.fixes
                    in
                    let warm = if heap.Heap.len > warm_heap_cap then None else basis in
                    let f = Float.of_int (int_of_float (floor (x.(v) +. 1e-9))) in
                    let push fixes =
                      let cert = cert_ceiling fixes in
                      Heap.push heap
                        { bound = Float.min (sense *. obj) cert; cert; fixes; warm }
                    in
                    if f >= lo -. 1e-9 then push ((v, lo, f) :: nd.fixes);
                    if f +. 1. <= hi +. 1e-9 then push ((v, f +. 1., hi) :: nd.fixes))
            end
          end
      done;
      match !incumbent with
      | None -> if !exhausted then Exhausted else Infeasible
      | Some (obj, x) ->
        (* Round integer variables exactly, then re-derive the objective
           from the rounded point and check it is still feasible —
           rounding can cross a constraint even though each variable
           moves by at most the integrality tolerance. If it does, the
           unrounded solution (feasible by construction) is returned
           instead of a corrupted one. *)
        restore ();
        let xr = Array.copy x in
        List.iter (fun v -> xr.(v) <- Float.round xr.(v)) int_vars;
        let obj_r = Lp.eval_expr obj_terms xr in
        let obj, x = if Lp.feasible lp xr then (obj_r, xr) else (obj, x) in
        Optimal { obj; x; proved_optimal = not !exhausted; nodes = !nodes })
  in
  Support.Trace.add "milp.bb.nodes" !nodes;
  Support.Trace.add "milp.lp.relaxations" !relaxations;
  Support.Trace.add "milp.bb.fathomed_by_cert" !fathomed_by_cert;
  restore ();
  result
