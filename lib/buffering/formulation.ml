module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module M = Timing.Model

type config = {
  cp_target : float;
  alpha : float;
  beta : float;
  use_penalty : bool;
  node_limit : int;
  time_limit : float;
}

let default_config =
  {
    cp_target = 4.2;
    alpha = 10.;
    beta = 0.05;
    use_penalty = true;
    node_limit = 20_000;
    time_limit = 120.;
  }

type placement = {
  new_buffers : G.channel_id list;
  all_buffered : G.channel_id list;
  throughput : float list;
  objective : float;
  proved_optimal : bool;
  unfixable_paths : int;
  milp_vars : int;
  milp_constrs : int;
  lp : Milp.Lp.t;
  solution : float array;
}

let solve ?(cache = Cache.Session.disabled) ?warm cfg g (model : M.t) cfdfcs =
  let lp = Milp.Lp.create (G.name g ^ "_buffering") in
  let cp = cfg.cp_target in
  let unfixable = ref 0 in
  (* ---- R_c variables ---- *)
  let r_vars : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let is_buffered c =
    match G.buffer g c with Some { G.transparent = false; _ } -> true | _ -> false
  in
  let r_of c =
    match Hashtbl.find_opt r_vars c with
    | Some v -> v
    | None ->
      let v = Milp.Lp.add_var lp ~kind:Milp.Lp.Binary (Printf.sprintf "R_c%d" c) in
      if is_buffered c then Milp.Lp.set_bounds lp v ~lo:1. ~hi:1.;
      Hashtbl.replace r_vars c v;
      v
  in
  (* ---- arrival-time variables ---- *)
  let arr_vars : (M.terminal, int) Hashtbl.t = Hashtbl.create 64 in
  let arr_of term =
    match Hashtbl.find_opt arr_vars term with
    | Some v -> v
    | None ->
      let nm = Format.asprintf "a_%a" M.pp_terminal term in
      let v = Milp.Lp.add_var lp ~lo:0. ~hi:cp nm in
      Hashtbl.replace arr_vars term v;
      v
  in
  let chan_of_term = function M.T_chan_fwd c | M.T_chan_bwd c -> c | M.T_reg -> -1 in
  (* ---- clock-period constraints from delay pairs ----
     Single-variable lower bounds (launch pairs and the fresh-launch
     part of crossing pairs) are folded into variable bounds: it keeps
     the tableau small and removes most phase-1 artificials. *)
  let raise_lo term d =
    let v = arr_of term in
    let lo, hi = Milp.Lp.bounds lp v in
    Milp.Lp.set_bounds lp v ~lo:(max lo d) ~hi
  in
  List.iter
    (fun { M.p_src; p_dst; p_delay = d } ->
      match (p_src, p_dst) with
      | M.T_reg, M.T_reg -> if d > cp +. 1e-9 then incr unfixable
      | M.T_reg, t -> if d > cp +. 1e-9 then incr unfixable else raise_lo t d
      | s, M.T_reg ->
        if d > cp +. 1e-9 then incr unfixable
        else begin
          (* a_s + d - CP*R_s <= CP *)
          let rs = r_of (chan_of_term s) in
          Milp.Lp.add_constr lp [ (1., arr_of s); (-.cp, rs) ] Milp.Lp.Le (cp -. d)
        end
      | s, t ->
        if d > cp +. 1e-9 then incr unfixable
        else begin
          let rs = r_of (chan_of_term s) in
          let a_s = arr_of s and a_t = arr_of t in
          (* a_t >= a_s + d - CP*R_s *)
          Milp.Lp.add_constr lp [ (1., a_t); (-1., a_s); (cp, rs) ] Milp.Lp.Ge d;
          (* a_t >= d even when s is buffered (fresh launch) *)
          raise_lo t d
        end)
    model.M.pairs;
  (* ---- throughput per CFDFC ---- *)
  let thetas =
    List.map
      (fun (cf : Cfdfc.t) ->
        let theta = Milp.Lp.add_var lp ~lo:0. ~hi:1. "theta" in
        let retim = Hashtbl.create 16 in
        let r_u u =
          match Hashtbl.find_opt retim u with
          | Some v -> v
          | None ->
            let v =
              Milp.Lp.add_var lp ~lo:neg_infinity ~hi:infinity (Printf.sprintf "r_u%d" u)
            in
            Hashtbl.replace retim u v;
            v
        in
        let back = Hashtbl.create 8 in
        List.iter (fun c -> Hashtbl.replace back c ()) cf.Cfdfc.back_edges;
        List.iter
          (fun cid ->
            let c = G.channel g cid in
            let rc = r_of cid in
            (* w = theta * R_c, McCormick (exact for binary R) *)
            let w = Milp.Lp.add_var lp ~lo:0. ~hi:1. (Printf.sprintf "w_c%d" cid) in
            Milp.Lp.add_constr lp [ (1., w); (-1., rc) ] Milp.Lp.Le 0.;
            Milp.Lp.add_constr lp [ (1., w); (-1., theta) ] Milp.Lp.Le 0.;
            Milp.Lp.add_constr lp [ (1., w); (-1., theta); (-1., rc) ] Milp.Lp.Ge (-1.);
            (* r_v - r_u - theta*L_u - w >= -m_c *)
            let lat = float_of_int (K.latency (G.unit_node g c.G.src).G.kind) in
            let m = if Hashtbl.mem back cid then 1. else 0. in
            Milp.Lp.add_constr lp
              [ (1., r_u c.G.dst); (-1., r_u c.G.src); (-.lat, theta); (-1., w) ]
              Milp.Lp.Ge (-.m))
          cf.Cfdfc.channels;
        (* every cycle keeps at least one opaque buffer *)
        List.iter
          (fun cyc ->
            Milp.Lp.add_constr lp (List.map (fun c -> (1., r_of c)) cyc) Milp.Lp.Ge 1.)
          cf.Cfdfc.cycles;
        theta)
      cfdfcs
  in
  (* ---- objective (Eq. 1 / Eq. 3) ---- *)
  let obj =
    List.map (fun th -> (cfg.alpha, th)) thetas
    @ (Hashtbl.fold
         (fun c v acc ->
           let pen = if cfg.use_penalty then model.M.penalty.(c) else 0. in
           (-.cfg.beta *. (1. +. pen), v) :: acc)
         r_vars [])
  in
  Milp.Lp.set_objective lp ~maximize:true obj;
  (* ---- LP-free certified ceiling ----
     Per CFDFC, Howard's minimum cycle ratio on the subgraph with
     tokens as cost and [latency + 1 per opaque buffer] as time:
     telescoping the retiming rows around any cycle C gives
     [theta * (L(C) + buffers(C)) <= tokens(C)], and a channel whose
     [R_c] is forced to 1 — pre-existing in the graph or pinned by a
     branch & bound fix — is opaque in every feasible point of the
     node's box, so the minimum ratio is a sound upper bound on theta
     throughout the subtree. Combined with the forced R_c's objective
     cost this bounds the objective of any node box without touching
     the LP — branch & bound fathoms against it. *)
  let cert_graphs =
    List.map
      (fun (cf : Cfdfc.t) ->
        let idx = Hashtbl.create 16 in
        List.iteri (fun i u -> Hashtbl.replace idx u i) cf.Cfdfc.units;
        let back = Hashtbl.create 8 in
        List.iter (fun c -> Hashtbl.replace back c ()) cf.Cfdfc.back_edges;
        let edges =
          List.filter_map
            (fun cid ->
              let c = G.channel g cid in
              match (Hashtbl.find_opt idx c.G.src, Hashtbl.find_opt idx c.G.dst) with
              | Some s, Some d ->
                Some
                  ( cid,
                    {
                      Analysis.Cycle_ratio.e_src = s;
                      e_dst = d;
                      e_cost = (if Hashtbl.mem back cid then 1 else 0);
                      e_time = K.latency (G.unit_node g c.G.src).G.kind;
                      e_id = cid;
                    } )
              | _ -> None)
            cf.Cfdfc.channels
        in
        (List.length cf.Cfdfc.units, edges))
      cfdfcs
  in
  let theta_cap forced (n_nodes, edges) =
    let graph =
      {
        Analysis.Cycle_ratio.n_nodes;
        edges =
          List.map
            (fun (cid, e) ->
              if Hashtbl.mem forced cid then
                { e with Analysis.Cycle_ratio.e_time = e.Analysis.Cycle_ratio.e_time + 1 }
              else e)
            edges;
      }
    in
    (* a zero-time cycle (no latency, no forced buffer yet) will take
       its mandatory buffer only once the MILP decides where: fall back
       to the variable bound, which is always sound *)
    match Analysis.Cycle_ratio.howard graph with
    | Some (w, _) -> Float.max 0. (Float.min 1. w.Analysis.Cycle_ratio.ratio)
    | None -> 1.
    | exception Invalid_argument _ -> 1.
  in
  let r_cost = Hashtbl.create 64 in
  let chan_of_rvar = Hashtbl.create 64 in
  Hashtbl.iter
    (fun c v ->
      let pen = if cfg.use_penalty then model.M.penalty.(c) else 0. in
      Hashtbl.replace r_cost v (cfg.beta *. (1. +. pen));
      Hashtbl.replace chan_of_rvar v c)
    r_vars;
  let base_forced =
    Hashtbl.fold
      (fun c v acc -> if fst (Milp.Lp.bounds lp v) >= 0.5 then (c, v) :: acc else acc)
      r_vars []
  in
  let cert_bound fixes =
    (* channels opaque in every feasible completion of this node *)
    let forced_chans = Hashtbl.create 16 and forced_vars = Hashtbl.create 16 in
    List.iter
      (fun (c, v) ->
        Hashtbl.replace forced_chans c ();
        Hashtbl.replace forced_vars v ())
      base_forced;
    List.iter
      (fun (v, lo, _) ->
        match Hashtbl.find_opt chan_of_rvar v with
        | Some c when lo >= 0.5 ->
          Hashtbl.replace forced_chans c ();
          Hashtbl.replace forced_vars v ()
        | _ -> ())
      fixes;
    let thetas =
      List.fold_left (fun acc cg -> acc +. theta_cap forced_chans cg) 0. cert_graphs
    in
    Hashtbl.fold
      (fun v () acc -> acc -. Hashtbl.find r_cost v)
      forced_vars
      (cfg.alpha *. thetas)
  in
  let run_solver () =
    (* temporarily pin every R_c to [choose]'s verdict, solve the
       continuous rest, restore the bounds *)
    let with_fixed_rs choose k =
      let saved = Hashtbl.fold (fun c v acc -> (c, v, Milp.Lp.bounds lp v) :: acc) r_vars [] in
      List.iter
        (fun (c, v, _) ->
          let r = if choose c v then 1. else 0. in
          Milp.Lp.set_bounds lp v ~lo:r ~hi:r)
        saved;
      let result = k () in
      List.iter (fun (_, v, (lo, hi)) -> Milp.Lp.set_bounds lp v ~lo ~hi) saved;
      result
    in
    (* one root relaxation; its basis warm-starts the incumbent solve
       below and branch & bound's own root (structurally the same model,
       only bounds move) *)
    let relax, root_basis = Milp.Simplex.solve_basis lp in
    let solve_fixed () =
      match Milp.Simplex.solve ?warm:root_basis lp with
      | Milp.Simplex.Optimal { x = x0; _ } -> Some x0
      | _ -> None
    in
    (* Incumbent seed, best first: the previous flow iteration's
       placement re-priced under this iteration's timing model (usually
       near-optimal, and exactly optimal once the flow has converged);
       otherwise the rounding heuristic — buffer-everywhere directions
       are always CP-feasible, so rounding the relaxation's fractional R
       up and re-solving the continuous rest yields a feasible incumbent
       that lets branch & bound prune from the start. *)
    let seeded =
      match warm with
      | None -> None
      | Some buffered ->
        let member = Hashtbl.create 64 in
        List.iter (fun c -> Hashtbl.replace member c ()) buffered;
        with_fixed_rs
          (fun c v -> Hashtbl.mem member c || fst (Milp.Lp.bounds lp v) >= 0.5)
          solve_fixed
    in
    let initial =
      match (seeded, relax) with
      | (Some _ as s), _ -> s
      | None, Milp.Simplex.Optimal { x; _ } ->
        with_fixed_rs (fun _ v -> x.(v) > 1e-4) solve_fixed
      | None, _ -> None
    in
    Milp.Bb.solve ~node_limit:cfg.node_limit ~time_limit:cfg.time_limit ?initial
      ?warm:root_basis ~cert_bound lp
  in
  (* The solved assignment is memoized on the canonical hash of the
     formulation itself (plus the search budget): a warm run skips both
     the rounding heuristic's simplex solves and the branch & bound.
     The cached solution is still checked row-by-row against the
     freshly built [lp] by the milp lint gate downstream, so a cache
     that somehow served a wrong assignment would be flagged, not
     silently trusted. *)
  let bb_result =
    if Cache.Session.enabled cache then
      let key =
        (* the warm hint participates in the key: among equal-objective
           optima branch & bound returns the first one found, which a
           different incumbent seed can legitimately change — the cache
           must not serve a differently-seeded run's assignment. The
           search budgets participate too: a tighter budget can stop at
           a weaker incumbent, and an entry computed under one budget
           must not answer for another. *)
        Cache.Hash.combine
          ([
             Cache.Hash.lp lp;
             Printf.sprintf "node_limit=%d;time_limit=%g" cfg.node_limit cfg.time_limit;
           ]
          @
          match warm with
          | None -> []
          | Some buffered ->
            [
              "warm="
              ^ String.concat ","
                  (List.map string_of_int (List.sort_uniq compare buffered));
            ])
      in
      Cache.Session.memo cache ~kind:"milp" ~key run_solver
    else run_solver ()
  in
  match bb_result with
  | Milp.Bb.Infeasible -> Error "buffer MILP infeasible"
  | Milp.Bb.Unbounded -> Error "buffer MILP unbounded"
  | Milp.Bb.Exhausted ->
    Error "buffer MILP node budget exhausted before any feasible placement was found"
  | Milp.Bb.Optimal { obj; x; proved_optimal; _ } ->
    let all_buffered =
      Hashtbl.fold (fun c v acc -> if x.(v) > 0.5 then c :: acc else acc) r_vars []
      |> List.sort compare
    in
    let new_buffers = List.filter (fun c -> not (is_buffered c)) all_buffered in
    Ok
      {
        new_buffers;
        all_buffered;
        throughput = List.map (fun th -> x.(th)) thetas;
        objective = obj;
        proved_optimal;
        unfixable_paths = !unfixable;
        milp_vars = Milp.Lp.n_vars lp;
        milp_constrs = Milp.Lp.n_constrs lp;
        lp;
        solution = x;
      }
