module M = Timing.Model
module D = Diagnostic

let r_row =
  {
    Rule.id = "milp-row-violated";
    target = Rule.Milp;
    severity = D.Error;
    doc = "the returned solution must satisfy every constraint row of the LP";
  }

let r_bound =
  {
    Rule.id = "milp-bound-violated";
    target = Rule.Milp;
    severity = D.Error;
    doc = "the returned solution must respect every variable bound";
  }

let r_integrality =
  {
    Rule.id = "milp-integrality";
    target = Rule.Milp;
    severity = D.Error;
    doc = "binary/integer variables must take integral values";
  }

let r_cp =
  {
    Rule.id = "milp-cp-exceeded";
    target = Rule.Milp;
    severity = D.Error;
    doc = "re-derived arrival times must meet the clock-period target";
  }

let r_unfixable =
  {
    Rule.id = "milp-unfixable-path";
    target = Rule.Milp;
    severity = D.Info;
    doc = "segments longer than the target that no buffering can fix";
  }

let r_solve_failed =
  {
    Rule.id = "milp-solve-failed";
    target = Rule.Milp;
    severity = D.Error;
    doc = "the buffer-placement MILP must return a solution";
  }

let rules = [ r_row; r_bound; r_integrality; r_cp; r_unfixable; r_solve_failed ]

let solve_failure msg = Rule.diag r_solve_failed ~loc:D.Whole "%s" msg

let eps = 1e-6

(* Independent clock-period certificate: worst-case arrival times are
   re-propagated over the model's delay pairs. A buffered source terminal
   restarts the path (fresh launch at delay d); an unbuffered one chains
   [a_src + d]. Pairs that exceed the target on a single hop are
   unfixable by construction and excluded from the error check (the
   formulation excludes them from its constraints the same way). *)
let check_cp ~cp ~buffered (model : M.t) emit =
  let buf = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace buf c ()) buffered;
  let is_buffered = function
    | M.T_reg -> true (* a register is its own launch point *)
    | M.T_chan_fwd c | M.T_chan_bwd c -> Hashtbl.mem buf c
  in
  let chan_of = function M.T_chan_fwd c | M.T_chan_bwd c -> c | M.T_reg -> -1 in
  (* index the channel-crossing terminals *)
  let ids : (M.terminal, int) Hashtbl.t = Hashtbl.create 64 in
  let terms = ref [] and n = ref 0 in
  let id_of t =
    match Hashtbl.find_opt ids t with
    | Some i -> i
    | None ->
      let i = !n in
      incr n;
      Hashtbl.replace ids t i;
      terms := t :: !terms;
      i
  in
  let unfixable = ref 0 and worst_unfixable = ref 0. in
  let note_unfixable d =
    incr unfixable;
    if d > !worst_unfixable then worst_unfixable := d
  in
  (* base arrivals, chained edges, and capture pairs *)
  let base = Hashtbl.create 64 in
  let raise_base t d =
    let i = id_of t in
    match Hashtbl.find_opt base i with
    | Some d0 when d0 >= d -> ()
    | _ -> Hashtbl.replace base i d
  in
  let edges = ref [] and captures = ref [] in
  List.iter
    (fun { M.p_src; p_dst; p_delay = d } ->
      if d > cp +. eps then note_unfixable d
      else
        match (p_src, p_dst) with
        | M.T_reg, M.T_reg -> ()
        | src, M.T_reg ->
          (* ends at a register: total must fit in CP *)
          if is_buffered src then () (* fresh launch of d <= cp: fine *)
          else captures := (id_of src, d) :: !captures
        | src, dst ->
          raise_base dst d;
          if not (is_buffered src) then edges := (id_of src, id_of dst, d) :: !edges)
    model.M.pairs;
  if model.M.fixed_reg_to_reg > cp +. eps then note_unfixable model.M.fixed_reg_to_reg;
  (* longest-path DP over the chained segments (Kahn order) *)
  let n = !n in
  let term_of = Array.make (max n 1) M.T_reg in
  List.iter (fun t -> term_of.(Hashtbl.find ids t) <- t) !terms;
  let succ = Array.make n [] in
  List.iter (fun (s, t, d) -> succ.(s) <- (t, d) :: succ.(s)) !edges;
  let arrival = Array.make n 0. in
  for i = 0 to n - 1 do
    arrival.(i) <- Option.value (Hashtbl.find_opt base i) ~default:0.
  done;
  let order, rest = Support.Digraph.topo (Array.map (List.map fst) succ) in
  Array.iter
    (fun i ->
      List.iter
        (fun (t, d) -> if arrival.(i) +. d > arrival.(t) then arrival.(t) <- arrival.(i) +. d)
        succ.(i))
    order;
  if rest <> [] then
    emit
      (Rule.diag r_cp ~loc:(D.Channel (chan_of term_of.(List.hd rest)))
         "unbuffered segments form a combinational cycle: arrival times diverge")
  else begin
    for i = 0 to n - 1 do
      if arrival.(i) > cp +. 1e-4 then
        emit
          (Rule.diag r_cp ~loc:(D.Channel (chan_of term_of.(i)))
             "arrival at %s reaches %.3f ns, target %.3f ns"
             (Format.asprintf "%a" M.pp_terminal term_of.(i))
             arrival.(i) cp)
    done;
    List.iter
      (fun (s, d) ->
        if arrival.(s) +. d > cp +. 1e-4 then
          emit
            (Rule.diag r_cp ~loc:(D.Channel (chan_of term_of.(s)))
               "capture path from %s reaches %.3f ns, target %.3f ns"
               (Format.asprintf "%a" M.pp_terminal term_of.(s))
               (arrival.(s) +. d) cp))
      !captures
  end;
  if !unfixable > 0 then
    emit
      (Rule.diag r_unfixable ~loc:D.Whole
         "%d segment(s) exceed the %.3f ns target on an unbreakable span (worst %.3f ns); \
          no buffer placement can fix them"
         !unfixable cp !worst_unfixable)

let check ~cp_target ~buffered (model : M.t) lp x =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  List.iter
    (fun v ->
      let render () = Format.asprintf "%a" (Milp.Lp.pp_violation lp) v in
      match v with
      | Milp.Lp.V_constr { row; _ } ->
        emit (Rule.diag r_row ~loc:(D.Milp_row row) "%s" (render ()))
      | Milp.Lp.V_bound { var; _ } ->
        emit (Rule.diag r_bound ~loc:(D.Milp_var var) "%s" (render ()))
      | Milp.Lp.V_integrality { var; _ } ->
        emit (Rule.diag r_integrality ~loc:(D.Milp_var var) "%s" (render ())))
    (Milp.Lp.violations lp x);
  check_cp ~cp:cp_target ~buffered model emit;
  List.rev !acc
