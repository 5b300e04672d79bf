type edge = { e_src : int; e_dst : int; e_cost : int; e_time : int; e_id : int }
type graph = { n_nodes : int; edges : edge list }
type stats = { iterations : int; cycles_evaluated : int }
type witness = { ratio : float; cycle : edge list }

let eps = 1e-10

(* ---------- Karp's dynamic program (cross-check) ---------- *)

(* Minimum cycle mean of one SCC (nodes relabelled 0..m-1, intra edges
   as (src, dst, cost)), by Karp's theorem:
     lambda* = min_v max_k (D_m(v) - D_k(v)) / (m - k)
   with D_k(v) the cheapest k-edge walk from an arbitrary source. *)
let karp_mean m edges =
  if edges = [] then None
  else begin
    let inf = max_int / 4 in
    let src = match edges with (s, _, _) :: _ -> s | [] -> assert false in
    let d = Array.make_matrix (m + 1) m inf in
    d.(0).(src) <- 0;
    for k = 1 to m do
      List.iter
        (fun (u, v, c) ->
          if d.(k - 1).(u) < inf && d.(k - 1).(u) + c < d.(k).(v) then
            d.(k).(v) <- d.(k - 1).(u) + c)
        edges
    done;
    let best = ref infinity in
    for v = 0 to m - 1 do
      if d.(m).(v) < inf then begin
        let worst = ref neg_infinity in
        for k = 0 to m - 1 do
          if d.(k).(v) < inf then begin
            let r = float_of_int (d.(m).(v) - d.(k).(v)) /. float_of_int (m - k) in
            if r > !worst then worst := r
          end
        done;
        if !worst > neg_infinity && !worst < !best then best := !worst
      end
    done;
    if !best = infinity then None else Some !best
  end

let karp (gr : graph) =
  let n = gr.n_nodes in
  List.iter
    (fun e ->
      if e.e_src < 0 || e.e_src >= n || e.e_dst < 0 || e.e_dst >= n then
        invalid_arg "Cycle_ratio.karp: edge endpoint out of range";
      if e.e_time < 0 then invalid_arg "Cycle_ratio.karp: negative transit time";
      if e.e_time = 0 && e.e_cost < 0 then
        invalid_arg "Cycle_ratio.karp: negative cost on zero-time edge")
    gr.edges;
  let zero = List.filter (fun e -> e.e_time = 0) gr.edges in
  let timed = List.filter (fun e -> e.e_time > 0) gr.edges in
  let zadj = Array.make n [] in
  List.iter (fun e -> zadj.(e.e_src) <- e :: zadj.(e.e_src)) zero;
  (* the zero-time subgraph must be a DAG (the closure below would
     diverge on a zero-time cycle): relax in its topological order *)
  let zorder, zcyclic = Support.Digraph.topo (Array.map (List.map (fun e -> e.e_dst)) zadj) in
  if zcyclic <> [] then invalid_arg "Cycle_ratio.karp: zero-time cycle";
  if timed = [] then None
  else begin
    (* heads = targets of timed edges: the only nodes the contracted
       graph keeps. z v = cheapest zero-time distance from a head. *)
    let heads = List.sort_uniq compare (List.map (fun e -> e.e_dst) timed) in
    let head_id = Hashtbl.create 16 in
    List.iteri (fun i h -> Hashtbl.replace head_id h i) heads;
    let inf = max_int / 4 in
    let zdist_from h =
      let d = Array.make n inf in
      d.(h) <- 0;
      Array.iter
        (fun v ->
          if d.(v) < inf then
            List.iter
              (fun e -> if d.(v) + e.e_cost < d.(e.e_dst) then d.(e.e_dst) <- d.(v) + e.e_cost)
              zadj.(v))
        zorder;
      d
    in
    (* expanded graph: head h --(z + cost, over e_time unit steps)--> head h'.
       Chain nodes are appended after the heads. *)
    let next_id = ref (List.length heads) in
    let xedges = ref [] in
    List.iter
      (fun h ->
        let z = zdist_from h in
        List.iter
          (fun e ->
            if z.(e.e_src) < inf then begin
              let cost = z.(e.e_src) + e.e_cost in
              let hs = Hashtbl.find head_id h and hd = Hashtbl.find head_id e.e_dst in
              if e.e_time = 1 then xedges := (hs, hd, cost) :: !xedges
              else begin
                let rec chain u k =
                  if k = 1 then xedges := (u, hd, 0) :: !xedges
                  else begin
                    let w = !next_id in
                    incr next_id;
                    xedges := (u, w, 0) :: !xedges;
                    chain w (k - 1)
                  end
                in
                let w0 = !next_id in
                incr next_id;
                xedges := (hs, w0, cost) :: !xedges;
                chain w0 (e.e_time - 1)
              end
            end)
          timed)
      heads;
    let xn = !next_id in
    let xadj = Array.make xn [] in
    List.iter (fun (u, v, _) -> xadj.(u) <- v :: xadj.(u)) !xedges;
    let best = ref infinity in
    List.iter
      (fun comp ->
        match comp with
        | [] | [ _ ] when not (List.exists (fun (u, v, _) -> u = v && comp = [ u ]) !xedges)
          -> ()
        | _ ->
          let m = List.length comp in
          let local = Hashtbl.create 16 in
          List.iteri (fun i u -> Hashtbl.replace local u i) comp;
          let intra =
            List.filter_map
              (fun (u, v, c) ->
                match (Hashtbl.find_opt local u, Hashtbl.find_opt local v) with
                | Some lu, Some lv -> Some (lu, lv, c)
                | _ -> None)
              !xedges
          in
          (match karp_mean m intra with
          | Some r when r < !best -> best := r
          | _ -> ()))
      (Support.Digraph.sccs xadj);
    if !best = infinity then None else Some !best
  end

(* ---------- Howard's policy iteration ---------- *)

(* A policy picks one out-edge per node; its functional graph is a set
   of rho-shaped chains into cycles. Evaluation computes, per node, the
   ratio [lam] of the policy cycle it drains into and a reduced
   distance [dist] to it; improvement switches a node's edge first
   towards a strictly smaller successor [lam], then (within the same
   ratio class) towards a strictly smaller reduced distance. At the
   fixpoint the smallest policy-cycle ratio is the global minimum. *)
let howard (gr : graph) =
  let n = gr.n_nodes in
  let out = Array.make n [] in
  let inn = Array.make n [] in
  List.iter
    (fun e ->
      if e.e_src < 0 || e.e_src >= n || e.e_dst < 0 || e.e_dst >= n then
        invalid_arg "Cycle_ratio.howard: edge endpoint out of range";
      if e.e_time < 0 then invalid_arg "Cycle_ratio.howard: negative transit time";
      out.(e.e_src) <- e :: out.(e.e_src);
      inn.(e.e_dst) <- e :: inn.(e.e_dst))
    gr.edges;
  (* Trim nodes that cannot lie on a cycle: repeatedly drop nodes whose
     every out-edge leads to an already-dropped node. *)
  let alive = Array.make n true in
  let outdeg = Array.map List.length out in
  let q = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v q) outdeg;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if alive.(v) then begin
      alive.(v) <- false;
      List.iter
        (fun e ->
          if alive.(e.e_src) then begin
            outdeg.(e.e_src) <- outdeg.(e.e_src) - 1;
            if outdeg.(e.e_src) = 0 then Queue.add e.e_src q
          end)
        inn.(v)
    end
  done;
  if not (Array.exists (fun a -> a) alive) then None
  else begin
    Array.iteri (fun v es -> out.(v) <- List.filter (fun e -> alive.(e.e_dst)) es) out;
    let pi = Array.make n None in
    Array.iteri (fun v a -> if a then pi.(v) <- Some (List.hd out.(v))) alive;
    let policy v = match pi.(v) with Some e -> e | None -> assert false in
    let lam = Array.make n infinity in
    let dist = Array.make n 0. in
    let cycles_evaluated = ref 0 in
    (* Evaluate the current policy: fills [lam]/[dist] for every alive
       node and returns the best (ratio, cycle) among policy cycles. *)
    let evaluate () =
      let state = Array.make n 0 in
      (* 0 = untouched, 1 = on the current walk, 2 = evaluated *)
      let best = ref None in
      for s = 0 to n - 1 do
        if alive.(s) && state.(s) = 0 then begin
          let path = ref [] in
          let v = ref s in
          while state.(!v) = 0 do
            state.(!v) <- 1;
            path := !v :: !path;
            v := (policy !v).e_dst
          done;
          (if state.(!v) = 1 then begin
             (* the walk closed a new policy cycle at [!v] *)
             incr cycles_evaluated;
             let rec cyc acc = function
               | [] -> assert false
               | u :: rest -> if u = !v then u :: acc else cyc (u :: acc) rest
             in
             let nodes = cyc [] !path in
             let edges_c = List.map policy nodes in
             let csum = List.fold_left (fun a e -> a + e.e_cost) 0 edges_c in
             let tsum = List.fold_left (fun a e -> a + e.e_time) 0 edges_c in
             if tsum <= 0 then
               invalid_arg "Cycle_ratio.howard: cycle with non-positive total time";
             let r = float_of_int csum /. float_of_int tsum in
             (match !best with
             | Some (br, _) when br <= r -> ()
             | _ -> best := Some (r, edges_c));
             (* anchor the cycle: lam = r everywhere, distances unwind
                backwards from dist(head) = 0. The head is the cycle's
                minimum node id — a walk-order-dependent anchor makes the
                distance frame shift between evaluations of the same
                policy cycle, and the improvement step can then oscillate
                between equal-ratio cycles forever. *)
             let arr0 = Array.of_list nodes in
             let k = Array.length arr0 in
             let mi = ref 0 in
             Array.iteri (fun i u -> if u < arr0.(!mi) then mi := i) arr0;
             let arr = Array.init k (fun i -> arr0.((i + !mi) mod k)) in
             lam.(arr.(0)) <- r;
             dist.(arr.(0)) <- 0.;
             state.(arr.(0)) <- 2;
             for i = k - 1 downto 1 do
               let u = arr.(i) in
               let e = policy u in
               lam.(u) <- r;
               dist.(u) <-
                 (float_of_int e.e_cost -. (r *. float_of_int e.e_time)) +. dist.(e.e_dst);
               state.(u) <- 2
             done
           end);
          (* tree part of the walk: successors were evaluated above (or
             in an earlier walk), head of [path] first *)
          List.iter
            (fun u ->
              if state.(u) = 1 then begin
                let e = policy u in
                lam.(u) <- lam.(e.e_dst);
                dist.(u) <-
                  (float_of_int e.e_cost -. (lam.(e.e_dst) *. float_of_int e.e_time))
                  +. dist.(e.e_dst);
                state.(u) <- 2
              end)
            !path
        end
      done;
      !best
    in
    let improve () =
      let changed = ref false in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let min_lam =
            List.fold_left (fun a e -> Float.min a lam.(e.e_dst)) infinity out.(v)
          in
          let target_lam = if min_lam < lam.(v) -. eps then min_lam else lam.(v) in
          let best = ref None in
          List.iter
            (fun e ->
              if lam.(e.e_dst) <= target_lam +. eps then begin
                let d =
                  (float_of_int e.e_cost -. (target_lam *. float_of_int e.e_time))
                  +. dist.(e.e_dst)
                in
                match !best with Some (bd, _) when bd <= d -> () | _ -> best := Some (d, e)
              end)
            out.(v);
          match !best with
          | Some (bd, e) when e != policy v ->
            if min_lam < lam.(v) -. eps || bd < dist.(v) -. eps then begin
              pi.(v) <- Some e;
              changed := true
            end
          | _ -> ()
        end
      done;
      !changed
    in
    let iterations = ref 0 in
    (* global best over all evaluations: every policy cycle is a real
       cycle, so its ratio upper-bounds the optimum, and at a normal
       fixpoint the last evaluation attains the minimum *)
    let best = ref None in
    let continue_ = ref true in
    let max_iterations = 1_000 + (10 * n) in
    let stalled = ref false in
    while !continue_ && not !stalled do
      incr iterations;
      (match evaluate () with
      | Some (r, c) -> (
        match !best with Some (br, _) when br <= r -> () | _ -> best := Some (r, c))
      | None -> ());
      continue_ := improve ();
      if !continue_ && !iterations >= max_iterations then stalled := true
    done;
    (* Improvement that never settles means the policy is oscillating on
       an equal-ratio plateau (floating-point ties). The best cycle seen
       is then almost certainly optimal — but only return it if the
       independent Karp DP confirms the ratio; otherwise fail loudly. *)
    if !stalled then begin
      let confirmed =
        match (!best, try karp gr with Invalid_argument _ -> None) with
        | Some (r, _), Some kr -> Float.abs (r -. kr) <= 1e-9 *. Float.max 1. (Float.abs kr)
        | _ -> false
      in
      if not confirmed then
        invalid_arg "Cycle_ratio.howard: policy iteration failed to converge"
    end;
    match !best with
    | None -> assert false (* trimmed graph always has a policy cycle *)
    | Some (r, cycle) ->
      Some
        ( { ratio = r; cycle },
          { iterations = !iterations; cycles_evaluated = !cycles_evaluated } )
  end

let min_cycle_mean gr =
  howard { gr with edges = List.map (fun e -> { e with e_time = 1 }) gr.edges }
