module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module A = Dataflow.Analysis
module CR = Cycle_ratio
module Trace = Support.Trace

type cycle = {
  cy_channels : G.channel_id list;
  cy_tokens : int;
  cy_latency : int;
  cy_capacity : int;
}

type violation = Comb_loop of cycle | Deadlock of cycle

type scc_cert = {
  sc_units : G.unit_id list;
  sc_ratio : float;
  sc_bound : float;
  sc_critical : cycle option;
  sc_karp : float option;
  sc_violations : violation list;
}

type t = {
  sccs : scc_cert list;
  throughput : float;
  violations : violation list;
  live : bool;
  howard_iterations : int;
  cycles_evaluated : int;
  karp_checks : int;
}

(* tokens, sequential latency, token capacity of one channel *)
let channel_weights g is_back cid =
  let c = G.channel g cid in
  let kind = (G.unit_node g c.G.src).G.kind in
  let tokens = if is_back cid then 1 else 0 in
  let reg, slots =
    match G.buffer g cid with
    | Some { G.transparent = false; slots } -> (1, slots)
    | Some { G.transparent = true; slots } -> (0, slots)
    | None -> (0, 0)
  in
  (* a pipelined unit's stages hold tokens too; a Buffer unit's own
     capacity is its queue, not its latency *)
  let unit_cap = match kind with K.Buffer { slots; _ } -> slots | k -> K.latency k in
  (tokens, K.latency kind + reg, unit_cap + slots)

let certify ?(karp = true) g =
  let back = A.loop_back_edges g in
  let back_set = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace back_set c ()) back;
  let weights = channel_weights g (Hashtbl.mem back_set) in
  let howard_iters = ref 0 in
  let cycles_eval = ref 0 in
  let karp_checks = ref 0 in
  let track (st : CR.stats) =
    howard_iters := !howard_iters + st.CR.iterations;
    cycles_eval := !cycles_eval + st.CR.cycles_evaluated
  in
  let sccs =
    List.map
      (fun units ->
        let idx = Hashtbl.create 16 in
        List.iteri (fun i u -> Hashtbl.replace idx u i) units;
        let n = List.length units in
        let channels =
          G.fold_channels g
            (fun acc c ->
              if Hashtbl.mem idx c.G.src && Hashtbl.mem idx c.G.dst then c.G.cid :: acc
              else acc)
            []
          |> List.rev
        in
        let instance sel =
          {
            CR.n_nodes = n;
            edges =
              List.map
                (fun cid ->
                  let c = G.channel g cid in
                  let cost, time = sel (weights cid) in
                  {
                    CR.e_src = Hashtbl.find idx c.G.src;
                    e_dst = Hashtbl.find idx c.G.dst;
                    e_cost = cost;
                    e_time = time;
                    e_id = cid;
                  })
                channels;
          }
        in
        let cycle_of edges =
          let chans = List.map (fun e -> e.CR.e_id) edges in
          let sum f = List.fold_left (fun a cid -> a + f (weights cid)) 0 chans in
          {
            cy_channels = chans;
            cy_tokens = sum (fun (m, _, _) -> m);
            cy_latency = sum (fun (_, t, _) -> t);
            cy_capacity = sum (fun (_, _, cap) -> cap);
          }
        in
        (* liveness: a zero-total-latency cycle is a combinational loop *)
        let comb =
          match CR.min_cycle_mean (instance (fun (_, t, _) -> (t, 1))) with
          | Some ({ CR.ratio; cycle }, st) ->
            track st;
            if ratio <= 1e-12 then [ Comb_loop (cycle_of cycle) ] else []
          | None -> []
        in
        (* liveness: a cycle whose tokens fill its whole capacity can
           never move a token (zero slack) *)
        let dead =
          match CR.min_cycle_mean (instance (fun (m, _, cap) -> (cap - m, 1))) with
          | Some ({ CR.ratio; cycle }, st) ->
            track st;
            if ratio <= 1e-12 then [ Deadlock (cycle_of cycle) ] else []
          | None -> []
        in
        let ratio, bound, critical, karp_v =
          if comb <> [] then (0., 0., None, None)
          else begin
            let inst = instance (fun (m, t, _) -> (m, t)) in
            match CR.howard inst with
            | None -> (infinity, 1., None, None)
            | Some ({ CR.ratio; cycle }, st) ->
              track st;
              let kv =
                if karp then begin
                  incr karp_checks;
                  CR.karp inst
                end
                else None
              in
              (ratio, Float.min 1. ratio, Some (cycle_of cycle), kv)
          end
        in
        {
          sc_units = units;
          sc_ratio = ratio;
          sc_bound = bound;
          sc_critical = critical;
          sc_karp = karp_v;
          sc_violations = comb @ dead;
        })
      (A.cyclic_sccs g)
  in
  let violations = List.concat_map (fun s -> s.sc_violations) sccs in
  Trace.add "perf.sccs" (List.length sccs);
  Trace.add "perf.cycles" !cycles_eval;
  Trace.add "perf.howard.iters" !howard_iters;
  Trace.add "perf.karp.checks" !karp_checks;
  {
    sccs;
    throughput = List.fold_left (fun a s -> Float.min a s.sc_bound) 1. sccs;
    violations;
    live = violations = [];
    howard_iterations = !howard_iters;
    cycles_evaluated = !cycles_eval;
    karp_checks = !karp_checks;
  }

let karp_agrees t =
  List.for_all
    (fun s ->
      match s.sc_karp with None -> true | Some k -> Float.abs (k -. s.sc_ratio) <= 1e-9)
    t.sccs

let pp_cycle g fmt cy =
  let unit_desc u =
    let nd = G.unit_node g u in
    Format.asprintf "u%d(%a)" u K.pp nd.G.kind
  in
  (match cy.cy_channels with
  | [] -> ()
  | first :: _ ->
    let c0 = G.channel g first in
    Fmt.pf fmt "%s" (unit_desc c0.G.src);
    List.iter
      (fun cid ->
        let c = G.channel g cid in
        Fmt.pf fmt " -c%d-> %s" cid (unit_desc c.G.dst))
      cy.cy_channels);
  Fmt.pf fmt " [tokens %d, latency %d, capacity %d]" cy.cy_tokens cy.cy_latency
    cy.cy_capacity

let pp fmt t =
  Fmt.pf fmt "certified bound %.4f over %d cyclic SCC(s), %s (%d Howard iteration(s), %d Karp check(s))"
    t.throughput (List.length t.sccs)
    (if t.live then "live"
     else Printf.sprintf "%d liveness violation(s)" (List.length t.violations))
    t.howard_iterations t.karp_checks

let to_json t =
  let module J = Support.Json in
  let int i = J.Num (float_of_int i) in
  let scc s =
    J.Obj
      [
        ("units", int (List.length s.sc_units));
        ("ratio", J.Num s.sc_ratio);
        ("bound", J.Num s.sc_bound);
        ("karp", match s.sc_karp with None -> J.Null | Some k -> J.Num k);
        ("violations", int (List.length s.sc_violations));
      ]
  in
  J.Obj
    [
      ("throughput_bound", J.Num t.throughput);
      ("live", J.Bool t.live);
      ("violations", int (List.length t.violations));
      ("howard_iterations", int t.howard_iterations);
      ("cycles_evaluated", int t.cycles_evaluated);
      ("karp_checks", int t.karp_checks);
      ("sccs", J.Arr (List.map scc t.sccs));
    ]
