(* Scalar reference evaluators: one input assignment at a time, written
   for obviousness rather than speed, and sharing nothing with the
   64-lane word evaluators of Tv.Equiv that they check. *)

module L = Techmap.Lutgraph
module Aig = Techmap.Aig
module Synth = Techmap.Synth

(* ---- netlist ---- *)

(* Settle [values] in place: sweep the gates in id order until nothing
   changes. An acyclic netlist settles within its depth + 1 sweeps from
   any start; one that never settles has a combinational cycle. *)
let settle net values stim =
  let n = Net.n_gates net in
  let changed = ref true and sweeps = ref 0 in
  while !changed do
    changed := false;
    incr sweeps;
    if !sweeps > n + 2 then failwith "Logic_reference.eval_net: combinational cycle";
    Net.iter net (fun g ->
        let f i = g.Net.fanins.(i) >= 0 && values.(g.Net.fanins.(i)) in
        let v =
          match g.Net.kind with
          | Net.Input _ | Net.Ff _ -> stim g.Net.id
          | Net.Const b -> b
          | Net.Buf | Net.Output _ -> f 0
          | Net.Not -> not (f 0)
          | Net.And2 -> f 0 && f 1
          | Net.Or2 -> f 0 || f 1
          | Net.Xor2 -> f 0 <> f 1
        in
        if v <> values.(g.Net.id) then begin
          values.(g.Net.id) <- v;
          changed := true
        end)
  done

let eval_net net stim =
  let values = Array.make (Net.n_gates net) false in
  settle net values stim;
  values

type sim = {
  net : Net.t;
  values : bool array;  (* settled combinational values, by gate id *)
  state : bool array;   (* flip-flop outputs, by gate id *)
  inputs : (string, bool) Hashtbl.t;
}

let sim_create net =
  let n = Net.n_gates net in
  let s =
    { net; values = Array.make n false; state = Array.make n false; inputs = Hashtbl.create 16 }
  in
  List.iter
    (fun id -> match (Net.gate net id).Net.kind with Net.Ff init -> s.state.(id) <- init | _ -> ())
    (Net.ffs net);
  s

let sim_set_input s nm v = Hashtbl.replace s.inputs nm v

let sim_eval s =
  settle s.net s.values (fun id ->
      match (Net.gate s.net id).Net.kind with
      | Net.Input nm -> Option.value (Hashtbl.find_opt s.inputs nm) ~default:false
      | _ -> s.state.(id))

let sim_get_output s nm =
  match
    List.find_opt
      (fun id -> match (Net.gate s.net id).Net.kind with Net.Output n -> n = nm | _ -> false)
      (Net.outputs s.net)
  with
  | Some id -> s.values.(id)
  | None -> invalid_arg ("Logic_reference.sim_get_output: no output " ^ nm)

let sim_step s =
  let latched =
    List.map (fun id -> (id, s.values.((Net.gate s.net id).Net.fanins.(0)))) (Net.ffs s.net)
  in
  List.iter (fun (id, v) -> s.state.(id) <- v) latched

(* ---- AIG and LUT cover ---- *)

let lit_value values lit = values.(Aig.node_of_lit lit) <> Aig.is_complement lit

let eval_aig aig ci_value =
  let values = Array.make (Aig.n_nodes aig) false in
  for v = 1 to Aig.n_nodes aig - 1 do
    values.(v) <-
      (if Aig.is_ci aig v then ci_value v
       else
         let f0, f1 = Aig.fanins aig v in
         lit_value values f0 && lit_value values f1)
  done;
  values

let cone_eval aig root leaves idx =
  let memo = Hashtbl.create 16 in
  let rec ev v =
    match Array.find_index (fun leaf -> leaf = v) leaves with
    | Some i -> (idx lsr i) land 1 = 1
    | None -> (
      match Hashtbl.find_opt memo v with
      | Some b -> b
      | None ->
        let b =
          if v = 0 then false
          else if Aig.is_ci aig v then invalid_arg "Logic_reference.cone_eval: CI not in leaves"
          else
            let f0, f1 = Aig.fanins aig v in
            let lv lit = ev (Aig.node_of_lit lit) <> Aig.is_complement lit in
            lv f0 && lv f1
        in
        Hashtbl.replace memo v b;
        b)
  in
  ev root

(* Every LUT's function as a table over its leaves, read off its cone;
   [None] for a LUT whose cone its leaves do not cut. *)
let cover_tables (lg : L.t) =
  let aig = lg.L.synth.Synth.aig in
  Array.map
    (fun (l : L.lut) ->
      match Array.init (1 lsl Array.length l.L.leaves) (cone_eval aig l.L.root l.L.leaves) with
      | table -> Some table
      | exception Invalid_argument _ -> None)
    lg.L.luts

(* LUTs in root order: a leaf's LUT precedes its users.  A LUT without a
   table, and a leaf that is neither a CI nor a mapped root, read false,
   as in the validator's word evaluation of a malformed cover. *)
let eval_with_tables (lg : L.t) tables ci_value =
  let aig = lg.L.synth.Synth.aig in
  let out = Array.make (L.n_luts lg) false in
  let order = Array.init (L.n_luts lg) Fun.id in
  Array.sort (fun a b -> compare lg.L.luts.(a).L.root lg.L.luts.(b).L.root) order;
  Array.iter
    (fun lid ->
      let idx = ref 0 in
      Array.iteri
        (fun i leaf ->
          let v =
            if Aig.is_ci aig leaf then ci_value leaf
            else match lg.L.lut_of_node.(leaf) with -1 -> false | l -> out.(l)
          in
          if v then idx := !idx lor (1 lsl i))
        lg.L.luts.(lid).L.leaves;
      out.(lid) <- (match tables.(lid) with Some t -> t.(!idx) | None -> false))
    order;
  out

(* Value of a combinational-output literal in the cover. *)
let cover_lit (lg : L.t) outs ci_value lit =
  let aig = lg.L.synth.Synth.aig in
  let v = Aig.node_of_lit lit in
  let b =
    if v = 0 then false
    else if Aig.is_ci aig v then ci_value v
    else match lg.L.lut_of_node.(v) with -1 -> false | lid -> outs.(lid)
  in
  b <> Aig.is_complement lit

let cover_equivalent ?(vectors = 256) ?(seed = 1) (lg : L.t) =
  let aig = lg.L.synth.Synth.aig in
  let tables = cover_tables lg in
  if Array.exists Option.is_none tables then
    invalid_arg "Logic_reference.cover_equivalent: a LUT's cone is not cut by its leaves";
  let rng = Support.Rng.create seed in
  let agrees () =
    let ci_vals = Array.init (Aig.n_nodes aig) (fun v -> Aig.is_ci aig v && Support.Rng.bool rng) in
    let ci_value v = ci_vals.(v) in
    let reference = eval_aig aig ci_value in
    let mapped = eval_with_tables lg tables ci_value in
    List.for_all
      (fun (_, _, lit) -> lit_value reference lit = cover_lit lg mapped ci_value lit)
      (Aig.cos aig)
  in
  let rec go i = i > vectors || (agrees () && go (i + 1)) in
  go 1

(* ---- witness replay ---- *)

let confirms net (lg : L.t) m =
  let aig = lg.L.synth.Synth.aig in
  let net_co values tag =
    let g = Net.gate net tag in
    g.Net.fanins.(0) >= 0 && values.(g.Net.fanins.(0))
  in
  let lit_of tag =
    let _, _, lit = List.find (fun (_, t, _) -> t = tag) (Aig.cos aig) in
    lit
  in
  let lookup pairs =
    let h = Hashtbl.create 64 in
    List.iter (fun (k, b) -> Hashtbl.replace h k b) pairs;
    fun k -> Option.value (Hashtbl.find_opt h k) ~default:false
  in
  (* the lane's netlist and AIG values, and its CI valuation *)
  let lane_values (lane : Tv.Equiv.lane) =
    let civ = lookup lane.Tv.Equiv.lane_cis in
    (eval_net net (lookup lane.Tv.Equiv.lane_gates), eval_aig aig civ, civ)
  in
  let cover_outs civ = eval_with_tables lg (cover_tables lg) civ in
  match m with
  | Tv.Equiv.Aig_mismatch { tag; lane; _ } ->
    let net_vals, aig_vals, _ = lane_values lane in
    net_co net_vals tag <> lit_value aig_vals (lit_of tag)
  | Tv.Equiv.Cover_co_mismatch { tag; lane; _ } ->
    let net_vals, _, civ = lane_values lane in
    net_co net_vals tag <> cover_lit lg (cover_outs civ) civ (lit_of tag)
  | Tv.Equiv.Cover_mismatch { lut; lane } ->
    let l = lg.L.luts.(lut) in
    (* the stored table against the cone, exhaustively: 2^|leaves| cases *)
    let table_differs =
      match Techmap.Truth.lut_table lg lut with
      | exception Invalid_argument _ -> true
      | table ->
        List.exists
          (fun idx ->
            Int64.logand (Int64.shift_right_logical table idx) 1L = 1L
            <> cone_eval aig l.L.root l.L.leaves idx)
          (List.init (1 lsl Array.length l.L.leaves) Fun.id)
    in
    let _, aig_vals, civ = lane_values lane in
    table_differs || (cover_outs civ).(lut) <> aig_vals.(l.L.root)
  | Tv.Equiv.Cover_structural _ -> false
