(* Seeded miscompile injection: the proof that the validator catches
   bugs. Each mutator plants one fault of a known class — gate flip in
   the netlist, leaf swap in the LUT cover, owner/domain swap on a LUT,
   rogue or tampered buffer on the DFG — and test_tv asserts the
   matching equiv-* rule fires with the right witness.

   Mutation testing has an equivalent-mutant problem: a random gate flip
   can be semantically neutral (e.g. [a AND a] vs. [a OR a]) or
   unobservable at any output. Mutators therefore select candidates in
   seeded-random order and keep the first whose fault is observable
   according to the scalar reference evaluators of [Logic_reference] —
   the validator under test plays no part in the selection, so
   asserting it flags the mutant is a real check. *)

module L = Techmap.Lutgraph
module Aig = Techmap.Aig
module Synth = Techmap.Synth
module G = Dataflow.Graph
module Rng = Support.Rng
module Labels = Tv.Labels

let shuffled_of_list rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  a

let array_find_map f a =
  let n = Array.length a in
  let rec go i = if i >= n then None else match f a.(i) with Some _ as r -> r | None -> go (i + 1) in
  go 0

(* ---- gate flip ---- *)

let flip_kind = function
  | Net.And2 -> Net.Or2
  | Net.Or2 -> Net.And2
  | Net.Xor2 -> Net.And2
  | k -> k

(* A copy of [net] with gate [gid]'s kind flipped, rebuilt gate by gate
   through the public constructors. Each adds exactly one gate, so ids,
   fanins, owners, domains and the IO lists come out as in [net]; wires
   and flip-flops are connected once every gate exists. *)
let with_flipped_gate net gid =
  let t = Net.create (Net.name net) in
  Net.iter net (fun g ->
      let owner = g.Net.owner and dom = g.Net.dom and fi = g.Net.fanins in
      let id =
        match if g.Net.id = gid then flip_kind g.Net.kind else g.Net.kind with
        | Net.Input nm -> Net.input t ~owner ~dom nm
        | Net.Output nm -> Net.output t ~owner nm fi.(0)
        | Net.Const b -> Net.const t ~owner ~dom b
        | Net.Buf -> Net.wire t ~owner ~dom
        | Net.Ff _ -> Net.ff t ~owner ~dom
        | Net.Not -> Net.not_ t ~owner fi.(0)
        | Net.And2 -> Net.and2 t ~owner fi.(0) fi.(1)
        | Net.Or2 -> Net.or2 t ~owner fi.(0) fi.(1)
        | Net.Xor2 -> Net.xor2 t ~owner fi.(0) fi.(1)
      in
      assert (id = g.Net.id));
  Net.iter net (fun g ->
      match g.Net.kind with
      | (Net.Buf | Net.Ff _) when g.Net.fanins.(0) >= 0 -> Net.connect t g.Net.id g.Net.fanins.(0)
      | _ -> ());
  t

(* Every combinational output (outputs, then flip-flop D inputs) of
   [net] on 64 fixed random frames, by the scalar reference. *)
let co_values net =
  let rng = Rng.create 0x5eed in
  let cos = Net.outputs net @ Net.ffs net in
  List.init 64 (fun _ ->
      let stim = Array.init (Net.n_gates net) (fun _ -> Rng.bool rng) in
      let values = Logic_reference.eval_net net (Array.get stim) in
      List.map
        (fun tag ->
          let g = Net.gate net tag in
          g.Net.fanins.(0) >= 0 && values.(g.Net.fanins.(0)))
        cos)

let flip_gate ~seed net =
  let rng = Rng.create seed in
  let cands = ref [] in
  Net.iter net (fun g ->
      match g.Net.kind with
      | Net.And2 | Net.Or2 | Net.Xor2 -> cands := g.Net.id :: !cands
      | _ -> ());
  let cands = shuffled_of_list rng !cands in
  let reference = co_values net in
  array_find_map
    (fun gid ->
      let mutated = with_flipped_gate net gid in
      if co_values mutated <> reference then Some (mutated, gid) else None)
    cands

(* ---- cover leaf swap ---- *)

let swap_cover_leaf ~seed (lg : L.t) =
  let rng = Rng.create seed in
  let aig = lg.L.synth.Synth.aig in
  (* replacement pool: every legal leaf value (CI or mapped LUT root) *)
  let pool = ref [] in
  for v = 1 to Aig.n_nodes aig - 1 do
    if Aig.is_ci aig v || lg.L.lut_of_node.(v) >= 0 then pool := v :: !pool
  done;
  let pool = shuffled_of_list rng !pool in
  let luts = shuffled_of_list rng (Array.to_list (Array.map (fun l -> l.L.lid) lg.L.luts)) in
  let observable mutated =
    match Logic_reference.cover_equivalent ~vectors:64 mutated with
    | eq -> not eq
    | exception _ -> true
  in
  array_find_map
    (fun lid ->
      let l = lg.L.luts.(lid) in
      let nl = Array.length l.L.leaves in
      if nl = 0 then None
      else begin
        let i = Rng.int rng nl in
        array_find_map
          (fun repl ->
            if repl = l.L.root || Array.exists (fun x -> x = repl) l.L.leaves then None
            else begin
              let leaves = Array.copy l.L.leaves in
              leaves.(i) <- repl;
              let mutated =
                { lg with L.luts = Array.map (fun x -> if x.L.lid = lid then { x with L.leaves = leaves } else x) lg.L.luts }
              in
              if observable mutated then Some (mutated, lid) else None
            end)
          pool
      end)
    luts

(* ---- label swap ---- *)

let swap_label ~seed ~n_units (lg : L.t) =
  let rng = Rng.create seed in
  let aig = lg.L.synth.Synth.aig in
  let luts = shuffled_of_list rng (Array.to_list (Array.map (fun l -> l.L.lid) lg.L.luts)) in
  let units = shuffled_of_list rng (List.init n_units (fun u -> u)) in
  array_find_map
    (fun lid ->
      let l = lg.L.luts.(lid) in
      let cone_units = Labels.cone_units aig (Labels.cone aig l) in
      array_find_map
        (fun bogus ->
          if List.mem bogus cone_units || bogus = l.L.owner then None
          else
            Some
              ( { lg with L.luts = Array.map (fun x -> if x.L.lid = lid then { x with L.owner = bogus } else x) lg.L.luts },
                lid ))
        units)
    luts

(* ---- domain swap ---- *)

let swap_domain ~seed (lg : L.t) =
  let rng = Rng.create seed in
  let aig = lg.L.synth.Synth.aig in
  let luts = shuffled_of_list rng (Array.to_list (Array.map (fun l -> l.L.lid) lg.L.luts)) in
  array_find_map
    (fun lid ->
      let l = lg.L.luts.(lid) in
      let expect = Labels.cone_dom aig (Labels.cone aig l) in
      let cands =
        List.filter (fun d -> d <> expect) [ Net.Data; Net.Valid; Net.Ready; Net.Mixed ]
      in
      match cands with
      | [] -> None
      | _ ->
        let d = List.nth cands (Rng.int rng (List.length cands)) in
        Some
          ( { lg with L.luts = Array.map (fun x -> if x.L.lid = lid then { x with L.dom = d } else x) lg.L.luts },
            lid ))
    luts

(* ---- rogue / tampered buffers ---- *)

let rogue_buffer ~seed g =
  let rng = Rng.create seed in
  let unbuffered = ref [] in
  G.iter_channels g (fun c -> if c.G.buffer = None then unbuffered := c.G.cid :: !unbuffered);
  match !unbuffered with
  | [] -> None
  | cs ->
    let cands = shuffled_of_list rng cs in
    let cid = cands.(0) in
    let g' = G.copy g in
    G.set_buffer g' cid (Some { G.transparent = false; slots = 2 });
    Some (g', cid)

let tamper_slots ~seed g =
  let rng = Rng.create seed in
  match G.buffered_channels g with
  | [] -> None
  | bs ->
    let cands = shuffled_of_list rng bs in
    let cid, spec = cands.(0) in
    let g' = G.copy g in
    G.set_buffer g' cid (Some { spec with G.slots = spec.G.slots + 1 + Rng.int rng 3 });
    Some (g', cid)
