(* Whole-graph abstract interpretation.

   Each channel is mapped to a [Value.t] over-approximating the set of data
   values of every token the channel ever carries, for any memory contents
   (loads return top at the load's width).  The fixpoint is computed by a
   worklist over units: a unit's transfer function turns its in-channel
   values into out-channel values, results are joined into the channel map,
   and consumers of changed channels are re-queued.  Interval growth is
   accelerated by widening after a per-channel update budget; two bounded
   descending (narrowing) passes then claw back precision.  A global
   evaluation cap guards against non-termination from any transfer-function
   bug: on hitting it every channel falls back to top and [diverged] is set,
   which downstream consumers treat as "no information". *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops
module V = Value

type result = { values : V.t array; diverged : bool; evals : int }

let value res cid = res.values.(cid)

(* Possible outcomes of a Branch/Select condition test ([value land 1]):
   (can_be_true, can_be_false). *)
let cond_cases = function
  | V.Bot -> (false, false)
  | V.Any -> (true, true)
  | V.V { lo; hi; zeros; ones } ->
      if lo = hi then (lo land 1 = 1, lo land 1 = 0)
      else if ones land 1 <> 0 then (true, false)
      else if zeros land 1 <> 0 then (false, true)
      else (true, true)

(* Data arms a Mux with [arms] data inputs can select given the selector
   abstraction ([k = sel mod arms] in the simulator). *)
let mux_arms ~sel ~arms =
  if arms <= 0 then []
  else
    match sel with
    | V.Bot -> []
    | V.Any -> List.init arms Fun.id
    | V.V { lo; hi; _ } ->
        if hi < arms then List.init (hi - lo + 1) (fun i -> lo + i)
        else List.init arms Fun.id

type ctx = {
  g : G.t;
  values : V.t array;
  (* units (beyond the structural consumer) whose transfer read a channel,
     so they are re-queued when it changes; populated by branch-condition
     refinement reading comparison operands *)
  extra : int list array;
}

let in_val ctx (n : G.node) p =
  match n.G.ins.(p) with Some cid -> ctx.values.(cid) | None -> V.Bot

let read_remote ctx ~reader cid =
  if not (List.memq reader ctx.extra.(cid)) then ctx.extra.(cid) <- reader :: ctx.extra.(cid);
  ctx.values.(cid)

(* Trace a channel back through value-preserving units (Fork/Lazy_fork/
   Buffer/Join pass input 0's value through).  A hop preserves the value
   only when the outer channel's mask keeps every bit of the inner one;
   [rank] collapses the unmasked widths (>= 62) into one class. *)
let rank w = if w >= 62 then 62 else max w 0

let origin g cid0 =
  let rec go cid fuel =
    let c = G.channel g cid in
    let n = G.unit_node g c.G.src in
    let stop () = (c.G.src, c.G.src_port) in
    if fuel <= 0 then stop ()
    else
      match n.G.kind with
      | K.Fork _ | K.Lazy_fork _ | K.Buffer _ | K.Join _ -> (
          match n.G.ins.(0) with
          | Some cid' when rank c.G.width >= rank (G.channel g cid').G.width ->
              go cid' (fuel - 1)
          | _ -> stop ())
      | _ -> stop ()
  in
  go cid0 64

(* Refine the branch's data abstraction [va] under the assumption that the
   condition on [cond_cid] tested [polarity].  Handles conditions produced
   by an Icmp one of whose operands traces to the same origin as the
   branch's data input, and recurses through And (true side) / Or (false
   side), both of which distribute over bit 0 for the 0/1-valued
   comparison outputs and, more generally, for any values' low bit. *)
let rec refine_data ctx ~reader ~depth ~width ~data_cid va cond_cid ~polarity =
  if depth <= 0 then va
  else
    let cuid, _ = origin ctx.g cond_cid in
    let cn = G.unit_node ctx.g cuid in
    match cn.G.kind with
    | K.Operator { op = Ops.Icmp cmp; _ } -> (
        match (cn.G.ins.(0), cn.G.ins.(1)) with
        | Some x_cid, Some y_cid ->
            let dorig = origin ctx.g data_cid in
            if origin ctx.g x_cid = dorig then
              let vy = read_remote ctx ~reader y_cid in
              Transfer.refine_cmp ~width cmp ~polarity va vy
            else if origin ctx.g y_cid = dorig then
              let vx = read_remote ctx ~reader x_cid in
              Transfer.refine_cmp ~width (Transfer.swap_cmp cmp) ~polarity va vx
            else va
        | _ -> va)
    | K.Operator { op = Ops.And_; _ } when polarity -> (
        (* bit0(x land y) = 1 implies bit0(x) = 1 and bit0(y) = 1 *)
        match (cn.G.ins.(0), cn.G.ins.(1)) with
        | Some x_cid, Some y_cid ->
            let va = refine_data ctx ~reader ~depth:(depth - 1) ~width ~data_cid va x_cid ~polarity in
            refine_data ctx ~reader ~depth:(depth - 1) ~width ~data_cid va y_cid ~polarity
        | _ -> va)
    | K.Operator { op = Ops.Or_; _ } when not polarity -> (
        (* bit0(x lor y) = 0 implies bit0(x) = 0 and bit0(y) = 0 *)
        match (cn.G.ins.(0), cn.G.ins.(1)) with
        | Some x_cid, Some y_cid ->
            let va = refine_data ctx ~reader ~depth:(depth - 1) ~width ~data_cid va x_cid ~polarity in
            refine_data ctx ~reader ~depth:(depth - 1) ~width ~data_cid va y_cid ~polarity
        | _ -> va)
    | _ -> va

let unit_transfer ctx (n : G.node) =
  let w = n.G.width in
  let inv p = in_val ctx n p in
  let n_ins = Array.length n.G.ins in
  let all_ins () = List.init n_ins inv in
  let any_bot () = List.exists V.is_bot (all_ins ()) in
  match n.G.kind with
  | K.Entry | K.Source -> [| V.const w 0 |]
  | K.Exit | K.Sink -> [||]
  | K.Const k -> [| (if V.is_bot (inv 0) then V.Bot else V.const w k) |]
  | K.Fork _ | K.Lazy_fork _ -> Array.make (Array.length n.G.outs) (V.mask_to w (inv 0))
  | K.Buffer _ -> [| V.mask_to w (inv 0) |]
  | K.Join _ -> [| (if any_bot () then V.Bot else V.mask_to w (inv 0)) |]
  | K.Merge _ ->
      [| List.fold_left (fun acc v -> V.join w acc (V.mask_to w v)) V.Bot (all_ins ()) |]
  | K.Mux _ ->
      let sel = inv 0 in
      let arms = n_ins - 1 in
      let out =
        List.fold_left
          (fun acc k -> V.join w acc (V.mask_to w (inv (k + 1))))
          V.Bot
          (mux_arms ~sel ~arms)
      in
      [| out |]
  | K.Control_merge _ ->
      let idx =
        List.fold_left
          (fun (k, acc) v -> (k + 1, if V.is_bot v then acc else V.join w acc (V.const w k)))
          (0, V.Bot) (all_ins ())
        |> snd
      in
      let tok = if V.is_bot idx then V.Bot else V.const w 0 in
      [| tok; idx |]
  | K.Branch ->
      let va = inv 0 and vc = inv 1 in
      if V.is_bot va || V.is_bot vc then [| V.Bot; V.Bot |]
      else begin
        let can_t, can_f = cond_cases vc in
        let data_cid = n.G.ins.(0) and cond_cid = n.G.ins.(1) in
        let refined pol =
          match (data_cid, cond_cid) with
          | Some d, Some c ->
              let dw = (G.channel ctx.g d).G.width in
              refine_data ctx ~reader:n.G.uid ~depth:4 ~width:dw ~data_cid:d va c ~polarity:pol
          | _ -> va
        in
        let t = if can_t then V.mask_to w (refined true) else V.Bot in
        let f = if can_f then V.mask_to w (refined false) else V.Bot in
        [| t; f |]
      end
  | K.Operator { op; _ } -> [| Transfer.operator ~width:w op (all_ins ()) |]
  | K.Load _ -> [| (if V.is_bot (inv 0) then V.Bot else V.top w) |]
  | K.Store _ -> [| (if any_bot () then V.Bot else V.const w 0) |]

(* per-channel update budget before widening *)
let widen_after = 16

let run g =
  let nu = G.n_units g and nc = G.n_channels g in
  let max_evals = 512 * (nu + 1) in
  let ctx = { g; values = Array.make nc V.Bot; extra = Array.make nc [] } in
  let counts = Array.make nc 0 in
  let queue = Queue.create () in
  let in_queue = Array.make nu false in
  let push u =
    if not in_queue.(u) then begin
      in_queue.(u) <- true;
      Queue.add u queue
    end
  in
  for u = 0 to nu - 1 do
    push u
  done;
  let evals = ref 0 in
  let diverged = ref false in
  while (not (Queue.is_empty queue)) && not !diverged do
    let u = Queue.pop queue in
    in_queue.(u) <- false;
    incr evals;
    if !evals > max_evals then diverged := true
    else begin
      let n = G.unit_node g u in
      let outs = unit_transfer ctx n in
      Array.iteri
        (fun p v ->
          match n.G.outs.(p) with
          | None -> ()
          | Some cid ->
              let c = G.channel g cid in
              let old = ctx.values.(cid) in
              let next = V.join c.G.width old v in
              if not (V.equal next old) then begin
                counts.(cid) <- counts.(cid) + 1;
                let next =
                  if counts.(cid) > widen_after then V.widen c.G.width ~old ~next
                  else next
                in
                ctx.values.(cid) <- next;
                push c.G.dst;
                List.iter push ctx.extra.(cid)
              end)
        outs
    end
  done;
  if !diverged then
    (* nothing computed so far is a stable over-approximation: fall back *)
    G.iter_channels g (fun c -> ctx.values.(c.G.cid) <- V.top c.G.width)
  else
    (* bounded descending passes: F(x) and x both over-approximate the
       concrete token sets, so their meet does too *)
    for _pass = 1 to 2 do
      for u = 0 to nu - 1 do
        let n = G.unit_node g u in
        let outs = unit_transfer ctx n in
        Array.iteri
          (fun p v ->
            match n.G.outs.(p) with
            | None -> ()
            | Some cid ->
                let c = G.channel g cid in
                ctx.values.(cid) <- V.meet c.G.width ctx.values.(cid) v)
          outs
      done
    done;
  { values = ctx.values; diverged = !diverged; evals = !evals }
