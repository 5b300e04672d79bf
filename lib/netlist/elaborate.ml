module G = Dataflow.Graph
module K = Dataflow.Unit_kind

type chan_wires = {
  s_data : int array;  (* driven by the channel's source unit *)
  s_valid : int;
  s_ready : int;       (* read by the source unit *)
  d_data : int array;  (* read by the destination unit *)
  d_valid : int;
  d_ready : int;       (* driven by the destination unit *)
}

let interaction_units g =
  G.find_units g (fun n ->
      match n.G.kind with
      | K.Branch | K.Mux _ | K.Merge _ | K.Control_merge _ -> true
      | K.Operator { latency; _ } -> latency > 0
      | K.Load _ | K.Store _ -> true
      | _ -> false)

(* Zero-extend a bit-vector to [width] (operand widths can differ when
   e.g. a 1-bit comparison result meets an 8-bit counter). *)
let pad_bv net ~owner bv width =
  if Array.length bv >= width then Array.sub bv 0 width
  else
    Array.init width (fun i ->
        if i < Array.length bv then bv.(i) else Net.const net ~owner ~dom:Net.Data false)

(* Align a list of operand vectors on their maximum width — at least
   [min_width], the result width for arithmetic: a subtraction of two
   1-bit comparison outputs must borrow through the full result width
   (0 - 1 = -1, not 1 mod 2), and the multiplier's row walk indexes the
   operand vectors by result bit position. *)
let align_operands ?(min_width = 0) net ~owner args =
  let w = List.fold_left (fun acc a -> max acc (Array.length a)) min_width args in
  List.map (fun a -> pad_bv net ~owner a w) args

(* Zero-extend or truncate a computed bit-vector onto channel wires. *)
let drive_bv net ~owner wires bv =
  Array.iteri
    (fun i w ->
      let src =
        if i < Array.length bv then bv.(i) else Net.const net ~owner ~dom:Net.Data false
      in
      Net.connect net w src)
    wires

let one_hot_grants net ~owner valids =
  (* grant_i = valid_i and no lower-indexed input is valid *)
  let n = Array.length valids in
  let grants = Array.make n 0 in
  let blocked = ref None in
  for i = 0 to n - 1 do
    (match !blocked with
    | None -> grants.(i) <- valids.(i)
    | Some b ->
      let nb = Net.not_ net ~owner b in
      grants.(i) <- Net.and2 net ~owner valids.(i) nb);
    blocked :=
      Some (match !blocked with None -> valids.(i) | Some b -> Net.or2 net ~owner b valids.(i))
  done;
  grants

(* AND-OR mux over one-hot grants. *)
let grant_mux net ~owner ~width grants datas =
  Array.init width (fun bit ->
      let terms =
        Array.to_list
          (Array.mapi
             (fun i g ->
               let d = datas.(i) in
               let b =
                 if bit < Array.length d then d.(bit)
                 else Net.const net ~owner ~dom:Net.Data false
               in
               Net.and2 net ~owner g b)
             grants)
      in
      Net.or_list net ~owner ~dom:Net.Data terms)

(* 2-slot skid buffer: registers d0 (output stage) and d1 (skid slot).
   All three domains are cut by registers; the only combinational gate
   visible outside is the NOT computing s_ready from the skid flag. *)
let elaborate_opaque_buffer net ~fwd_owner ~bwd_owner cw =
  let width = Array.length cw.s_data in
  let v0 = Net.ff net ~owner:fwd_owner ~dom:Net.Valid in
  let v1 = Net.ff net ~owner:fwd_owner ~dom:Net.Valid in
  let d0 = Array.init width (fun _ -> Net.ff net ~owner:fwd_owner ~dom:Net.Data) in
  let d1 = Array.init width (fun _ -> Net.ff net ~owner:fwd_owner ~dom:Net.Data) in
  let owner = fwd_owner in
  let deq = Net.and2 net ~owner v0 cw.d_ready in
  let nv1 = Net.not_ net ~owner:bwd_owner v1 in
  let enq = Net.and2 net ~owner cw.s_valid nv1 in
  (* v0' = (v0 & ~deq) | v1 | enq *)
  let ndeq = Net.not_ net ~owner deq in
  let hold = Net.and2 net ~owner v0 ndeq in
  let v0n = Net.or2 net ~owner (Net.or2 net ~owner hold v1) enq in
  Net.connect net v0 v0n;
  (* v1' = (v1 & ~deq) | (v0 & ~deq & enq) *)
  let keep1 = Net.and2 net ~owner v1 ndeq in
  let spill = Net.and2 net ~owner hold enq in
  let v1n = Net.or2 net ~owner keep1 spill in
  Net.connect net v1 v1n;
  for i = 0 to width - 1 do
    (* d0' = deq ? (v1 ? d1 : s_data) : (v0 ? d0 : s_data) *)
    let from_skid = Net.mux2 net ~owner ~sel:v1 d1.(i) cw.s_data.(i) in
    let idle = Net.mux2 net ~owner ~sel:v0 d0.(i) cw.s_data.(i) in
    let d0n = Net.mux2 net ~owner ~sel:deq from_skid idle in
    Net.connect net d0.(i) d0n;
    (* d1' = spill ? s_data : d1 *)
    let d1n = Net.mux2 net ~owner ~sel:spill cw.s_data.(i) d1.(i) in
    Net.connect net d1.(i) d1n;
    Net.connect net cw.d_data.(i) d0.(i)
  done;
  Net.connect net cw.d_valid v0;
  Net.connect net cw.s_ready nv1

let link_channel net g (c : G.chan) cw =
  match c.G.buffer with
  | Some { G.transparent = false; _ } ->
    elaborate_opaque_buffer net ~fwd_owner:c.G.dst ~bwd_owner:c.G.src cw
  | Some { G.transparent = true; _ } | None ->
    (* Transparent buffers only add queue capacity (modelled by the
       simulator and the throughput MILP); combinationally they pass
       through. *)
    ignore g;
    Array.iteri (fun i w -> Net.connect net w cw.s_data.(i)) cw.d_data;
    Net.connect net cw.d_valid cw.s_valid;
    Net.connect net cw.s_ready cw.d_ready

(* Build a pipelined valid chain with a common [enable]; returns
   (stage valids, enable wire to be connected by the caller). *)
let valid_chain net ~owner depth =
  Array.init depth (fun _ -> Net.ff net ~owner ~dom:Net.Valid)

let enabled_ff net ~owner ~dom ~enable next =
  let r = Net.ff net ~owner ~dom in
  let d = Net.mux2 net ~owner ~sel:enable next r in
  Net.connect net r d;
  r

let enabled_ff_bv net ~owner ~enable next =
  Array.map (fun b -> enabled_ff net ~owner ~dom:Net.Data ~enable b) next

(* Implicit join at a unit's inputs: consume all inputs simultaneously.
   [go] is the unit-side condition for firing (e.g. output ready). *)
let join_inputs net ~owner ~go ins =
  let valids = Array.map (fun cw -> cw.d_valid) ins in
  Array.iteri
    (fun i cw ->
      let others =
        Array.to_list valids |> List.filteri (fun j _ -> j <> i)
      in
      let others_valid = Net.and_list net ~owner ~dom:Net.Valid others in
      Net.connect net cw.d_ready (Net.and2 net ~owner go others_valid))
    ins;
  Net.and_list net ~owner ~dom:Net.Valid (Array.to_list valids)

let elaborate_unit net g (n : G.node) wires =
  let owner = n.G.uid in
  let inw p =
    match G.in_channel g n.G.uid p with
    | Some cid -> wires.(cid)
    | None -> invalid_arg (Printf.sprintf "elaborate: %s input %d unconnected" n.G.label p)
  in
  let outw p =
    match G.out_channel g n.G.uid p with
    | Some cid -> wires.(cid)
    | None -> invalid_arg (Printf.sprintf "elaborate: %s output %d unconnected" n.G.label p)
  in
  let n_ins = K.in_arity n.G.kind and n_outs = K.out_arity n.G.kind in
  let ins = Array.init n_ins inw and outs = Array.init n_outs outw in
  match n.G.kind with
  | K.Entry ->
    let o = outs.(0) in
    let v = Net.input net ~owner ~dom:Net.Valid (Printf.sprintf "entry_valid_u%d" owner) in
    Net.connect net o.s_valid v;
    drive_bv net ~owner o.s_data [||];
    ignore (Net.output net ~owner (Printf.sprintf "entry_ready_u%d" owner) o.s_ready)
  | K.Exit ->
    let i = ins.(0) in
    ignore (Net.output net ~owner (Printf.sprintf "exit_valid_u%d" owner) i.d_valid);
    Array.iteri
      (fun b d -> ignore (Net.output net ~owner (Printf.sprintf "exit_data_u%d_%d" owner b) d))
      i.d_data;
    let r = Net.input net ~owner ~dom:Net.Ready (Printf.sprintf "exit_ready_u%d" owner) in
    Net.connect net i.d_ready r
  | K.Source ->
    let o = outs.(0) in
    Net.connect net o.s_valid (Net.const net ~owner ~dom:Net.Valid true);
    drive_bv net ~owner o.s_data [||]
  | K.Sink ->
    let i = ins.(0) in
    Net.connect net i.d_ready (Net.const net ~owner ~dom:Net.Ready true)
  | K.Const k ->
    let i = ins.(0) and o = outs.(0) in
    Net.connect net o.s_valid i.d_valid;
    Net.connect net i.d_ready o.s_ready;
    drive_bv net ~owner o.s_data (Datapath.const_bv net ~owner ~width:(Array.length o.s_data) k)
  | K.Fork nf | K.Lazy_fork nf -> (
    let i = ins.(0) in
    (* data fans out unchanged *)
    Array.iter (fun o -> Array.iteri (fun b w -> Net.connect net w i.d_data.(b)) o.s_data) outs;
    match n.G.kind with
    | K.Lazy_fork _ ->
      let all_ready =
        Net.and_list net ~owner ~dom:Net.Ready
          (Array.to_list (Array.map (fun o -> o.s_ready) outs))
      in
      Array.iter
        (fun o -> Net.connect net o.s_valid (Net.and2 net ~owner i.d_valid all_ready))
        outs;
      Net.connect net i.d_ready all_ready
    | _ ->
      (* eager fork with per-output "sent" flags *)
      let sent = Array.init nf (fun _ -> Net.ff net ~owner ~dom:Net.Valid) in
      let dones =
        Array.init nf (fun k ->
            let nsent = Net.not_ net ~owner sent.(k) in
            let vo = Net.and2 net ~owner i.d_valid nsent in
            Net.connect net outs.(k).s_valid vo;
            let delivered = Net.and2 net ~owner vo outs.(k).s_ready in
            Net.or2 net ~owner sent.(k) delivered)
      in
      let all_done = Net.and_list net ~owner ~dom:Net.Valid (Array.to_list dones) in
      Net.connect net i.d_ready all_done;
      let nall = Net.not_ net ~owner all_done in
      Array.iteri (fun k s -> Net.connect net s (Net.and2 net ~owner dones.(k) nall)) sent)
  | K.Join _ ->
    let o = outs.(0) in
    let valid_out = join_inputs net ~owner ~go:o.s_ready ins in
    Net.connect net o.s_valid valid_out;
    drive_bv net ~owner o.s_data (if Array.length ins.(0).d_data > 0 then ins.(0).d_data else [||])
  | K.Merge _ ->
    let o = outs.(0) in
    let valids = Array.map (fun i -> i.d_valid) ins in
    let grants = one_hot_grants net ~owner valids in
    Net.connect net o.s_valid
      (Net.or_list net ~owner ~dom:Net.Valid (Array.to_list valids));
    let datas = Array.map (fun i -> i.d_data) ins in
    drive_bv net ~owner o.s_data
      (grant_mux net ~owner ~width:(Array.length o.s_data) grants datas);
    Array.iteri
      (fun k i -> Net.connect net i.d_ready (Net.and2 net ~owner grants.(k) o.s_ready))
      ins
  | K.Control_merge _ ->
    (* Two independently consumed outputs: per-output "sent" flags plus a
       winner latch, exactly like an eager fork, so that a consumer that
       accepts early never sees the same token twice. *)
    let tok = outs.(0) and idx = outs.(1) in
    let valids = Array.map (fun i -> i.d_valid) ins in
    let free_grants = one_hot_grants net ~owner valids in
    let lock = Net.ff net ~owner ~dom:Net.Valid in
    let winner_reg = Array.map (fun _ -> Net.ff net ~owner ~dom:Net.Valid) valids in
    let grants =
      Array.mapi (fun k fg -> Net.mux2 net ~owner ~sel:lock winner_reg.(k) fg) free_grants
    in
    let any =
      Net.or_list net ~owner ~dom:Net.Valid
        (Array.to_list (Array.mapi (fun k g -> Net.and2 net ~owner g valids.(k)) grants))
    in
    let sent_tok = Net.ff net ~owner ~dom:Net.Valid in
    let sent_idx = Net.ff net ~owner ~dom:Net.Valid in
    let vo_tok = Net.and2 net ~owner any (Net.not_ net ~owner sent_tok) in
    let vo_idx = Net.and2 net ~owner any (Net.not_ net ~owner sent_idx) in
    Net.connect net tok.s_valid vo_tok;
    Net.connect net idx.s_valid vo_idx;
    drive_bv net ~owner tok.s_data [||];
    (* index output encodes the winning input in binary; the grant
       signals live in the valid domain, so these gates are Mixed: a
       domain-interaction point. *)
    let width = Array.length idx.s_data in
    let idx_bits =
      Array.init width (fun bit ->
          let terms =
            Array.to_list grants
            |> List.filteri (fun i _ -> (i lsr bit) land 1 = 1)
          in
          Net.or_list net ~owner ~dom:Net.Valid terms)
    in
    drive_bv net ~owner idx.s_data idx_bits;
    let done_tok = Net.or2 net ~owner sent_tok (Net.and2 net ~owner vo_tok tok.s_ready) in
    let done_idx = Net.or2 net ~owner sent_idx (Net.and2 net ~owner vo_idx idx.s_ready) in
    let all = Net.and2 net ~owner done_tok done_idx in
    let nall = Net.not_ net ~owner all in
    Net.connect net sent_tok (Net.and2 net ~owner done_tok nall);
    Net.connect net sent_idx (Net.and2 net ~owner done_idx nall);
    Net.connect net lock (Net.and2 net ~owner any nall);
    Array.iteri
      (fun k g -> Net.connect net winner_reg.(k) (Net.and2 net ~owner g nall))
      grants;
    Array.iteri
      (fun k i -> Net.connect net i.d_ready (Net.and2 net ~owner grants.(k) all))
      ins
  | K.Mux nm ->
    let sel = ins.(0) and o = outs.(0) in
    let sel_onehot =
      Array.init nm (fun i ->
          if Array.length sel.d_data = 0 then Net.const net ~owner ~dom:Net.Data (i = 0)
          else
            Datapath.eq net ~owner sel.d_data
              (Datapath.const_bv net ~owner ~width:(Array.length sel.d_data) i))
    in
    let chosen_valid =
      Net.or_list net ~owner ~dom:Net.Valid
        (List.init nm (fun i -> Net.and2 net ~owner sel_onehot.(i) ins.(i + 1).d_valid))
    in
    let valid_out = Net.and2 net ~owner sel.d_valid chosen_valid in
    Net.connect net o.s_valid valid_out;
    let datas = Array.init nm (fun i -> ins.(i + 1).d_data) in
    drive_bv net ~owner o.s_data
      (grant_mux net ~owner ~width:(Array.length o.s_data) sel_onehot datas);
    let fire = Net.and2 net ~owner valid_out o.s_ready in
    for i = 0 to nm - 1 do
      Net.connect net ins.(i + 1).d_ready (Net.and2 net ~owner sel_onehot.(i) fire)
    done;
    Net.connect net sel.d_ready fire
  | K.Branch ->
    let data = ins.(0) and cond = ins.(1) in
    let out_t = outs.(0) and out_f = outs.(1) in
    let c = cond.d_data.(0) in
    let both = Net.and2 net ~owner data.d_valid cond.d_valid in
    let vt = Net.and2 net ~owner both c in
    let nc = Net.not_ net ~owner c in
    let vf = Net.and2 net ~owner both nc in
    Net.connect net out_t.s_valid vt;
    Net.connect net out_f.s_valid vf;
    Array.iteri (fun b w -> Net.connect net w data.d_data.(b)) out_t.s_data;
    Array.iteri (fun b w -> Net.connect net w data.d_data.(b)) out_f.s_data;
    let taken_ready = Net.mux2 net ~owner ~sel:c out_t.s_ready out_f.s_ready in
    Net.connect net data.d_ready (Net.and2 net ~owner cond.d_valid taken_ready);
    Net.connect net cond.d_ready (Net.and2 net ~owner data.d_valid taken_ready)
  | K.Operator { op; latency = 0; _ } ->
    let o = outs.(0) in
    let valid_out = join_inputs net ~owner ~go:o.s_ready ins in
    Net.connect net o.s_valid valid_out;
    let args =
      match op with
      | Dataflow.Ops.Select ->
        (* keep the 1-bit condition narrow; align the two data arms *)
        let all = Array.to_list (Array.map (fun i -> i.d_data) ins) in
        (match all with
        | cond :: arms -> [ cond ] @ align_operands net ~owner arms
        | [] -> [])
      | _ ->
        align_operands net ~owner
          ~min_width:(Array.length o.s_data)
          (Array.to_list (Array.map (fun i -> i.d_data) ins))
    in
    drive_bv net ~owner o.s_data (Datapath.of_op net ~owner op args)
  | K.Operator { op; latency; _ } ->
    let o = outs.(0) in
    let vchain = valid_chain net ~owner latency in
    let v_last = vchain.(latency - 1) in
    let nlast = Net.not_ net ~owner v_last in
    let enable = Net.or2 net ~owner o.s_ready nlast in
    let all_valid = join_inputs net ~owner ~go:enable ins in
    let fire = Net.and2 net ~owner all_valid enable in
    (* valid pipeline: v1' = enable ? fire_in : v1 ; vk' = enable ? v(k-1) : vk *)
    Array.iteri
      (fun k v ->
        let next = if k = 0 then fire else vchain.(k - 1) in
        Net.connect net v (Net.mux2 net ~owner ~sel:enable next v))
      vchain;
    Net.connect net o.s_valid v_last;
    (* staged datapath: multipliers interleave shift-add rows with the
       pipeline registers so every stage stays shallow *)
    let width = Array.length o.s_data in
    let result =
      match op with
      | Dataflow.Ops.Mul ->
        let a, b =
          match
            align_operands net ~owner ~min_width:(max 1 width)
              [ ins.(0).d_data; ins.(1).d_data ]
          with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        let w = max 1 width in
        let rows = Array.length a in
        let per_stage = max 1 ((rows + latency - 1) / latency) in
        let acc = ref (Datapath.zero net ~owner ~width:w) in
        let a_cur = ref a and b_cur = ref b in
        let row = ref 0 in
        for stage = 0 to latency - 1 do
          let upto = min rows ((stage + 1) * per_stage) in
          while !row < upto do
            (if !row < Array.length !b_cur then
               acc := Datapath.mul_row net ~owner ~acc:!acc ~a:!a_cur ~b_bit:(!b_cur).(!row) ~row:!row);
            incr row
          done;
          acc := enabled_ff_bv net ~owner ~enable !acc;
          if stage < latency - 1 then begin
            a_cur := enabled_ff_bv net ~owner ~enable !a_cur;
            b_cur := enabled_ff_bv net ~owner ~enable !b_cur
          end
        done;
        !acc
      | _ ->
        let comb =
          Datapath.of_op net ~owner op
            (align_operands net ~owner ~min_width:width
               (Array.to_list (Array.map (fun i -> i.d_data) ins)))
        in
        let r = ref comb in
        for _ = 1 to latency do
          r := enabled_ff_bv net ~owner ~enable !r
        done;
        !r
    in
    drive_bv net ~owner o.s_data result
  | K.Load { mem; latency } ->
    let addr = ins.(0) and o = outs.(0) in
    let latency = max 1 latency in
    let vchain = valid_chain net ~owner latency in
    let v_last = vchain.(latency - 1) in
    let nlast = Net.not_ net ~owner v_last in
    let enable = Net.or2 net ~owner o.s_ready nlast in
    let fire = Net.and2 net ~owner addr.d_valid enable in
    Net.connect net addr.d_ready enable;
    Array.iteri
      (fun k v ->
        let next = if k = 0 then fire else vchain.(k - 1) in
        Net.connect net v (Net.mux2 net ~owner ~sel:enable next v))
      vchain;
    Net.connect net o.s_valid v_last;
    Array.iteri
      (fun b a -> ignore (Net.output net ~owner (Printf.sprintf "mem_%s_raddr_u%d_%d" mem owner b) a))
      addr.d_data;
    ignore (Net.output net ~owner (Printf.sprintf "mem_%s_ren_u%d" mem owner) fire);
    (* read data arrives combinationally (LUT-RAM style) and is registered
       through the same enabled pipeline as the valid bit, so overlapping
       or stalled loads keep data aligned with their tokens *)
    let rdata =
      Array.init (Array.length o.s_data) (fun b ->
          Net.input net ~owner ~dom:Net.Data (Printf.sprintf "mem_%s_rdata_u%d_%d" mem owner b))
    in
    let staged = ref rdata in
    for _ = 1 to latency do
      staged := enabled_ff_bv net ~owner ~enable !staged
    done;
    drive_bv net ~owner o.s_data !staged
  | K.Store { mem } ->
    let addr = ins.(0) and data = ins.(1) and o = outs.(0) in
    (* registered completion token (1-cycle memory acknowledge): a
       dependent guarded load can never race the write *)
    let v_pend = Net.ff net ~owner ~dom:Net.Valid in
    let enable = Net.or2 net ~owner o.s_ready (Net.not_ net ~owner v_pend) in
    let all_valid = join_inputs net ~owner ~go:enable ins in
    let fire = Net.and2 net ~owner all_valid enable in
    Net.connect net v_pend (Net.mux2 net ~owner ~sel:enable fire v_pend);
    Net.connect net o.s_valid v_pend;
    drive_bv net ~owner o.s_data [||];
    Array.iteri
      (fun b a -> ignore (Net.output net ~owner (Printf.sprintf "mem_%s_waddr_u%d_%d" mem owner b) a))
      addr.d_data;
    Array.iteri
      (fun b d -> ignore (Net.output net ~owner (Printf.sprintf "mem_%s_wdata_u%d_%d" mem owner b) d))
      data.d_data;
    ignore (Net.output net ~owner (Printf.sprintf "mem_%s_wen_u%d" mem owner) fire)
  | K.Buffer { transparent; _ } ->
    let i = ins.(0) and o = outs.(0) in
    let cw =
      {
        s_data = i.d_data;
        s_valid = i.d_valid;
        s_ready = i.d_ready;
        d_data = o.s_data;
        d_valid = o.s_valid;
        d_ready = o.s_ready;
      }
    in
    if transparent then begin
      Array.iteri (fun b w -> Net.connect net w cw.s_data.(b)) cw.d_data;
      Net.connect net cw.d_valid cw.s_valid;
      Net.connect net cw.s_ready cw.d_ready
    end
    else
      (* the standalone buffer's wires are inverted relative to a channel
         link: s_* here are already gate outputs, d_* are wires to drive *)
      elaborate_opaque_buffer net ~fwd_owner:owner ~bwd_owner:owner cw

let run g =
  (match G.validate g with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Elaborate.run: invalid graph: " ^ msg));
  let net = Net.create (G.name g) in
  let wires =
    Array.init (G.n_channels g) (fun cid ->
        let c = G.channel g cid in
        let w = c.G.width in
        {
          s_data = Array.init w (fun _ -> Net.wire net ~owner:c.G.src ~dom:Net.Data);
          s_valid = Net.wire net ~owner:c.G.src ~dom:Net.Valid;
          s_ready = Net.wire net ~owner:c.G.src ~dom:Net.Ready;
          d_data = Array.init w (fun _ -> Net.wire net ~owner:c.G.dst ~dom:Net.Data);
          d_valid = Net.wire net ~owner:c.G.dst ~dom:Net.Valid;
          d_ready = Net.wire net ~owner:c.G.dst ~dom:Net.Ready;
        })
  in
  G.iter_channels g (fun c -> link_channel net g c wires.(c.G.cid));
  G.iter_units g (fun n -> elaborate_unit net g n wires);
  (match Net.validate net with
  | Ok () -> ()
  | Error msg -> failwith ("Elaborate.run: produced invalid netlist: " ^ msg));
  net
