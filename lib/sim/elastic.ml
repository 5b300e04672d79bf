module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops

type config = { max_cycles : int; deadlock_window : int }

let default_config = { max_cycles = 2_000_000; deadlock_window = 256 }

type channel_stats = {
  cs_transfers : int;
  cs_stalls : int;
  cs_starved : int;
}

type result = {
  cycles : int;
  exit_value : int option;
  finished : bool;
  deadlocked : bool;
  transfers : int;
  channel_stats : channel_stats array;
}

type chan_state = {
  cid : int;
  src : int;                     (* producer unit *)
  dst : int;                     (* consumer unit *)
  mask : int;                    (* data mask of the channel width *)
  buffered : G.buffer_spec option;
  (* FIFO contents visible to the consumer, as a ring of [slots] cells *)
  buf : int array;
  mutable head : int;
  mutable len : int;
  (* combinational signals, recomputed every cycle *)
  mutable s_valid : bool;
  mutable s_value : int;
  mutable s_ready : bool;
  mutable d_valid : bool;
  mutable d_value : int;
  mutable d_ready : bool;
}

type unit_state = {
  kind : K.t;
  umask : int;                   (* data mask of the unit width *)
  ins : chan_state array;
  outs : chan_state array;
  mem : int array;               (* load/store memory; [||] reads 0, drops writes *)
  sent : bool array;             (* eager fork / cmerge output flags *)
  stage_valid : bool array;      (* pipelined units *)
  stage_value : int array;
  mutable emitted : bool;        (* entry *)
  mutable cm_winner : int;       (* control merge: latched grant, -1 = none *)
}

let mask_of width = if width <= 0 then 0 else if width >= 62 then -1 else (1 lsl width) - 1

let fifo_peek c = c.buf.(c.head)

let fifo_pop c =
  c.head <- (c.head + 1) mod Array.length c.buf;
  c.len <- c.len - 1

(* Never called on a full ring: a producer fires into a buffer only when
   it has a free slot, or, for a transparent one, when its head is
   consumed in the same cycle and popped first. *)
let fifo_push c v =
  c.buf.((c.head + c.len) mod Array.length c.buf) <- v;
  c.len <- c.len + 1

(* A fixed-capacity set of ids in insertion order. *)
type worklist = { items : int array; mutable n : int; member : bool array }

let worklist size = { items = Array.make size 0; n = 0; member = Array.make size false }

let add w id =
  if not w.member.(id) then begin
    w.member.(id) <- true;
    w.items.(w.n) <- id;
    w.n <- w.n + 1
  end

let fill w =
  for id = 0 to Array.length w.items - 1 do
    w.member.(id) <- true;
    w.items.(id) <- id
  done;
  w.n <- Array.length w.items

let run ?(config = default_config) ?(memories = []) ?dump_deadlock ?vcd g =
  (match G.validate g with
  | Ok () -> ()
  | Error e -> invalid_arg ("Elastic.run: invalid graph: " ^ e));
  (* every cycle must carry at least one opaque buffer, otherwise the
     handshake is a combinational cycle (same legality rule the netlist
     synthesis enforces) *)
  let unbuffered_succs u =
    List.filter_map
      (fun (cid, w) ->
        match G.buffer g cid with Some { G.transparent = false; _ } -> None | _ -> Some w)
      (G.succs g u)
  in
  if snd (Support.Digraph.topo (Array.init (G.n_units g) unbuffered_succs)) <> [] then
    failwith "Elastic.run: combinational cycle (a DFG cycle has no opaque buffer)";
  let n_chan = G.n_channels g in
  let n_units = G.n_units g in
  let chans =
    Array.init n_chan (fun cid ->
        let c = G.channel g cid in
        {
          cid;
          src = c.G.src;
          dst = c.G.dst;
          mask = mask_of c.G.width;
          buffered = c.G.buffer;
          buf =
            (match c.G.buffer with Some { G.slots; _ } -> Array.make (max 1 slots) 0 | None -> [||]);
          head = 0;
          len = 0;
          s_valid = false;
          s_value = 0;
          s_ready = false;
          d_valid = false;
          d_value = 0;
          d_ready = false;
        })
  in
  let mems = Hashtbl.create 4 in
  List.iter
    (fun (name, size) ->
      let arr =
        match List.assoc_opt name memories with
        | Some a -> a
        | None -> Array.make size 0
      in
      Hashtbl.replace mems name arr)
    (G.memories g);
  let mem_of name = Option.value (Hashtbl.find_opt mems name) ~default:[||] in
  let units =
    Array.init n_units (fun uid ->
        let n = G.unit_node g uid in
        let stages =
          match n.G.kind with
          | K.Operator { latency; _ } when latency > 0 -> latency
          | K.Load { latency; _ } -> max 1 latency
          | K.Store _ -> 1
          | _ -> 0
        in
        {
          kind = n.G.kind;
          umask = mask_of n.G.width;
          ins = Array.map (fun c -> chans.(Option.get c)) n.G.ins;
          outs = Array.map (fun c -> chans.(Option.get c)) n.G.outs;
          mem = (match n.G.kind with K.Load { mem; _ } | K.Store { mem } -> mem_of mem | _ -> [||]);
          sent =
            (match n.G.kind with
            | K.Fork k -> Array.make k false
            | K.Control_merge _ -> Array.make 2 false
            | _ -> [||]);
          stage_valid = Array.make stages false;
          stage_value = Array.make stages 0;
          emitted = false;
          cm_winner = -1;
        })
  in
  (* units with sequential state, in id order; stores are kept apart
     because memory writes happen after every read of the cycle *)
  let ids_where p = List.filter p (List.init n_units Fun.id) |> Array.of_list in
  let seq_units =
    ids_where (fun u ->
        match units.(u).kind with
        | K.Entry | K.Exit | K.Fork _ | K.Control_merge _ | K.Load _ -> true
        | K.Operator { latency; _ } -> latency > 0
        | _ -> false)
  in
  let store_units = ids_where (fun u -> match units.(u).kind with K.Store _ -> true | _ -> false) in
  let exit_value = ref None in
  let finished = ref false in
  let transfers = ref 0 in
  let st_transfers = Array.make n_chan 0 in
  let st_stalls = Array.make n_chan 0 in
  let st_starved = Array.make n_chan 0 in
  (* ---- settle bookkeeping: a changed signal puts the elements that
     read it on the next phase's worklist ---- *)
  let changed = ref false in
  let dirty_units = worklist n_units in
  let dirty_chans = worklist n_chan in
  let unit_wrote c =
    changed := true;
    add dirty_chans c.cid
  in
  let setv c v =
    if c.s_valid <> v then begin
      c.s_valid <- v;
      unit_wrote c
    end
  in
  let setval c v =
    let v = v land c.mask in
    if c.s_value <> v then begin
      c.s_value <- v;
      unit_wrote c
    end
  in
  let setr c v =
    if c.d_ready <> v then begin
      c.d_ready <- v;
      unit_wrote c
    end
  in
  let n_invalid ins =
    let k = ref 0 in
    for i = 0 to Array.length ins - 1 do
      if not ins.(i).d_valid then incr k
    done;
    !k
  in
  (* every input other than [k] is valid, given [bad] invalid inputs *)
  let all_valid_except ins bad k = bad = 0 || (bad = 1 && not ins.(k).d_valid) in
  let first_valid ins =
    let w = ref (-1) in
    for k = Array.length ins - 1 downto 0 do
      if ins.(k).d_valid then w := k
    done;
    !w
  in
  let eval_op op ins =
    Ops.apply op ins.(0).d_value ins.(1).d_value
      (if Array.length ins > 2 then ins.(2).d_value else 0)
  in
  (* ---- combinational evaluation of one unit: reads d_valid, d_value
     and s_ready, writes s_valid, s_value and d_ready ---- *)
  let eval_unit st =
    let ins = st.ins and outs = st.outs in
    match st.kind with
    | K.Entry ->
      let o = outs.(0) in
      setv o (not st.emitted);
      setval o 0
    | K.Exit -> setr ins.(0) true
    | K.Sink -> setr ins.(0) true
    | K.Source ->
      setv outs.(0) true;
      setval outs.(0) 0
    | K.Const k ->
      setv outs.(0) ins.(0).d_valid;
      setval outs.(0) k;
      setr ins.(0) outs.(0).s_ready
    | K.Fork _ ->
      let i = ins.(0) in
      let all_done = ref true in
      for k = 0 to Array.length outs - 1 do
        let o = outs.(k) in
        let vo = i.d_valid && not st.sent.(k) in
        setv o vo;
        setval o i.d_value;
        if not (st.sent.(k) || (vo && o.s_ready)) then all_done := false
      done;
      setr i !all_done
    | K.Lazy_fork _ ->
      let i = ins.(0) in
      let all_ready = ref true in
      for k = 0 to Array.length outs - 1 do
        if not outs.(k).s_ready then all_ready := false
      done;
      for k = 0 to Array.length outs - 1 do
        setv outs.(k) (i.d_valid && !all_ready);
        setval outs.(k) i.d_value
      done;
      setr i !all_ready
    | K.Join _ ->
      let o = outs.(0) in
      let bad = n_invalid ins in
      setv o (bad = 0);
      setval o ins.(0).d_value;
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (o.s_ready && all_valid_except ins bad k)
      done
    | K.Merge _ ->
      let o = outs.(0) in
      let winner = first_valid ins in
      setv o (winner >= 0);
      setval o (if winner >= 0 then ins.(winner).d_value else 0);
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (k = winner && o.s_ready)
      done
    | K.Control_merge _ ->
      (* A control merge has TWO outputs whose consumers may accept at
         different times; like an eager fork it must track per-output
         delivery and latch the granted input, otherwise a consumer that
         accepts early sees the same token twice (token duplication). *)
      let tok = outs.(0) and idx = outs.(1) in
      let winner = if st.cm_winner = -1 then first_valid ins else st.cm_winner in
      let any = winner >= 0 && ins.(winner).d_valid in
      setv tok (any && not st.sent.(0));
      setval tok 0;
      setv idx (any && not st.sent.(1));
      setval idx (max winner 0);
      let done0 = st.sent.(0) || (any && (not st.sent.(0)) && tok.s_ready) in
      let done1 = st.sent.(1) || (any && (not st.sent.(1)) && idx.s_ready) in
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (k = winner && done0 && done1)
      done
    | K.Mux _ ->
      let sel = ins.(0) and o = outs.(0) in
      let k = if Array.length ins > 1 then sel.d_value mod (Array.length ins - 1) else 0 in
      let data = ins.(k + 1) in
      let vo = sel.d_valid && data.d_valid in
      setv o vo;
      setval o data.d_value;
      let fire = vo && o.s_ready in
      for j = 1 to Array.length ins - 1 do
        setr ins.(j) (j = k + 1 && fire)
      done;
      setr sel fire
    | K.Branch ->
      let data = ins.(0) and cond = ins.(1) in
      let t = outs.(0) and f = outs.(1) in
      let c1 = cond.d_value land 1 = 1 in
      let both = data.d_valid && cond.d_valid in
      setv t (both && c1);
      setval t data.d_value;
      setv f (both && not c1);
      setval f data.d_value;
      let taken_ready = if c1 then t.s_ready else f.s_ready in
      setr data (cond.d_valid && taken_ready);
      setr cond (data.d_valid && taken_ready)
    | K.Operator { op; latency = 0; _ } ->
      let o = outs.(0) in
      let bad = n_invalid ins in
      setv o (bad = 0);
      setval o (if bad = 0 then eval_op op ins else 0);
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (o.s_ready && all_valid_except ins bad k)
      done
    | K.Operator { latency; _ } ->
      let o = outs.(0) in
      let v_last = st.stage_valid.(latency - 1) in
      setv o v_last;
      setval o st.stage_value.(latency - 1);
      let enable = o.s_ready || not v_last in
      let bad = n_invalid ins in
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (enable && all_valid_except ins bad k)
      done
    | K.Load _ ->
      let o = outs.(0) in
      let depth = Array.length st.stage_valid in
      let v_last = st.stage_valid.(depth - 1) in
      setv o v_last;
      setval o st.stage_value.(depth - 1);
      let enable = o.s_ready || not v_last in
      setr ins.(0) enable
    | K.Store _ ->
      (* the completion token is registered: a dependent (guarded) load
         can only fire the cycle after the write, never racing it *)
      let o = outs.(0) in
      let v_pend = st.stage_valid.(0) in
      setv o v_pend;
      setval o 0;
      let enable = o.s_ready || not v_pend in
      let bad = n_invalid ins in
      for k = 0 to Array.length ins - 1 do
        setr ins.(k) (enable && all_valid_except ins bad k)
      done
    | K.Buffer _ ->
      (* a standalone buffer unit is simulated as a wire; buffering is
         modelled by the channel annotations *)
      let i = ins.(0) and o = outs.(0) in
      setv o i.d_valid;
      setval o i.d_value;
      setr i o.s_ready
  in
  (* ---- channel link evaluation: reads s_valid, s_value and d_ready,
     writes d_valid, d_value and s_ready ---- *)
  let set_down c dv hv =
    if c.d_valid <> dv then begin
      c.d_valid <- dv;
      changed := true;
      add dirty_units c.dst
    end;
    if c.d_value <> hv then begin
      c.d_value <- hv;
      changed := true;
      add dirty_units c.dst
    end
  in
  let set_ready c sr =
    if c.s_ready <> sr then begin
      c.s_ready <- sr;
      changed := true;
      add dirty_units c.src
    end
  in
  let eval_chan c =
    match c.buffered with
    | Some { G.transparent = false; slots } ->
      let dv = c.len > 0 in
      set_down c dv (if dv then fifo_peek c else 0);
      set_ready c (c.len < max 1 slots)
    | Some { G.transparent = true; slots } ->
      (* capacity without latency: the consumer sees the queue head or,
         if empty, the producer's live offer *)
      if c.len > 0 then set_down c true (fifo_peek c) else set_down c c.s_valid c.s_value;
      set_ready c (c.len < max 1 slots || c.d_ready)
    | None ->
      set_down c c.s_valid c.s_value;
      set_ready c c.d_ready
  in
  (* ---- one clock cycle ---- *)
  let cycle_transfers = ref 0 in
  let fired_in = Array.make n_chan false in
  let fired_out = Array.make n_chan false in
  let step () =
    (* combinational fixpoint: reset, one full sweep, then sweeps over
       the worklists until no signal changes *)
    Array.iter
      (fun c ->
        c.s_valid <- false;
        c.s_value <- 0;
        c.s_ready <- false;
        c.d_valid <- false;
        c.d_value <- 0;
        c.d_ready <- false)
      chans;
    fill dirty_units;
    fill dirty_chans;
    let iters = ref 0 in
    let continue = ref true in
    while !continue do
      incr iters;
      if !iters > (2 * (n_units + n_chan)) + 8 then
        failwith "Elastic.run: handshake does not stabilise (combinational cycle)";
      changed := false;
      for k = 0 to dirty_units.n - 1 do
        let u = dirty_units.items.(k) in
        dirty_units.member.(u) <- false;
        eval_unit units.(u)
      done;
      dirty_units.n <- 0;
      for k = 0 to dirty_chans.n - 1 do
        let c = dirty_chans.items.(k) in
        dirty_chans.member.(c) <- false;
        eval_chan chans.(c)
      done;
      dirty_chans.n <- 0;
      continue := !changed
    done;
    (* fire phase *)
    cycle_transfers := 0;
    Array.fill fired_in 0 n_chan false;
    Array.fill fired_out 0 n_chan false;
    Array.iter
      (fun c ->
        let cid = c.cid in
        (match c.buffered with
        | Some { G.transparent = false; _ } ->
          (* consumer side *)
          if c.d_valid && c.d_ready then begin
            fifo_pop c;
            fired_in.(cid) <- true
          end;
          (* producer side: the settle reads the FIFO again only next
             cycle, so the token becomes visible then *)
          if c.s_valid && c.s_ready then begin
            fifo_push c c.s_value;
            fired_out.(cid) <- true
          end
        | Some { G.transparent = true; _ } ->
          let from_fifo = c.len > 0 in
          if c.d_valid && c.d_ready then begin
            if from_fifo then fifo_pop c else fired_out.(cid) <- true;
            fired_in.(cid) <- true
          end;
          (* absorb the producer's token if it was not consumed directly *)
          if c.s_valid && c.s_ready && not fired_out.(cid) then begin
            fifo_push c c.s_value;
            fired_out.(cid) <- true
          end
        | None ->
          if c.d_valid && c.d_ready then begin
            fired_in.(cid) <- true;
            fired_out.(cid) <- true
          end);
        if fired_in.(cid) then st_transfers.(cid) <- st_transfers.(cid) + 1;
        if c.d_valid && not c.d_ready then st_stalls.(cid) <- st_stalls.(cid) + 1;
        if c.d_ready && not c.d_valid then st_starved.(cid) <- st_starved.(cid) + 1;
        if fired_in.(cid) || fired_out.(cid) then incr cycle_transfers)
      chans;
    (* sequential unit updates *)
    let shift st =
      for k = Array.length st.stage_valid - 1 downto 1 do
        st.stage_valid.(k) <- st.stage_valid.(k - 1);
        st.stage_value.(k) <- st.stage_value.(k - 1)
      done
    in
    for j = 0 to Array.length seq_units - 1 do
      let st = units.(seq_units.(j)) in
      let ins = st.ins and outs = st.outs in
      match st.kind with
      | K.Entry -> if fired_out.(outs.(0).cid) then st.emitted <- true
      | K.Exit ->
        if fired_in.(ins.(0).cid) then begin
          exit_value := Some ins.(0).d_value;
          finished := true
        end
      | K.Fork _ ->
        let i = ins.(0) in
        let done_ k = st.sent.(k) || (i.d_valid && (not st.sent.(k)) && outs.(k).s_ready) in
        let all = ref true in
        for k = 0 to Array.length outs - 1 do
          if not (done_ k) then all := false
        done;
        for k = 0 to Array.length outs - 1 do
          st.sent.(k) <- done_ k && not !all
        done
      | K.Control_merge _ ->
        let winner = if st.cm_winner = -1 then first_valid ins else st.cm_winner in
        let any = winner >= 0 && ins.(winner).d_valid in
        if any then begin
          let done0 = st.sent.(0) || fired_out.(outs.(0).cid) in
          let done1 = st.sent.(1) || fired_out.(outs.(1).cid) in
          if done0 && done1 then begin
            (* the granted token was fully delivered and consumed *)
            st.sent.(0) <- false;
            st.sent.(1) <- false;
            st.cm_winner <- -1
          end
          else begin
            st.sent.(0) <- done0;
            st.sent.(1) <- done1;
            st.cm_winner <- winner
          end
        end
      | K.Operator { op; latency; _ } ->
        let v_last = st.stage_valid.(latency - 1) in
        if outs.(0).s_ready || not v_last then begin
          shift st;
          if n_invalid ins = 0 && fired_in.(ins.(0).cid) then begin
            st.stage_valid.(0) <- true;
            st.stage_value.(0) <- eval_op op ins land st.umask
          end
          else begin
            st.stage_valid.(0) <- false;
            st.stage_value.(0) <- 0
          end
        end
      | K.Load _ ->
        let depth = Array.length st.stage_valid in
        let v_last = st.stage_valid.(depth - 1) in
        if outs.(0).s_ready || not v_last then begin
          shift st;
          if fired_in.(ins.(0).cid) then begin
            let n = Array.length st.mem in
            st.stage_valid.(0) <- true;
            st.stage_value.(0) <-
              (if n = 0 then 0 else st.mem.(abs ins.(0).d_value mod n)) land st.umask
          end
          else begin
            st.stage_valid.(0) <- false;
            st.stage_value.(0) <- 0
          end
        end
      | _ -> ()
    done;
    (* Memory writes LAST: a load and a store firing in the same cycle
       see the memory in program order (the load's read happened above,
       the dependent-load case is excluded by the registered store
       token). *)
    for j = 0 to Array.length store_units - 1 do
      let st = units.(store_units.(j)) in
      let ins = st.ins in
      let v_pend = st.stage_valid.(0) in
      if st.outs.(0).s_ready || not v_pend then begin
        let fired = fired_in.(ins.(0).cid) in
        let n = Array.length st.mem in
        if fired && n > 0 then st.mem.(abs ins.(0).d_value mod n) <- ins.(1).d_value;
        st.stage_valid.(0) <- fired;
        st.stage_value.(0) <- 0
      end
    done
  in
  let tracer = Option.map (fun oc -> Vcd.create oc g) vcd in
  let trace cycle =
    match tracer with
    | None -> ()
    | Some t ->
      Vcd.step t ~cycle (Array.map (fun c -> (c.d_valid, c.s_ready, c.d_value)) chans)
  in
  let cycles = ref 0 in
  let last_transfer = ref 0 in
  let deadlocked = ref false in
  while (not !finished) && (not !deadlocked) && !cycles < config.max_cycles do
    step ();
    trace !cycles;
    incr cycles;
    transfers := !transfers + !cycle_transfers;
    if !cycle_transfers > 0 then last_transfer := !cycles;
    if !cycles - !last_transfer > config.deadlock_window then deadlocked := true
  done;
  Option.iter Vcd.close tracer;
  if !deadlocked && Option.is_some dump_deadlock then begin
    let oc = Option.get dump_deadlock in
    Printf.fprintf oc "=== deadlock dump: %s (cycle %d) ===\n" (G.name g) !cycles;
    Array.iter
      (fun c ->
        let srcl = (G.unit_node g c.src).G.label in
        let dstl = (G.unit_node g c.dst).G.label in
        if c.d_valid || c.s_valid || c.len > 0 then
          Printf.fprintf oc
            "  c%d %s -> %s : s_valid=%b s_ready=%b d_valid=%b d_ready=%b fifo=%d\n" c.cid srcl
            dstl c.s_valid c.s_ready c.d_valid c.d_ready c.len)
      chans
  end;
  {
    cycles = !cycles;
    exit_value = !exit_value;
    finished = !finished;
    deadlocked = !deadlocked;
    transfers = !transfers;
    channel_stats =
      Array.init n_chan (fun cid ->
          {
            cs_transfers = st_transfers.(cid);
            cs_stalls = st_stalls.(cid);
            cs_starved = st_starved.(cid);
          });
  }
