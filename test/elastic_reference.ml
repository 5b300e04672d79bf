(* The elastic simulator as it was before the dirty-set settle, kept
   verbatim as a differential-testing oracle: every cycle it resets the
   handshake network and sweeps all units and channels until nothing
   changes. It shares Sim.Elastic's config and result types so the two
   can be compared with structural equality. Nothing on the production
   path calls it. *)

module Vcd = Sim.Vcd
module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops

type config = Sim.Elastic.config = { max_cycles : int; deadlock_window : int }

let default_config = Sim.Elastic.default_config

type channel_stats = Sim.Elastic.channel_stats = {
  cs_transfers : int;
  cs_stalls : int;
  cs_starved : int;
}

type result = Sim.Elastic.result = {
  cycles : int;
  exit_value : int option;
  finished : bool;
  deadlocked : bool;
  transfers : int;
  channel_stats : channel_stats array;
}

type chan_state = {
  width : int;
  buffered : G.buffer_spec option;
  fifo : int Queue.t;            (* contents visible to the consumer *)
  mutable staged : int list;     (* enqueued this cycle; visible next (opaque) *)
  (* combinational signals, recomputed every cycle *)
  mutable s_valid : bool;
  mutable s_value : int;
  mutable s_ready : bool;
  mutable d_valid : bool;
  mutable d_value : int;
  mutable d_ready : bool;
}

type unit_state = {
  mutable sent : bool array;            (* eager fork / cmerge output flags *)
  mutable stages : (bool * int) array;  (* pipelined units *)
  mutable emitted : bool;               (* entry *)
  mutable cm_winner : int;              (* control merge: latched grant, -1 = none *)
}

let mask_of width = if width <= 0 then 0 else if width >= 62 then -1 else (1 lsl width) - 1

let run ?(config = default_config) ?(memories = []) ?dump_deadlock ?vcd g =
  (match G.validate g with
  | Ok () -> ()
  | Error e -> invalid_arg ("Elastic.run: invalid graph: " ^ e));
  (* every cycle must carry at least one opaque buffer, otherwise the
     handshake is a combinational cycle (same legality rule the netlist
     synthesis enforces) *)
  let has_unbuffered_cycle () =
    let n = G.n_units g in
    let color = Array.make n 0 in
    let found = ref false in
    let rec dfs u =
      color.(u) <- 1;
      List.iter
        (fun (cid, w) ->
          let opaque =
            match G.buffer g cid with Some { G.transparent = false; _ } -> true | _ -> false
          in
          if not opaque then
            if color.(w) = 1 then found := true else if color.(w) = 0 then dfs w)
        (G.succs g u);
      color.(u) <- 2
    in
    for u = 0 to n - 1 do
      if color.(u) = 0 then dfs u
    done;
    !found
  in
  if has_unbuffered_cycle () then
    failwith "Elastic.run: combinational cycle (a DFG cycle has no opaque buffer)";
  let n_chan = G.n_channels g in
  let chans =
    Array.init n_chan (fun cid ->
        let c = G.channel g cid in
        {
          width = c.G.width;
          buffered = c.G.buffer;
          fifo = Queue.create ();
          staged = [];
          s_valid = false;
          s_value = 0;
          s_ready = false;
          d_valid = false;
          d_value = 0;
          d_ready = false;
        })
  in
  let units =
    Array.init (G.n_units g) (fun uid ->
        let n = G.unit_node g uid in
        let st = { sent = [||]; stages = [||]; emitted = false; cm_winner = -1 } in
        (match n.G.kind with
        | K.Fork k -> st.sent <- Array.make k false
        | K.Control_merge _ -> st.sent <- Array.make 2 false
        | K.Operator { latency; _ } when latency > 0 -> st.stages <- Array.make latency (false, 0)
        | K.Load { latency; _ } -> st.stages <- Array.make (max 1 latency) (false, 0)
        | K.Store _ -> st.stages <- Array.make 1 (false, 0)
        | _ -> ());
        st)
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
  let mem_read name addr =
    match Hashtbl.find_opt mems name with
    | None -> 0
    | Some a -> if Array.length a = 0 then 0 else a.(abs addr mod Array.length a)
  in
  let mem_write name addr v =
    match Hashtbl.find_opt mems name with
    | None -> ()
    | Some a -> if Array.length a > 0 then a.(abs addr mod Array.length a) <- v
  in
  let exit_value = ref None in
  let finished = ref false in
  let transfers = ref 0 in
  let st_transfers = Array.make n_chan 0 in
  let st_stalls = Array.make n_chan 0 in
  let st_starved = Array.make n_chan 0 in
  let in_chans uid =
    let n = G.unit_node g uid in
    Array.map (fun c -> chans.(Option.get c)) n.G.ins
  in
  let out_chans uid =
    let n = G.unit_node g uid in
    Array.map (fun c -> chans.(Option.get c)) n.G.outs
  in
  (* ---- combinational evaluation of one unit; returns true if any
     signal it drives changed ---- *)
  let changed = ref false in
  let set_bool cell v (get, set) =
    ignore cell;
    if get () <> v then begin
      set v;
      changed := true
    end
  in
  let setv c v =
    if c.s_valid <> v then begin
      c.s_valid <- v;
      changed := true
    end
  in
  let setval c v =
    let v = v land mask_of c.width in
    if c.s_value <> v then begin
      c.s_value <- v;
      changed := true
    end
  in
  let setr c v =
    if c.d_ready <> v then begin
      c.d_ready <- v;
      changed := true
    end
  in
  ignore set_bool;
  let eval_unit uid =
    let n = G.unit_node g uid in
    let st = units.(uid) in
    let ins = in_chans uid and outs = out_chans uid in
    let all_valid_except k =
      let ok = ref true in
      Array.iteri (fun i c -> if i <> k && not c.d_valid then ok := false) ins;
      !ok
    in
    match n.G.kind with
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
      let dones =
        Array.mapi
          (fun k o ->
            let vo = i.d_valid && not st.sent.(k) in
            setv o vo;
            setval o i.d_value;
            st.sent.(k) || (vo && o.s_ready))
          outs
      in
      setr i (Array.for_all (fun d -> d) dones)
    | K.Lazy_fork _ ->
      let i = ins.(0) in
      let all_ready = Array.for_all (fun o -> o.s_ready) outs in
      Array.iter
        (fun o ->
          setv o (i.d_valid && all_ready);
          setval o i.d_value)
        outs;
      setr i all_ready
    | K.Join _ ->
      let o = outs.(0) in
      let all = Array.for_all (fun c -> c.d_valid) ins in
      setv o all;
      setval o ins.(0).d_value;
      Array.iteri (fun k c -> setr c (o.s_ready && all_valid_except k)) ins
    | K.Merge _ ->
      let o = outs.(0) in
      let winner = ref (-1) in
      Array.iteri (fun k c -> if !winner = -1 && c.d_valid then winner := k) ins;
      setv o (!winner >= 0);
      setval o (if !winner >= 0 then ins.(!winner).d_value else 0);
      Array.iteri (fun k c -> setr c (k = !winner && o.s_ready)) ins
    | K.Control_merge _ ->
      (* A control merge has TWO outputs whose consumers may accept at
         different times; like an eager fork it must track per-output
         delivery and latch the granted input, otherwise a consumer that
         accepts early sees the same token twice (token duplication). *)
      let tok = outs.(0) and idx = outs.(1) in
      let winner = ref st.cm_winner in
      if !winner = -1 then
        Array.iteri (fun k c -> if !winner = -1 && c.d_valid then winner := k) ins;
      let any = !winner >= 0 && ins.(!winner).d_valid in
      setv tok (any && not st.sent.(0));
      setval tok 0;
      setv idx (any && not st.sent.(1));
      setval idx (max !winner 0);
      let done0 = st.sent.(0) || (any && (not st.sent.(0)) && tok.s_ready) in
      let done1 = st.sent.(1) || (any && (not st.sent.(1)) && idx.s_ready) in
      Array.iteri (fun k c -> setr c (k = !winner && done0 && done1)) ins
    | K.Mux _ ->
      let sel = ins.(0) and o = outs.(0) in
      let k = if Array.length ins > 1 then sel.d_value mod (Array.length ins - 1) else 0 in
      let data = ins.(k + 1) in
      let vo = sel.d_valid && data.d_valid in
      setv o vo;
      setval o data.d_value;
      let fire = vo && o.s_ready in
      Array.iteri (fun j c -> if j > 0 then setr c (j = k + 1 && fire)) ins;
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
      let all = Array.for_all (fun c -> c.d_valid) ins in
      setv o all;
      let args = Array.to_list (Array.map (fun c -> c.d_value) ins) in
      setval o (if all then Ops.eval op args else 0);
      Array.iteri (fun k c -> setr c (o.s_ready && all_valid_except k)) ins
    | K.Operator { latency; _ } ->
      let o = outs.(0) in
      let v_last, val_last = st.stages.(latency - 1) in
      setv o v_last;
      setval o val_last;
      let enable = o.s_ready || not v_last in
      Array.iteri (fun k c -> setr c (enable && all_valid_except k)) ins
    | K.Load _ ->
      let o = outs.(0) in
      let depth = Array.length st.stages in
      let v_last, val_last = st.stages.(depth - 1) in
      setv o v_last;
      setval o val_last;
      let enable = o.s_ready || not v_last in
      setr ins.(0) enable
    | K.Store _ ->
      (* the completion token is registered: a dependent (guarded) load
         can only fire the cycle after the write, never racing it *)
      let o = outs.(0) in
      let v_pend, _ = st.stages.(0) in
      setv o v_pend;
      setval o 0;
      let enable = o.s_ready || not v_pend in
      Array.iteri (fun k c -> setr c (enable && all_valid_except k)) ins
    | K.Buffer _ ->
      (* standalone buffer unit: behaves like a 1-deep opaque queue on its
         own; modelled with its stages array? For simplicity treat as
         transparent wire here; placement uses channel annotations. *)
      let i = ins.(0) and o = outs.(0) in
      setv o i.d_valid;
      setval o i.d_value;
      setr i o.s_ready
  in
  (* ---- channel link evaluation ---- *)
  let eval_chan c =
    match c.buffered with
    | Some { G.transparent = false; slots } ->
      let occupancy = Queue.length c.fifo + List.length c.staged in
      let dv = not (Queue.is_empty c.fifo) in
      if c.d_valid <> dv then begin
        c.d_valid <- dv;
        changed := true
      end;
      let hv = if dv then Queue.peek c.fifo else 0 in
      if c.d_value <> hv then begin
        c.d_value <- hv;
        changed := true
      end;
      let sr = occupancy < max 1 slots in
      if c.s_ready <> sr then begin
        c.s_ready <- sr;
        changed := true
      end
    | Some { G.transparent = true; slots } ->
      (* capacity without latency: the consumer sees the queue head or,
         if empty, the producer's live offer *)
      let dv, hv =
        if not (Queue.is_empty c.fifo) then (true, Queue.peek c.fifo)
        else (c.s_valid, c.s_value)
      in
      if c.d_valid <> dv then begin
        c.d_valid <- dv;
        changed := true
      end;
      if c.d_value <> hv then begin
        c.d_value <- hv;
        changed := true
      end;
      let sr = Queue.length c.fifo < max 1 slots || c.d_ready in
      if c.s_ready <> sr then begin
        c.s_ready <- sr;
        changed := true
      end
    | None ->
      if c.d_valid <> c.s_valid then begin
        c.d_valid <- c.s_valid;
        changed := true
      end;
      if c.d_value <> c.s_value then begin
        c.d_value <- c.s_value;
        changed := true
      end;
      if c.s_ready <> c.d_ready then begin
        c.s_ready <- c.d_ready;
        changed := true
      end
  in
  (* ---- one clock cycle ---- *)
  let n_units = G.n_units g in
  let cycle_transfers = ref 0 in
  let step () =
    (* combinational fixpoint *)
    Array.iter
      (fun c ->
        c.s_valid <- false;
        c.s_value <- 0;
        c.s_ready <- false;
        c.d_valid <- false;
        c.d_value <- 0;
        c.d_ready <- false)
      chans;
    let iters = ref 0 in
    let continue = ref true in
    while !continue do
      incr iters;
      if !iters > (2 * (n_units + n_chan)) + 8 then
        failwith "Elastic.run: handshake does not stabilise (combinational cycle)";
      changed := false;
      for u = 0 to n_units - 1 do
        eval_unit u
      done;
      Array.iter eval_chan chans;
      continue := !changed
    done;
    (* fire phase *)
    cycle_transfers := 0;
    let fired_in = Array.make n_chan false in
    let fired_out = Array.make n_chan false in
    Array.iteri
      (fun cid c ->
        (match c.buffered with
        | Some { G.transparent = false; _ } ->
          (* consumer side *)
          if c.d_valid && c.d_ready then begin
            ignore (Queue.pop c.fifo);
            fired_in.(cid) <- true
          end;
          (* producer side: token becomes visible next cycle *)
          if c.s_valid && c.s_ready then begin
            c.staged <- c.s_value :: c.staged;
            fired_out.(cid) <- true
          end
        | Some { G.transparent = true; _ } ->
          let from_fifo = not (Queue.is_empty c.fifo) in
          if c.d_valid && c.d_ready then begin
            if from_fifo then ignore (Queue.pop c.fifo) else fired_out.(cid) <- true;
            fired_in.(cid) <- true
          end;
          (* absorb the producer's token if it was not consumed directly *)
          if c.s_valid && c.s_ready && not fired_out.(cid) then begin
            Queue.push c.s_value c.fifo;
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
    (* stage the opaque enqueues for next cycle *)
    Array.iter
      (fun c ->
        List.iter (fun v -> Queue.push v c.fifo) (List.rev c.staged);
        c.staged <- [])
      chans;
    (* sequential unit updates *)
    for uid = 0 to n_units - 1 do
      let n = G.unit_node g uid in
      let st = units.(uid) in
      let ins = in_chans uid and outs = out_chans uid in
      let in_fired k = fired_in.((G.unit_node g uid).G.ins.(k) |> Option.get) in
      let out_fired k = fired_out.((G.unit_node g uid).G.outs.(k) |> Option.get) in
      match n.G.kind with
      | K.Entry -> if out_fired 0 then st.emitted <- true
      | K.Exit ->
        if in_fired 0 then begin
          exit_value := Some ins.(0).d_value;
          finished := true
        end
      | K.Fork _ ->
        let i = ins.(0) in
        let dones =
          Array.mapi (fun k o -> st.sent.(k) || (i.d_valid && not st.sent.(k) && o.s_ready)) outs
        in
        let all = Array.for_all (fun d -> d) dones in
        Array.iteri (fun k d -> st.sent.(k) <- (d && not all)) dones
      | K.Control_merge _ ->
        let winner = ref st.cm_winner in
        if !winner = -1 then
          Array.iteri (fun k c -> if !winner = -1 && c.d_valid then winner := k) ins;
        let any = !winner >= 0 && ins.(!winner).d_valid in
        if any then begin
          let done0 = st.sent.(0) || out_fired 0 in
          let done1 = st.sent.(1) || out_fired 1 in
          if done0 && done1 then begin
            (* the granted token was fully delivered and consumed *)
            st.sent.(0) <- false;
            st.sent.(1) <- false;
            st.cm_winner <- -1
          end
          else begin
            st.sent.(0) <- done0;
            st.sent.(1) <- done1;
            st.cm_winner <- !winner
          end
        end
      | K.Operator { op; latency; _ } when latency > 0 ->
        let o = outs.(0) in
        let v_last, _ = st.stages.(latency - 1) in
        let enable = o.s_ready || not v_last in
        if enable then begin
          for k = latency - 1 downto 1 do
            st.stages.(k) <- st.stages.(k - 1)
          done;
          let all_fired = Array.for_all (fun c -> c.d_valid) ins && in_fired 0 in
          if all_fired then begin
            let args = Array.to_list (Array.map (fun c -> c.d_value) ins) in
            st.stages.(0) <- (true, Ops.eval op args land mask_of n.G.width)
          end
          else st.stages.(0) <- (false, 0)
        end
      | K.Load { mem; _ } ->
        let o = outs.(0) in
        let depth = Array.length st.stages in
        let v_last, _ = st.stages.(depth - 1) in
        let enable = o.s_ready || not v_last in
        if enable then begin
          for k = depth - 1 downto 1 do
            st.stages.(k) <- st.stages.(k - 1)
          done;
          if in_fired 0 then
            st.stages.(0) <- (true, mem_read mem ins.(0).d_value land mask_of n.G.width)
          else st.stages.(0) <- (false, 0)
        end
      | K.Store _ -> () (* handled in the write pass below *)
      | _ -> ()
    done;
    (* Memory writes LAST: a load and a store firing in the same cycle
       see the memory in program order (the load's read happened above,
       the dependent-load case is excluded by the registered store
       token). *)
    for uid = 0 to n_units - 1 do
      let n = G.unit_node g uid in
      let st = units.(uid) in
      let ins = in_chans uid and outs = out_chans uid in
      let in_fired k = fired_in.((G.unit_node g uid).G.ins.(k) |> Option.get) in
      match n.G.kind with
      | K.Store { mem } ->
        let o = outs.(0) in
        let v_pend, _ = st.stages.(0) in
        let enable = o.s_ready || not v_pend in
        if enable then begin
          let fired = in_fired 0 in
          if fired then mem_write mem ins.(0).d_value ins.(1).d_value;
          st.stages.(0) <- (fired, 0)
        end
      | _ -> ()
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
    Array.iteri
      (fun cid c ->
        let ch = G.channel g cid in
        let srcl = (G.unit_node g ch.G.src).G.label in
        let dstl = (G.unit_node g ch.G.dst).G.label in
        if c.d_valid || c.s_valid || not (Queue.is_empty c.fifo) then
          Printf.fprintf oc
            "  c%d %s -> %s : s_valid=%b s_ready=%b d_valid=%b d_ready=%b fifo=%d\n" cid srcl
            dstl c.s_valid c.s_ready c.d_valid c.d_ready (Queue.length c.fifo))
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
