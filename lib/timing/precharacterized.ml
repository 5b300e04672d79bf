module G = Dataflow.Graph
module K = Dataflow.Unit_kind

let level_delay = 0.7

(* Expected width of each input port of a unit, given the widths its
   instance sees in the real graph. *)
let in_widths g uid =
  let n = G.unit_node g uid in
  Array.to_list n.G.ins
  |> List.map (fun c ->
         match c with Some cid -> (G.channel g cid).G.width | None -> n.G.width)

let signature g uid =
  let n = G.unit_node g uid in
  (* loads/stores elaborate against the named memory, so its word count
     is part of the unit's identity — without it two graphs with
     same-named memories of different sizes would share a delay *)
  let mem_suffix =
    match n.G.kind with
    | K.Load { mem; _ } | K.Store { mem } ->
      let size = try List.assoc mem (G.memories g) with Not_found -> 0 in
      Printf.sprintf "/mem:%s=%d" mem size
    | _ -> ""
  in
  Printf.sprintf "%s/w%d/in[%s]%s" (K.name n.G.kind) n.G.width
    (String.concat "," (List.map string_of_int (in_widths g uid)))
    mem_suffix

(* Build the isolation harness: sources -> buffer -> unit -> buffer -> sink,
   synthesise, map, and measure the LUT level count. *)
let characterize g uid =
  let n = G.unit_node g uid in
  let kind = n.G.kind in
  let h = G.create "charact" in
  List.iter (fun (m, s) -> G.add_memory h m s) (G.memories g);
  let u = G.add_unit h ~width:n.G.width kind in
  let widths = Array.of_list (in_widths g uid) in
  let buf = Some { G.transparent = false; slots = 2 } in
  Array.iteri
    (fun p w ->
      let src = G.add_unit h ~width:w K.Source in
      let cid = G.connect h ~src ~src_port:0 ~dst:u ~dst_port:p in
      G.set_buffer h cid buf)
    (Array.init (K.in_arity kind) (fun p -> widths.(p)));
  for p = 0 to K.out_arity kind - 1 do
    let snk = G.add_unit h ~width:n.G.width K.Sink in
    let cid = G.connect h ~src:u ~src_port:p ~dst:snk ~dst_port:0 in
    G.set_buffer h cid buf
  done;
  let net = Elaborate.run h in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  float_of_int lg.Techmap.Lutgraph.max_level *. level_delay

(* The session's artifact cache makes characterisation harness runs
   survive across processes, --jobs domains and daemon requests. *)
let memo_delay cs key g uid =
  Cache.Session.memo cs ~kind:"unitdelay" ~key (fun () -> characterize g uid)

let unit_delay ?cache:(cs = Cache.Session.disabled) g uid = memo_delay cs (signature g uid) g uid

let build ?cache:(cs = Cache.Session.disabled) g =
  (* one graph repeats few signatures many times: characterise each
     once per build, ahead of the session memo *)
  let delays = Hashtbl.create 64 in
  let delay uid =
    let key = signature g uid in
    match Hashtbl.find_opt delays key with
    | Some d -> d
    | None ->
      let d = memo_delay cs key g uid in
      Hashtbl.add delays key d;
      d
  in
  let pairs = ref [] in
  let add src dst d = pairs := { Model.p_src = src; p_dst = dst; p_delay = d } :: !pairs in
  G.iter_units g (fun n ->
      let uid = n.G.uid in
      let d = delay uid in
      let ins = Array.to_list n.G.ins |> List.filter_map (fun c -> c) in
      let outs = Array.to_list n.G.outs |> List.filter_map (fun c -> c) in
      let sequential = K.latency n.G.kind > 0 || K.is_memory n.G.kind in
      (* forward: every input to every output at the unit's full delay *)
      List.iter
        (fun ci ->
          List.iter
            (fun co ->
              if sequential then begin
                add (Model.T_chan_fwd ci) Model.T_reg d;
                add Model.T_reg (Model.T_chan_fwd co) d
              end
              else add (Model.T_chan_fwd ci) (Model.T_chan_fwd co) d)
            outs)
        ins;
      (* backward (ready) direction *)
      List.iter
        (fun co ->
          List.iter
            (fun ci ->
              if sequential then begin
                add (Model.T_chan_bwd co) Model.T_reg d;
                add Model.T_reg (Model.T_chan_bwd ci) d
              end
              else add (Model.T_chan_bwd co) (Model.T_chan_bwd ci) d)
            ins)
        outs;
      (* handshake interaction inside the unit: one input's valid gates
         another input's ready (the implicit join) *)
      List.iter
        (fun ci ->
          List.iter
            (fun cj -> if ci <> cj then add (Model.T_chan_fwd ci) (Model.T_chan_bwd cj) d)
            ins)
        ins;
      (* path endpoints at the circuit boundary *)
      match n.G.kind with
      | K.Entry | K.Source ->
        List.iter
          (fun co ->
            add Model.T_reg (Model.T_chan_fwd co) d;
            add (Model.T_chan_bwd co) Model.T_reg d)
          outs
      | K.Exit | K.Sink ->
        List.iter
          (fun ci ->
            add (Model.T_chan_fwd ci) Model.T_reg d;
            add Model.T_reg (Model.T_chan_bwd ci) d)
          ins
      | _ -> ());
  {
    Model.pairs = !pairs;
    penalty = Array.make (G.n_channels g) 0.;
    fixed_reg_to_reg = 0.;
    delay_nodes = 0;
    fake_nodes = 0;
  }
