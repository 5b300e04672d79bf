module G = Dataflow.Graph

let node_delay kinds n =
  match kinds.(n) with Lut_map.Delay { delay; _ } -> delay | _ -> 0.

let is_stop kinds n =
  match kinds.(n) with
  | Lut_map.Cross_fwd _ | Lut_map.Cross_bwd _ | Lut_map.Capture -> true
  | Lut_map.Delay _ | Lut_map.Launch -> false

let terminal_of kinds n =
  match kinds.(n) with
  | Lut_map.Launch | Lut_map.Capture -> Model.T_reg
  | Lut_map.Cross_fwd c -> Model.T_chan_fwd c
  | Lut_map.Cross_bwd c -> Model.T_chan_bwd c
  | Lut_map.Delay _ -> invalid_arg "terminal_of: delay node"

let run (tg : Lut_map.t) g =
  let kinds = tg.Lut_map.kinds in
  let n = Array.length kinds in
  let order =
    match Support.Digraph.topo tg.Lut_map.succs with
    | order, [] -> order
    | _ -> failwith "Generate.run: cyclic timing graph (unbuffered combinational cycle)"
  in
  (* Sources are terminal CLASSES: the merged register launch, and every
     (channel, direction) crossing class — cross nodes are private per
     LUT edge, so a class seeds all its member nodes at once. *)
  let members : (Model.terminal, int list) Hashtbl.t = Hashtbl.create 64 in
  let note term node =
    Hashtbl.replace members term (node :: Option.value (Hashtbl.find_opt members term) ~default:[])
  in
  note Model.T_reg tg.Lut_map.launch;
  Array.iteri
    (fun i k ->
      match k with
      | Lut_map.Cross_fwd c -> note (Model.T_chan_fwd c) i
      | Lut_map.Cross_bwd c -> note (Model.T_chan_bwd c) i
      | _ -> ())
    kinds;
  let neg = neg_infinity in
  let dist = Array.make n neg in
  let pairs = ref [] in
  Hashtbl.iter
    (fun src_term seeds ->
      Array.fill dist 0 n neg;
      List.iter (fun s -> dist.(s) <- 0.) seeds;
      let seed_set = Hashtbl.create 8 in
      List.iter (fun s -> Hashtbl.replace seed_set s ()) seeds;
      Array.iter
        (fun u ->
          if dist.(u) > neg && ((not (is_stop kinds u)) || Hashtbl.mem seed_set u) then
            List.iter
              (fun v ->
                let cand = dist.(u) +. node_delay kinds v in
                if cand > dist.(v) then dist.(v) <- cand)
              tg.Lut_map.succs.(u))
        order;
      (* collect the best distance per destination class *)
      let best : (Model.terminal, float) Hashtbl.t = Hashtbl.create 16 in
      for t = 0 to n - 1 do
        if dist.(t) > neg && (not (Hashtbl.mem seed_set t)) && is_stop kinds t then begin
          let term = terminal_of kinds t in
          let cur = Option.value (Hashtbl.find_opt best term) ~default:neg in
          if dist.(t) > cur then Hashtbl.replace best term dist.(t)
        end
      done;
      Hashtbl.iter
        (fun dst_term d ->
          pairs := { Model.p_src = src_term; p_dst = dst_term; p_delay = d } :: !pairs)
        best)
    members;
  let fixed =
    List.fold_left
      (fun acc p ->
        match (p.Model.p_src, p.Model.p_dst) with
        | Model.T_reg, Model.T_reg -> max acc p.Model.p_delay
        | _ -> acc)
      0. !pairs
  in
  (* ---- penalties (Eq. 2), on logically deduplicated fake nodes ---- *)
  let n_chan = G.n_channels g in
  (* distinct (unit, channel, dir) fake keys, and real LUT counts *)
  let fake_keys = Hashtbl.create 64 in
  let real_per_unit = Hashtbl.create 32 in
  Array.iteri
    (fun i k ->
      match k with
      | Lut_map.Delay { unit_id; fake = false; _ } ->
        Hashtbl.replace real_per_unit unit_id
          (1 + Option.value (Hashtbl.find_opt real_per_unit unit_id) ~default:0)
      | Lut_map.Delay { unit_id; fake = true; _ } ->
        List.iter
          (fun v ->
            match kinds.(v) with
            | Lut_map.Cross_fwd c -> Hashtbl.replace fake_keys (unit_id, c, false) ()
            | _ -> ())
          tg.Lut_map.succs.(i);
        List.iter
          (fun v ->
            match kinds.(v) with
            | Lut_map.Cross_bwd c -> Hashtbl.replace fake_keys (unit_id, c, true) ()
            | _ -> ())
          tg.Lut_map.preds.(i)
      | _ -> ())
    kinds;
  let fakes_per_unit = Hashtbl.create 32 in
  let fakes_per_chan = Array.make n_chan 0 in
  Hashtbl.iter
    (fun (u, c, _) () ->
      Hashtbl.replace fakes_per_unit u (1 + Option.value (Hashtbl.find_opt fakes_per_unit u) ~default:0);
      if (G.channel g c).G.src = u then fakes_per_chan.(c) <- fakes_per_chan.(c) + 1)
    fake_keys;
  let penalty =
    Array.init n_chan (fun c ->
        let u = (G.channel g c).G.src in
        let total =
          Option.value (Hashtbl.find_opt real_per_unit u) ~default:0
          + Option.value (Hashtbl.find_opt fakes_per_unit u) ~default:0
        in
        if total = 0 then 0. else float_of_int fakes_per_chan.(c) /. float_of_int total)
  in
  {
    Model.pairs = !pairs;
    penalty;
    fixed_reg_to_reg = fixed;
    delay_nodes = tg.Lut_map.n_real;
    fake_nodes = Hashtbl.length fake_keys;
  }
