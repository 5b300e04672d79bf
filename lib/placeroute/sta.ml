module L = Techmap.Lutgraph

type report = {
  cp : float;
  logic_levels : int;
  n_luts : int;
  n_ffs : int;
  wirelength : int;
  critical_path : int list;
}

let run net (lg : L.t) (pl : Place.t) =
  (* arrival time per LUT, processed in AIG-root order (topological) *)
  let n = L.n_luts lg in
  let arrival = Array.make n 0. in
  let pred = Array.make n (-1) in
  let in_edges = Array.make n [] in
  let cap_edges = ref [] in
  List.iter
    (fun { L.e_src; e_dst } ->
      match e_dst with
      | L.Lut l -> in_edges.(l) <- e_src :: in_edges.(l)
      | L.Seq _ -> cap_edges := (e_src, e_dst) :: !cap_edges)
    lg.L.edges;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare lg.L.luts.(a).L.root lg.L.luts.(b).L.root) order;
  let item = Place.item_of_endpoint in
  let cp = ref 0. in
  let cp_end = ref (-1) in
  Array.iter
    (fun l ->
      let t = ref 0. in
      List.iter
        (fun src ->
          let w = Arch.wire_delay (Place.distance pl (item src) (item (L.Lut l))) in
          let base = match src with L.Lut s -> arrival.(s) | L.Seq _ -> 0. in
          if base +. w > !t then begin
            t := base +. w;
            pred.(l) <- (match src with L.Lut s -> s | L.Seq _ -> -1)
          end)
        in_edges.(l);
      arrival.(l) <- !t +. Techmap.Lutgraph.level_delay;
      if arrival.(l) > !cp then begin
        cp := arrival.(l);
        cp_end := l
      end)
    order;
  List.iter
    (fun (src, dst) ->
      let w = Arch.wire_delay (Place.distance pl (item src) (item dst)) in
      let base = match src with L.Lut s -> arrival.(s) | L.Seq _ -> 0. in
      if base +. w > !cp then begin
        cp := base +. w;
        cp_end := (match src with L.Lut s -> s | L.Seq _ -> -1)
      end)
    !cap_edges;
  let critical_path =
    let rec walk l acc = if l < 0 then acc else walk pred.(l) (l :: acc) in
    walk !cp_end []
  in
  {
    cp = !cp;
    logic_levels = lg.L.max_level;
    n_luts = n;
    n_ffs = Net.count_ffs net;
    wirelength = pl.Place.wirelength;
    critical_path;
  }

let analyze ?seed ?effort net lg =
  Support.Trace.with_span ~cat:"placeroute" "placeroute:sta" @@ fun () ->
  let pl =
    Support.Trace.with_span ~cat:"placeroute" "placeroute:place" (fun () ->
        Place.run ?seed ?effort net lg)
  in
  run net lg pl

let pp_critical_path fmt g (lg : L.t) report =
  Format.fprintf fmt "critical path (%.2f ns, %d LUTs):@\n" report.cp
    (List.length report.critical_path);
  List.iter
    (fun l ->
      let owner = lg.L.luts.(l).L.owner in
      let label =
        if owner >= 0 && owner < Dataflow.Graph.n_units g then
          (Dataflow.Graph.unit_node g owner).Dataflow.Graph.label
        else "<io>"
      in
      Format.fprintf fmt "  lut%-5d in %s@\n" l label)
    report.critical_path