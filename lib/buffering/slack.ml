module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module A = Dataflow.Analysis

let channel_latency g (c : G.chan) =
  let unit_lat = K.latency (G.unit_node g c.G.src).G.kind in
  let buf_lat =
    match c.G.buffer with Some { G.transparent = false; _ } -> 1 | _ -> 0
  in
  unit_lat + buf_lat

(* most transparent slots one channel is padded with *)
let cap = 4

let compute g =
  let back = A.loop_back_edges g in
  let is_back = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace is_back c ()) back;
  (* longest registered latency from entries over the acyclic skeleton *)
  let n = G.n_units g in
  let depth = Array.make n 0 in
  let order = A.topo_order g in
  List.iter
    (fun u ->
      List.iter
        (fun (cid, v) ->
          if not (Hashtbl.mem is_back cid) then begin
            let c = G.channel g cid in
            let d = depth.(u) + channel_latency g c in
            if d > depth.(v) then depth.(v) <- d
          end)
        (G.succs g u))
    order;
  G.fold_channels g
    (fun acc c ->
      if Hashtbl.mem is_back c.G.cid || c.G.buffer <> None then acc
      else begin
        let slack = depth.(c.G.dst) - depth.(c.G.src) - channel_latency g c in
        if slack > 0 then (c.G.cid, min cap slack) :: acc else acc
      end)
    []
  |> List.rev

let apply g =
  let pads = compute g in
  List.iter
    (fun (cid, slots) -> G.set_buffer g cid (Some { G.transparent = true; slots }))
    pads;
  List.length pads
