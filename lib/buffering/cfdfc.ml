module G = Dataflow.Graph
module A = Dataflow.Analysis

type t = {
  units : G.unit_id list;
  channels : G.channel_id list;
  back_edges : G.channel_id list;
  cycles : G.channel_id list list;
  truncated : bool;
}

let extract ?(cycle_limit = 256) g =
  let sccs = A.cyclic_sccs g in
  let back = A.loop_back_edges g in
  let all_cycles, truncated = A.simple_cycles_capped ~limit:cycle_limit g in
  List.map
    (fun units ->
      let in_scc = Hashtbl.create 16 in
      List.iter (fun u -> Hashtbl.replace in_scc u ()) units;
      let channels =
        G.fold_channels g
          (fun acc c ->
            if Hashtbl.mem in_scc c.G.src && Hashtbl.mem in_scc c.G.dst then c.G.cid :: acc
            else acc)
          []
        |> List.rev
      in
      let chan_set = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace chan_set c ()) channels;
      let back_edges = List.filter (Hashtbl.mem chan_set) back in
      let cycles =
        List.filter (fun cyc -> List.for_all (Hashtbl.mem chan_set) cyc) all_cycles
      in
      { units; channels; back_edges; cycles; truncated })
    sccs
