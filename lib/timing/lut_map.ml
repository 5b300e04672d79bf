module G = Dataflow.Graph
module L = Techmap.Lutgraph

type node_kind =
  | Delay of { unit_id : int; delay : float; fake : bool }
  | Launch
  | Capture
  | Cross_fwd of G.channel_id
  | Cross_bwd of G.channel_id

type t = {
  kinds : node_kind array;
  succs : int list array;
  preds : int list array;
  launch : int;
  capture : int;
  n_real : int;
  n_fake : int;
  n_unmapped_edges : int;
}

(* BFS over the DFG that refuses to traverse opaque-buffered channels (a
   register is not a combinational through-path).  Returns the channel
   sequence of the fewest-units path — the paper's rule for ambiguous
   LUT edges. *)
let shortest_unbuffered g ~src ~dst =
  if src = dst then Some []
  else begin
    let n = G.n_units g in
    let prev = Array.make n None in
    let seen = Array.make n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (cid, w) ->
          let blocked =
            match G.buffer g cid with Some { G.transparent = false; _ } -> true | _ -> false
          in
          if (not blocked) && (not seen.(w)) && not !found then begin
            seen.(w) <- true;
            prev.(w) <- Some (cid, u);
            if w = dst then found := true else Queue.add w q
          end)
        (G.succs g u)
    done;
    if not !found then None
    else begin
      let rec rebuild v acc =
        match prev.(v) with None -> acc | Some (cid, u) -> rebuild u (cid :: acc)
      in
      Some (rebuild dst [])
    end
  end

type builder = {
  g : G.t;
  mutable kinds_rev : node_kind list;
  mutable n_nodes : int;
  mutable edges : (int * int) list;
  mutable n_real : int;
  mutable n_fake : int;
  mutable n_unmapped : int;
}

let new_node b kind =
  let id = b.n_nodes in
  b.n_nodes <- b.n_nodes + 1;
  b.kinds_rev <- kind :: b.kinds_rev;
  (match kind with
  | Delay { fake = false; _ } -> b.n_real <- b.n_real + 1
  | Delay { fake = true; _ } -> b.n_fake <- b.n_fake + 1
  | _ -> ());
  id

let add_edge b src dst = b.edges <- (src, dst) :: b.edges

(* All routing decorations are PRIVATE to the LUT edge being routed:
   sharing cross or fake nodes between LUT edges would splice unrelated
   paths together and can close cycles that do not exist in the (acyclic)
   LUT network.  The timing graph is therefore a subdivision of the LUT
   graph and provably acyclic; logically identical fake nodes are
   deduplicated later, when the penalty is computed. *)
let fake_node b u _cid ~bwd:_ = new_node b (Delay { unit_id = u; delay = 0.; fake = true })

let cross_fwd b cid = new_node b (Cross_fwd cid)
let cross_bwd b cid = new_node b (Cross_bwd cid)

(* Wire a forward path src_node --c1..ck--> dst_node.  Fake nodes are
   placed in the intermediate units (the paper puts one in "every
   dataflow node on the path"; the endpoint units already hold the real
   delay nodes). *)
let wire_fwd b src_node dst_node channels =
  let prev = ref src_node in
  let rec go = function
    | [] -> add_edge b !prev dst_node
    | [ cid ] ->
      let x = cross_fwd b cid in
      add_edge b !prev x;
      add_edge b x dst_node
    | cid :: (_ :: _ as rest) ->
      let x = cross_fwd b cid in
      add_edge b !prev x;
      let mid = (G.channel b.g cid).G.dst in
      let f = fake_node b mid cid ~bwd:false in
      add_edge b x f;
      prev := f;
      go rest
  in
  go channels

(* Backward (ready-direction) path: [channels] run from the unit of
   [dst_node] to the unit of [src_node] in DFG direction; the signal
   travels against them. *)
let wire_bwd b src_node dst_node channels =
  let prev = ref src_node in
  let rec go = function
    | [] -> add_edge b !prev dst_node
    | [ cid ] ->
      let x = cross_bwd b cid in
      add_edge b !prev x;
      add_edge b x dst_node
    | cid :: (_ :: _ as rest) ->
      let x = cross_bwd b cid in
      add_edge b !prev x;
      let mid = (G.channel b.g cid).G.src in
      let f = fake_node b mid cid ~bwd:true in
      add_edge b x f;
      prev := f;
      go rest
  in
  go (List.rev channels)

let build ?(lut_extra = fun _ -> 0.) g ~net (lg : L.t) =
  let b =
    {
      g;
      kinds_rev = [];
      n_nodes = 0;
      edges = [];
      n_real = 0;
      n_fake = 0;
      n_unmapped = 0;
    }
  in
  let launch = new_node b Launch in
  let capture = new_node b Capture in
  let lut_node =
    Array.map
      (fun (l : L.lut) ->
        new_node b
          (Delay
             { unit_id = l.L.owner; delay = L.level_delay +. lut_extra l.L.lid; fake = false }))
      lg.L.luts
  in
  let interaction = lazy (Elaborate.interaction_units g) in
  let route usrc udst src_node dst_node =
    if usrc = udst || usrc < 0 || udst < 0 then add_edge b src_node dst_node
    else
      match shortest_unbuffered g ~src:usrc ~dst:udst with
      | Some channels -> wire_fwd b src_node dst_node channels
      | None -> (
        match shortest_unbuffered g ~src:udst ~dst:usrc with
        | Some channels -> wire_bwd b src_node dst_node channels
        | None -> (
          (* §IV-D: route through the nearest domain-interaction unit *)
          let best = ref None in
          List.iter
            (fun w ->
              match
                (shortest_unbuffered g ~src:usrc ~dst:w, shortest_unbuffered g ~src:udst ~dst:w)
              with
              | Some p1, Some p2 -> (
                let cost = List.length p1 + List.length p2 in
                match !best with
                | Some (bc, _, _, _) when bc <= cost -> ()
                | _ -> best := Some (cost, w, p1, p2))
              | _ -> ())
            (Lazy.force interaction);
          match !best with
          | Some (_, w, p1, p2) ->
            let art = new_node b (Delay { unit_id = w; delay = 0.; fake = true }) in
            wire_fwd b src_node art p1;
            wire_bwd b art dst_node p2
          | None ->
            (* one LUT edge to no DFG path: direct artificial edge *)
            b.n_unmapped <- b.n_unmapped + 1;
            add_edge b src_node dst_node))
  in
  List.iter
    (fun { L.e_src; e_dst } ->
      let src_node = match e_src with L.Seq _ -> launch | L.Lut l -> lut_node.(l) in
      let dst_node = match e_dst with L.Seq _ -> capture | L.Lut l -> lut_node.(l) in
      let usrc = L.owner_of_endpoint lg net e_src in
      let udst = L.owner_of_endpoint lg net e_dst in
      route usrc udst src_node dst_node)
    lg.L.edges;
  let kinds = Array.of_list (List.rev b.kinds_rev) in
  let succs = Array.make b.n_nodes [] in
  let preds = Array.make b.n_nodes [] in
  List.iter
    (fun (s, d) ->
      succs.(s) <- d :: succs.(s);
      preds.(d) <- s :: preds.(d))
    b.edges;
  {
    kinds;
    succs;
    preds;
    launch;
    capture;
    n_real = b.n_real;
    n_fake = b.n_fake;
    n_unmapped_edges = b.n_unmapped;
  }
