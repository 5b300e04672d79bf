module L = Techmap.Lutgraph

type item = It_lut of int | It_seq of int

type t = {
  side : int;
  pos : (item, int * int) Hashtbl.t;
  wirelength : int;
}

let distance t a b =
  let xa, ya = Hashtbl.find t.pos a in
  let xb, yb = Hashtbl.find t.pos b in
  abs (xa - xb) + abs (ya - yb)

let item_of_endpoint = function L.Lut l -> It_lut l | L.Seq gid -> It_seq gid

let run ?(seed = 1) ?(effort = 1.0) net (lg : L.t) =
  let rng = Support.Rng.create seed in
  (* ---- collect items ---- *)
  let seq_items = Hashtbl.create 64 in
  List.iter
    (fun { L.e_src; e_dst } ->
      (match e_src with L.Seq gid -> Hashtbl.replace seq_items gid () | L.Lut _ -> ());
      match e_dst with L.Seq gid -> Hashtbl.replace seq_items gid () | L.Lut _ -> ())
    lg.L.edges;
  let items =
    Array.append
      (Array.init (L.n_luts lg) (fun l -> It_lut l))
      (Array.of_list (Hashtbl.fold (fun gid () acc -> It_seq gid :: acc) seq_items []))
  in
  (* group same-unit items for a reasonable initial placement *)
  let owner_of = function
    | It_lut l -> lg.L.luts.(l).L.owner
    | It_seq gid -> (Net.gate net gid).Net.owner
  in
  Array.sort (fun a b -> compare (owner_of a, a) (owner_of b, b)) items;
  let n = Array.length items in
  let side = Arch.grid_side n in
  (* ---- dense ids: item i of [items] sits at (px.(i), py.(i)); each
     grid cell holds an item id or -1 ---- *)
  let lut_id = Array.make (L.n_luts lg) 0 in
  let seq_id = Hashtbl.create 64 in
  Array.iteri
    (fun i it -> match it with It_lut l -> lut_id.(l) <- i | It_seq gid -> Hashtbl.replace seq_id gid i)
    items;
  let id_of = function L.Lut l -> lut_id.(l) | L.Seq gid -> Hashtbl.find seq_id gid in
  let px = Array.init n (fun i -> i mod side) in
  let py = Array.init n (fun i -> i / side) in
  let loc_of = Array.make (side * side) (-1) in
  Array.iteri (fun i _ -> loc_of.(i) <- i) items;
  (* ---- incidence over LUT-graph edges, as int arrays ---- *)
  let edges =
    List.filter_map
      (fun { L.e_src; e_dst } ->
        let a = id_of e_src and b = id_of e_dst in
        if a <> b then Some (a, b) else None)
      lg.L.edges
    |> Array.of_list
  in
  let n_edges = Array.length edges in
  let ea = Array.map fst edges and eb = Array.map snd edges in
  let incident = Array.make n [] in
  Array.iteri
    (fun ei (a, b) ->
      incident.(a) <- ei :: incident.(a);
      incident.(b) <- ei :: incident.(b))
    edges;
  let incident = Array.map Array.of_list incident in
  let edge_len ei =
    let a = ea.(ei) and b = eb.(ei) in
    abs (px.(a) - px.(b)) + abs (py.(a) - py.(b))
  in
  let cost = ref 0 in
  for ei = 0 to n_edges - 1 do
    cost := !cost + edge_len ei
  done;
  (* the edges a move touches, deduplicated by stamping each with the
     move number *)
  let stamp = Array.make n_edges 0 in
  let involved = Array.make n_edges 0 in
  let n_involved = ref 0 in
  let involve move i =
    let inc = incident.(i) in
    for k = 0 to Array.length inc - 1 do
      let ei = inc.(k) in
      if stamp.(ei) <> move then begin
        stamp.(ei) <- move;
        involved.(!n_involved) <- ei;
        incr n_involved
      end
    done
  in
  let involved_len () =
    let s = ref 0 in
    for k = 0 to !n_involved - 1 do
      s := !s + edge_len involved.(k)
    done;
    !s
  in
  (* ---- annealing ---- *)
  let moves = int_of_float (effort *. float_of_int (max 1 (40 * n))) in
  let temp = ref (4.0 +. (float_of_int !cost /. float_of_int (max 1 n))) in
  let cooling = exp (log (0.01 /. !temp) /. float_of_int (max 1 moves)) in
  for move = 1 to moves do
    (* pick an item and a random target location; swap occupants *)
    let it = Support.Rng.int rng n in
    let tx = Support.Rng.int rng side and ty = Support.Rng.int rng side in
    let x0 = px.(it) and y0 = py.(it) in
    if tx <> x0 || ty <> y0 then begin
      let other = loc_of.((ty * side) + tx) in
      n_involved := 0;
      involve move it;
      if other >= 0 then involve move other;
      let before = involved_len () in
      px.(it) <- tx;
      py.(it) <- ty;
      if other >= 0 then begin
        px.(other) <- x0;
        py.(other) <- y0
      end;
      let delta = involved_len () - before in
      let accept =
        delta <= 0 || Support.Rng.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if accept then begin
        loc_of.((ty * side) + tx) <- it;
        loc_of.((y0 * side) + x0) <- other;
        cost := !cost + delta
      end
      else begin
        (* undo *)
        px.(it) <- x0;
        py.(it) <- y0;
        if other >= 0 then begin
          px.(other) <- tx;
          py.(other) <- ty
        end
      end
    end;
    temp := !temp *. cooling
  done;
  let pos = Hashtbl.create (2 * n) in
  Array.iteri (fun i it -> Hashtbl.replace pos it (px.(i), py.(i))) items;
  { side; pos; wirelength = !cost }
