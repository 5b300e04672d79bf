(* The simulated-annealing placer as it was before positions moved to
   dense int arrays, kept verbatim as a differential-testing oracle. It
   draws the same random numbers and computes the same integer deltas,
   so every position and the wirelength must match Placeroute.Place.
   Nothing on the production path calls it. *)

module L = Techmap.Lutgraph
module Arch = Placeroute.Arch

type item = Placeroute.Place.item = It_lut of int | It_seq of int

type t = Placeroute.Place.t = {
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
  let pos = Hashtbl.create (2 * n) in
  let loc_of = Array.make (side * side) None in
  Array.iteri
    (fun i it ->
      let x = i mod side and y = i / side in
      Hashtbl.replace pos it (x, y);
      loc_of.((y * side) + x) <- Some it)
    items;
  (* ---- incidence lists over LUT-graph edges ---- *)
  let edges =
    List.map (fun { L.e_src; e_dst } -> (item_of_endpoint e_src, item_of_endpoint e_dst)) lg.L.edges
    |> List.filter (fun (a, b) -> a <> b)
    |> Array.of_list
  in
  let incident = Hashtbl.create (2 * n) in
  Array.iteri
    (fun ei (a, b) ->
      Hashtbl.replace incident a (ei :: Option.value (Hashtbl.find_opt incident a) ~default:[]);
      Hashtbl.replace incident b (ei :: Option.value (Hashtbl.find_opt incident b) ~default:[]))
    edges;
  let t = { side; pos; wirelength = 0 } in
  let edge_len ei =
    let a, b = edges.(ei) in
    distance t a b
  in
  let total_len () = Array.fold_left ( + ) 0 (Array.init (Array.length edges) edge_len) in
  let cost = ref (total_len ()) in
  (* ---- annealing ---- *)
  let moves = int_of_float (effort *. float_of_int (max 1 (40 * n))) in
  let temp = ref (4.0 +. (float_of_int !cost /. float_of_int (max 1 n))) in
  let cooling = exp (log (0.01 /. !temp) /. float_of_int (max 1 moves)) in
  for _ = 1 to moves do
    (* pick an item and a random target location; swap occupants *)
    let it = items.(Support.Rng.int rng n) in
    let tx = Support.Rng.int rng side and ty = Support.Rng.int rng side in
    let x0, y0 = Hashtbl.find pos it in
    if (tx, ty) <> (x0, y0) then begin
      let other = loc_of.((ty * side) + tx) in
      let involved =
        Option.value (Hashtbl.find_opt incident it) ~default:[]
        @ (match other with
          | Some o -> Option.value (Hashtbl.find_opt incident o) ~default:[]
          | None -> [])
        |> List.sort_uniq compare
      in
      let before = List.fold_left (fun acc ei -> acc + edge_len ei) 0 involved in
      Hashtbl.replace pos it (tx, ty);
      (match other with Some o -> Hashtbl.replace pos o (x0, y0) | None -> ());
      let after = List.fold_left (fun acc ei -> acc + edge_len ei) 0 involved in
      let delta = after - before in
      let accept =
        delta <= 0 || Support.Rng.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if accept then begin
        loc_of.((ty * side) + tx) <- Some it;
        loc_of.((y0 * side) + x0) <- other;
        cost := !cost + delta
      end
      else begin
        (* undo *)
        Hashtbl.replace pos it (x0, y0);
        match other with Some o -> Hashtbl.replace pos o (tx, ty) | None -> ()
      end
    end;
    temp := !temp *. cooling
  done;
  { t with wirelength = !cost }
