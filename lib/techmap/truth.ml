module L = Lutgraph

(* [projection.(i)] is leaf i's column of the 64-row truth table: bit j
   holds bit i of j, so one word evaluation of a cone computes its
   whole table. *)
let projection =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let lut_table (lg : L.t) lid =
  let aig = lg.L.synth.Synth.aig in
  let lut = lg.L.luts.(lid) in
  let k = Array.length lut.L.leaves in
  if k > 6 then invalid_arg "Truth.lut_table: more than 6 leaves";
  (* a duplicated leaf reads its last index; -1 off the leaves *)
  let leaf_index node =
    let rec find i = if i < 0 || lut.L.leaves.(i) = node then i else find (i - 1) in
    find (k - 1)
  in
  let mask = if k = 6 then -1L else Int64.pred (Int64.shift_left 1L (1 lsl k)) in
  (* one pass over the cone, stopping at leaves; a CI inside the cone
     (which should have been a leaf) reads 0 and is recorded *)
  let memo = Hashtbl.create 16 in
  let stray_cis = ref [] in
  let lit_word w lit = if Aig.is_complement lit then Int64.lognot w else w in
  let rec word node =
    match leaf_index node with
    | -1 -> (
      match Hashtbl.find_opt memo node with
      | Some w -> w
      | None ->
        let w =
          if node = 0 then 0L
          else if Aig.is_ci aig node then begin
            stray_cis := node :: !stray_cis;
            0L
          end
          else
            let f0, f1 = Aig.fanins aig node in
            Int64.logand
              (lit_word (word (Aig.node_of_lit f0)) f0)
              (lit_word (word (Aig.node_of_lit f1)) f1)
        in
        Hashtbl.replace memo node w;
        w)
    | i -> projection.(i)
  in
  let table = Int64.logand (word lut.L.root) mask in
  (* A stray CI is an error only under an assignment whose evaluation
     reads it, with an AND reading its second fanin only where the first
     is true. Where no assignment reads one, the table above is exact. *)
  if !stray_cis <> [] then begin
    let reach = Hashtbl.create 16 in
    let reach_of node = Option.value (Hashtbl.find_opt reach node) ~default:0L in
    let add node lanes =
      if leaf_index node = -1 then
        Hashtbl.replace reach node (Int64.logor (reach_of node) lanes)
    in
    add lut.L.root mask;
    (* fanins have lower ids: descending id order visits users first *)
    Hashtbl.fold (fun node _ acc -> node :: acc) memo []
    |> List.sort (fun a b -> compare b a)
    |> List.iter (fun node ->
           let r = reach_of node in
           if r <> 0L && node <> 0 && not (Aig.is_ci aig node) then begin
             let f0, f1 = Aig.fanins aig node in
             let n0 = Aig.node_of_lit f0 in
             add n0 r;
             add (Aig.node_of_lit f1) (Int64.logand r (lit_word (word n0) f0))
           end);
    if List.exists (fun ci -> reach_of ci <> 0L) !stray_cis then
      invalid_arg "Truth.lut_table: CI not in leaves"
  end;
  table
