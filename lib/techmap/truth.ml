module L = Lutgraph

let lut_table (lg : L.t) lid =
  let aig = lg.L.synth.Synth.aig in
  let lut = lg.L.luts.(lid) in
  let k = Array.length lut.L.leaves in
  if k > 6 then invalid_arg "Truth.lut_table: more than 6 leaves";
  let leaf_index = Hashtbl.create 8 in
  Array.iteri (fun i leaf -> Hashtbl.replace leaf_index leaf i) lut.L.leaves;
  let table = ref 0L in
  for assignment = 0 to (1 lsl k) - 1 do
    (* evaluate the cone with memoisation, stopping at leaves *)
    let memo = Hashtbl.create 16 in
    let rec value node =
      match Hashtbl.find_opt leaf_index node with
      | Some i -> (assignment lsr i) land 1 = 1
      | None -> (
        match Hashtbl.find_opt memo node with
        | Some v -> v
        | None ->
          let v =
            if node = 0 then false
            else if Aig.is_ci aig node then
              (* a CI inside the cone would have been a leaf *)
              invalid_arg "Truth.lut_table: CI not in leaves"
            else begin
              let f0, f1 = Aig.fanins aig node in
              let lv l = value (Aig.node_of_lit l) <> Aig.is_complement l in
              lv f0 && lv f1
            end
          in
          Hashtbl.replace memo node v;
          v
      )
    in
    if value lut.L.root then table := Int64.logor !table (Int64.shift_left 1L assignment)
  done;
  !table
