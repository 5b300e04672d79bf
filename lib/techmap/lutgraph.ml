type lut = {
  lid : int;
  root : int;
  leaves : int array;
  owner : int;
  dom : Net.domain;
  cone_size : int;
}

type endpoint = Lut of int | Seq of int

type edge = { e_src : endpoint; e_dst : endpoint }

type t = {
  synth : Synth.t;
  luts : lut array;
  lut_of_node : int array;
  edges : edge list;
  levels : int array;
  max_level : int;
}

let lut_k = 6
let level_delay = 0.7

let n_luts t = Array.length t.luts

let lut_edges t =
  List.filter_map
    (fun e -> match (e.e_src, e.e_dst) with Lut a, Lut b -> Some (a, b) | _ -> None)
    t.edges

let owner_of_endpoint t net = function
  | Lut l -> t.luts.(l).owner
  | Seq g -> (Net.gate net g).Net.owner

let luts_of_unit t u = Array.to_list t.luts |> List.filter (fun l -> l.owner = u)
