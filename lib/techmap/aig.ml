type lit = int

type node = {
  f0 : lit;  (* -1 for CI and constant *)
  f1 : lit;
  owner : int;
  mutable dom : Net.domain;
}

type t = {
  nodes : node Support.Vec.t;
  strash : (int * int, int) Hashtbl.t;
  mutable out_list : (int * int * lit) list;  (* (index, tag, lit), reversed *)
  mutable n_cos : int;
}

let lit_false = 0
let lit_true = 1

let node_of_lit l = l lsr 1
let is_complement l = l land 1 = 1
let mk_lit n c = (n lsl 1) lor (if c then 1 else 0)

let create () =
  let t = { nodes = Support.Vec.create (); strash = Hashtbl.create 1024; out_list = []; n_cos = 0 } in
  (* node 0: constant false *)
  ignore (Support.Vec.push t.nodes { f0 = -1; f1 = -1; owner = -1; dom = Net.Data });
  t

let n_nodes t = Support.Vec.length t.nodes

let ci t ~owner ~dom =
  let id = Support.Vec.push t.nodes { f0 = -1; f1 = -1; owner; dom } in
  mk_lit id false

let bnot l = l lxor 1

let join_dom a b = if a = b then a else Net.Mixed

let band t ~owner a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = bnot b then lit_false
  else
    match Hashtbl.find_opt t.strash (a, b) with
    | Some id -> mk_lit id false
    | None ->
      let da = (Support.Vec.get t.nodes (node_of_lit a)).dom in
      let db = (Support.Vec.get t.nodes (node_of_lit b)).dom in
      let id = Support.Vec.push t.nodes { f0 = a; f1 = b; owner; dom = join_dom da db } in
      Hashtbl.replace t.strash (a, b) id;
      mk_lit id false

let bor t ~owner a b = bnot (band t ~owner (bnot a) (bnot b))

let bxor t ~owner a b =
  let p = band t ~owner a (bnot b) in
  let q = band t ~owner (bnot a) b in
  bor t ~owner p q

let add_co t ~owner ~tag l =
  ignore owner;
  t.out_list <- (t.n_cos, tag, l) :: t.out_list;
  t.n_cos <- t.n_cos + 1

let cos t = List.rev t.out_list

let is_ci t n = n > 0 && (Support.Vec.get t.nodes n).f0 = -1

let fanins t n =
  let nd = Support.Vec.get t.nodes n in
  if nd.f0 = -1 then invalid_arg "Aig.fanins: CI or constant";
  (nd.f0, nd.f1)

let owner t n = (Support.Vec.get t.nodes n).owner
let dom t n = (Support.Vec.get t.nodes n).dom

let depth t =
  let n = n_nodes t in
  let d = Array.make n 0 in
  let maxd = ref 0 in
  for i = 1 to n - 1 do
    if not (is_ci t i) then begin
      let f0, f1 = fanins t i in
      d.(i) <- 1 + max d.(node_of_lit f0) d.(node_of_lit f1);
      if d.(i) > !maxd then maxd := d.(i)
    end
  done;
  !maxd
