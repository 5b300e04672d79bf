type domain = Data | Valid | Ready | Mixed

type kind =
  | Input of string
  | Output of string
  | Const of bool
  | Buf
  | Not
  | And2
  | Or2
  | Xor2
  | Ff of bool

type gate = {
  id : int;
  kind : kind;
  mutable fanins : int array;
  owner : int;
  mutable dom : domain;
}

type t = {
  nname : string;
  gates : gate Support.Vec.t;
  mutable ins : int list;
  mutable outs : int list;
  mutable regs : int list;
}

let create nname = { nname; gates = Support.Vec.create (); ins = []; outs = []; regs = [] }

let name t = t.nname
let n_gates t = Support.Vec.length t.gates
let gate t i = Support.Vec.get t.gates i
let iter t f = Support.Vec.iter f t.gates

let add t kind fanins owner dom =
  let id = Support.Vec.length t.gates in
  ignore (Support.Vec.push t.gates { id; kind; fanins; owner; dom });
  id

let join_dom a b = if a = b then a else Mixed

let dom_of t i = (gate t i).dom

let input t ~owner ~dom nm =
  let id = add t (Input nm) [||] owner dom in
  t.ins <- id :: t.ins;
  id

let output t ~owner nm src =
  let id = add t (Output nm) [| src |] owner (dom_of t src) in
  t.outs <- id :: t.outs;
  id

let const t ~owner ~dom b = add t (Const b) [||] owner dom

let wire t ~owner ~dom = add t Buf [| -1 |] owner dom

let connect t w src =
  let g = gate t w in
  (match g.kind with
  | Buf | Output _ | Ff _ -> ()
  | _ -> invalid_arg "Netlist.connect: not a wire, output or ff");
  if g.fanins.(0) <> -1 then invalid_arg "Netlist.connect: already connected";
  g.fanins.(0) <- src

let not_ t ~owner a = add t Not [| a |] owner (dom_of t a)
let and2 t ~owner a b = add t And2 [| a; b |] owner (join_dom (dom_of t a) (dom_of t b))
let or2 t ~owner a b = add t Or2 [| a; b |] owner (join_dom (dom_of t a) (dom_of t b))
let xor2 t ~owner a b = add t Xor2 [| a; b |] owner (join_dom (dom_of t a) (dom_of t b))

let mux2 t ~owner ~sel a b =
  let ns = not_ t ~owner sel in
  let ta = and2 t ~owner sel a in
  let fb = and2 t ~owner ns b in
  or2 t ~owner ta fb

let rec tree f = function
  | [] -> invalid_arg "tree: empty"
  | [ x ] -> x
  | xs ->
    let rec pair = function
      | a :: b :: rest -> f a b :: pair rest
      | [ a ] -> [ a ]
      | [] -> []
    in
    tree f (pair xs)

let and_list t ~owner ~dom = function
  | [] -> const t ~owner ~dom true
  | xs -> tree (fun a b -> and2 t ~owner a b) xs

let or_list t ~owner ~dom = function
  | [] -> const t ~owner ~dom false
  | xs -> tree (fun a b -> or2 t ~owner a b) xs

let ff t ~owner ~dom =
  let id = add t (Ff false) [| -1 |] owner dom in
  t.regs <- id :: t.regs;
  id

let clone_map_kind t f =
  let t' = { nname = t.nname; gates = Support.Vec.create (); ins = t.ins; outs = t.outs; regs = t.regs } in
  iter t (fun g ->
      let kind = f g in
      ignore
        (Support.Vec.push t'.gates
           { id = g.id; kind; fanins = Array.copy g.fanins; owner = g.owner; dom = g.dom }));
  t'

let inputs t = List.rev t.ins
let outputs t = List.rev t.outs
let ffs t = List.rev t.regs

let count_ffs t = List.length t.regs

let validate t =
  let errors = ref [] in
  iter t (fun g ->
      let expect =
        match g.kind with
        | Input _ | Const _ -> 0
        | Output _ | Buf | Not | Ff _ -> 1
        | And2 | Or2 | Xor2 -> 2
      in
      if Array.length g.fanins <> expect then
        errors := Printf.sprintf "gate %d: arity %d, expected %d" g.id (Array.length g.fanins) expect :: !errors;
      Array.iter
        (fun f ->
          if f < 0 || f >= n_gates t then
            errors := Printf.sprintf "gate %d: unconnected or bad fanin" g.id :: !errors)
        g.fanins);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
