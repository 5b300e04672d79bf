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

let ff t ~owner ~dom ?(init = false) () =
  let id = add t (Ff init) [| -1 |] owner dom in
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

(* ------------------------------------------------------------------ *)
(* Simulation *)

type sim = {
  net : t;
  values : bool array;       (* current combinational values *)
  state : bool array;        (* FF outputs, indexed by gate id *)
  in_values : (string, bool) Hashtbl.t;
}

let sim_create net =
  let n = n_gates net in
  let s =
    { net; values = Array.make n false; state = Array.make n false; in_values = Hashtbl.create 16 }
  in
  List.iter
    (fun id -> match (gate net id).kind with Ff init -> s.state.(id) <- init | _ -> ())
    (ffs net);
  s

let sim_set_input s nm v = Hashtbl.replace s.in_values nm v

let eval_gate s g =
  let v i = s.values.(i) in
  match g.kind with
  | Input nm -> (try Hashtbl.find s.in_values nm with Not_found -> false)
  | Const b -> b
  | Buf | Output _ -> v g.fanins.(0)
  | Not -> not (v g.fanins.(0))
  | And2 -> v g.fanins.(0) && v g.fanins.(1)
  | Or2 -> v g.fanins.(0) || v g.fanins.(1)
  | Xor2 -> v g.fanins.(0) <> v g.fanins.(1)
  | Ff _ -> s.state.(g.id)

let sim_eval s =
  let n = n_gates s.net in
  let changed = ref true in
  let iters = ref 0 in
  while !changed do
    changed := false;
    incr iters;
    if !iters > n + 2 then failwith "Net.sim_eval: combinational cycle";
    iter s.net (fun g ->
        let nv = eval_gate s g in
        if nv <> s.values.(g.id) then begin
          s.values.(g.id) <- nv;
          changed := true
        end)
  done

let sim_get_output s nm =
  let rec find = function
    | [] -> invalid_arg ("Netlist.sim_get_output: no output " ^ nm)
    | id :: rest -> (
      match (gate s.net id).kind with Output n when n = nm -> s.values.(id) | _ -> find rest)
  in
  find (outputs s.net)

let sim_step s =
  let latched =
    List.map (fun id -> (id, s.values.((gate s.net id).fanins.(0)))) (ffs s.net)
  in
  List.iter (fun (id, v) -> s.state.(id) <- v) latched
