module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops

type value = { u : G.unit_id; port : int }

type builder = {
  g : G.t;
  mutable pending : (value * (G.unit_id * int)) list;
  mutable bb : int;
  width : int;
  mutable back_ports : (G.unit_id * int) list;  (* loop-header back inputs *)
}

let fresh_bb b =
  b.bb <- b.bb + 1;
  b.bb

let unit_ b ?label ?width kind =
  let width = Option.value width ~default:b.width in
  G.add_unit b.g ?label ~bb:b.bb ~width kind

let use b v ~dst ~port = b.pending <- (v, (dst, port)) :: b.pending

let value_width b v = (G.unit_node b.g v.u).G.width

(* environment: sorted assoc list variable -> value *)
let env_set env name v = (name, v) :: List.remove_assoc name env

let env_get env name =
  match List.assoc_opt name env with
  | Some v -> v
  | None -> invalid_arg ("Compile: unbound variable " ^ name)

let ctrl_key = "@ctrl"
let mem_key a = "@mem_" ^ a

(* ------------------------------------------------------------------ *)
(* liveness / memory-access analysis over the AST *)

module Sset = Set.Make (String)

type usage = {
  scalars : Sset.t;        (* scalar variables read or assigned *)
  loaded : Sset.t;         (* arrays loaded *)
  stored : Sset.t;         (* arrays stored *)
}

let usage_empty = { scalars = Sset.empty; loaded = Sset.empty; stored = Sset.empty }

let usage_union a b =
  {
    scalars = Sset.union a.scalars b.scalars;
    loaded = Sset.union a.loaded b.loaded;
    stored = Sset.union a.stored b.stored;
  }

let rec expr_usage e =
  match e with
  | Ast.Int _ -> usage_empty
  | Ast.Var x -> { usage_empty with scalars = Sset.singleton x }
  | Ast.Load (a, idx) -> usage_union { usage_empty with loaded = Sset.singleton a } (expr_usage idx)
  | Ast.Not e -> expr_usage e
  | Ast.Binop (_, x, y) -> usage_union (expr_usage x) (expr_usage y)
  | Ast.Ternary (c, a, b) ->
    usage_union (expr_usage c) (usage_union (expr_usage a) (expr_usage b))

let rec stmt_usage s =
  match s with
  | Ast.Decl (x, e) | Ast.Assign (x, e) ->
    usage_union { usage_empty with scalars = Sset.singleton x } (expr_usage e)
  | Ast.Store (a, idx, e) ->
    usage_union
      { usage_empty with stored = Sset.singleton a }
      (usage_union (expr_usage idx) (expr_usage e))
  | Ast.If (c, t, f) -> usage_union (expr_usage c) (usage_union (stmts_usage t) (stmts_usage f))
  | Ast.While (c, body) -> usage_union (expr_usage c) (stmts_usage body)
  | Ast.For (i, c, st, body) ->
    usage_union (stmt_usage i)
      (usage_union (expr_usage c) (usage_union (stmt_usage st) (stmts_usage body)))
  | Ast.Return e -> expr_usage e
  | Ast.Break | Ast.Continue -> usage_empty

and stmts_usage stmts = List.fold_left (fun acc s -> usage_union acc (stmt_usage s)) usage_empty stmts

(* ------------------------------------------------------------------ *)
(* expressions *)

let rec compile_expr b env ~(scope : Sset.t) e =
  match e with
  | Ast.Int n ->
    let c = unit_ b ~label:(Printf.sprintf "const%d" n) (K.Const n) in
    use b (env_get env ctrl_key) ~dst:c ~port:0;
    { u = c; port = 0 }
  | Ast.Var x -> env_get env x
  | Ast.Not e -> compile_expr b env ~scope (Ast.Binop (Ast.Eq, e, Ast.Int 0))
  | Ast.Ternary (c, x, y) ->
    (* if-conversion: both arms are computed and a select unit picks —
       the speculative form HLS uses for small conditionals *)
    let vc = compile_expr b env ~scope c in
    let vx = compile_expr b env ~scope x in
    let vy = compile_expr b env ~scope y in
    let width = max (value_width b vx) (value_width b vy) in
    let s = unit_ b ~width (K.operator Ops.Select) in
    use b vc ~dst:s ~port:0;
    use b vx ~dst:s ~port:1;
    use b vy ~dst:s ~port:2;
    { u = s; port = 0 }
  | Ast.Load (a, idx) ->
    let addr = compile_expr b env ~scope idx in
    let addr =
      (* gate the address on the array's memory token, but only when the
         array is stored within the current loop scope — ordering against
         stores of earlier loops is established once at loop entry *)
      if Sset.mem a scope then begin
        let j = unit_ b ~label:("guard_" ^ a) ~width:(value_width b addr) (K.Join 2) in
        use b addr ~dst:j ~port:0;
        use b (env_get env (mem_key a)) ~dst:j ~port:1;
        { u = j; port = 0 }
      end
      else addr
    in
    let ld = unit_ b ~label:("load_" ^ a) (K.Load { mem = a; latency = 2 }) in
    use b addr ~dst:ld ~port:0;
    { u = ld; port = 0 }
  | Ast.Binop (op, x, y) ->
    let vx = compile_expr b env ~scope x in
    let vy = compile_expr b env ~scope y in
    let kop =
      match op with
      | Ast.Add -> Ops.Add
      | Ast.Sub -> Ops.Sub
      | Ast.Mul -> Ops.Mul
      | Ast.Shl -> Ops.Shl
      | Ast.Lshr -> Ops.Lshr
      | Ast.And -> Ops.And_
      | Ast.Or -> Ops.Or_
      | Ast.Xor -> Ops.Xor_
      | Ast.Eq -> Ops.Icmp Ops.Eq
      | Ast.Ne -> Ops.Icmp Ops.Ne
      | Ast.Lt -> Ops.Icmp Ops.Lt
      | Ast.Le -> Ops.Icmp Ops.Le
      | Ast.Gt -> Ops.Icmp Ops.Gt
      | Ast.Ge -> Ops.Icmp Ops.Ge
    in
    let width =
      match op with
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 1
      | _ ->
        (* arithmetic results are ints: promote to the datapath width so
           narrow operands can't truncate (e.g. a 1-bit subtractor computes
           0 - 1 = 1).  This blanket promotion is the sound fallback; when
           the flow runs with narrowing enabled, Absint.Narrow shrinks each
           unit back to its proven value envelope, so there is no need to
           be clever about widths here. *)
        max b.width (max (value_width b vx) (value_width b vy))
    in
    let o = unit_ b ~width (K.operator kop) in
    use b vx ~dst:o ~port:0;
    use b vy ~dst:o ~port:1;
    { u = o; port = 0 }

(* ------------------------------------------------------------------ *)
(* control flow *)

(* Route the values named in [routed] through a branch steered by
   [condv]; other values bypass the construct untouched. *)
let branch_env b env condv routed =
  List.fold_left
    (fun (tenv, fenv) (name, v) ->
      if not (Sset.mem name routed) then (tenv, fenv)
      else begin
        let br = unit_ b ~label:("br_" ^ name) ~width:(value_width b v) K.Branch in
        use b v ~dst:br ~port:0;
        use b condv ~dst:br ~port:1;
        (env_set tenv name { u = br; port = 0 }, env_set fenv name { u = br; port = 1 })
      end)
    (env, env) env

(* Values a construct must route: the control token, every scalar it
   mentions, and the memory tokens of every array it accesses (stores
   consume and regenerate them; loads consume them via guards or via a
   nested loop's entry synchronisation). *)
let routed_names env (u : usage) =
  let names =
    List.filter_map
      (fun (name, _) ->
        if name = ctrl_key then Some name
        else if Sset.mem name u.scalars then Some name
        else
          match
            List.find_opt
              (fun a -> mem_key a = name)
              (Sset.elements (Sset.union u.stored u.loaded))
          with
          | Some _ -> Some name
          | None -> None)
      env
  in
  Sset.of_list names

let rec compile_stmt b env ~scope s =
  match s with
  | Ast.Decl (x, e) | Ast.Assign (x, e) -> env_set env x (compile_expr b env ~scope e)
  | Ast.Store (a, idx, e) ->
    let addr = compile_expr b env ~scope idx in
    let data = compile_expr b env ~scope e in
    let j = unit_ b ~label:("order_" ^ a) ~width:(value_width b addr) (K.Join 2) in
    use b addr ~dst:j ~port:0;
    use b (env_get env (mem_key a)) ~dst:j ~port:1;
    let st = unit_ b ~label:("store_" ^ a) ~width:0 (K.Store { mem = a }) in
    use b { u = j; port = 0 } ~dst:st ~port:0;
    use b data ~dst:st ~port:1;
    env_set env (mem_key a) { u = st; port = 0 }
  | Ast.If (c, then_, else_) ->
    let u = usage_union (expr_usage c) (usage_union (stmts_usage then_) (stmts_usage else_)) in
    let routed = routed_names env u in
    let condv = compile_expr b env ~scope c in
    let tenv0, fenv0 = branch_env b env condv routed in
    let _ = fresh_bb b in
    let tenv = compile_stmts b tenv0 ~scope then_ in
    let _ = fresh_bb b in
    let fenv = compile_stmts b fenv0 ~scope else_ in
    let _ = fresh_bb b in
    (* Reconverge Dynamatic-style: a control merge arbitrates the two
       control tokens and its index steers a mux per routed variable, so
       every variable follows the same serialised control decision.
       (Independent per-variable merges can reorder tokens of successive
       iterations and deadlock or corrupt the computation.) *)
    let cm = unit_ b ~label:"cmerge_if" ~width:1 (K.Control_merge 2) in
    use b (env_get tenv ctrl_key) ~dst:cm ~port:0;
    use b (env_get fenv ctrl_key) ~dst:cm ~port:1;
    let index = { u = cm; port = 1 } in
    List.fold_left
      (fun acc (name, _) ->
        if not (Sset.mem name routed) then acc
        else if name = ctrl_key then env_set acc name { u = cm; port = 0 }
        else begin
          let width = max (value_width b (env_get tenv name)) (value_width b (env_get fenv name)) in
          let m = unit_ b ~label:("phi_" ^ name) ~width (K.Mux 2) in
          use b index ~dst:m ~port:0;
          use b (env_get tenv name) ~dst:m ~port:1;
          use b (env_get fenv name) ~dst:m ~port:2;
          env_set acc name { u = m; port = 0 }
        end)
      env env
  | Ast.While (c, body) ->
    let u = usage_union (expr_usage c) (stmts_usage body) in
    let body_scope = u.stored in
    let routed = routed_names env u in
    (* Arrays loaded inside but not stored inside: their loads need no
       per-access guard; ordering against earlier stores is established
       once by joining their memory tokens into the entry control
       token. *)
    let entry_sync =
      Sset.elements (Sset.diff u.loaded body_scope)
      |> List.filter (fun a -> List.mem_assoc (mem_key a) env)
    in
    let entry_ctrl =
      match entry_sync with
      | [] -> env_get env ctrl_key
      | arrays ->
        let j =
          unit_ b ~label:"loop_entry_sync" ~width:0 (K.Join (1 + List.length arrays))
        in
        use b (env_get env ctrl_key) ~dst:j ~port:0;
        List.iteri (fun i a -> use b (env_get env (mem_key a)) ~dst:j ~port:(i + 1)) arrays;
        { u = j; port = 0 }
    in
    let _ = fresh_bb b in
    (* Loop header, Dynamatic-style: the control token goes through a
       control merge (port 0 = entry, port 1 = back edge); its index
       steers a mux per routed variable.  Control tokens are strictly
       serialised (the next entry token can only be produced after the
       previous traversal exited), so the index stream keeps every
       variable's entry/loop-carried tokens in iteration order. *)
    let cm = unit_ b ~label:"cmerge_loop" ~width:1 (K.Control_merge 2) in
    use b entry_ctrl ~dst:cm ~port:0;
    let index = { u = cm; port = 1 } in
    let muxes =
      List.filter_map
        (fun (name, v) ->
          if name = ctrl_key || not (Sset.mem name routed) then None
          else begin
            (* a scalar's loop-carried value can be wider than its entry
               value (a 1-bit comparison result before a loop that
               assigns it a full-width value), so size the mux for the
               full width; memory tokens keep their own width *)
            let width =
              if String.starts_with ~prefix:"@" name then value_width b v
              else max b.width (value_width b v)
            in
            let m = unit_ b ~label:("loop_" ^ name) ~width (K.Mux 2) in
            use b index ~dst:m ~port:0;
            use b v ~dst:m ~port:1;
            Some (name, m)
          end)
        env
    in
    let header_env =
      List.fold_left
        (fun acc (name, m) -> env_set acc name { u = m; port = 0 })
        (env_set env ctrl_key { u = cm; port = 0 })
        muxes
    in
    let condv = compile_expr b header_env ~scope:body_scope c in
    let benv0, aenv = branch_env b header_env condv routed in
    let _ = fresh_bb b in
    let benv = compile_stmts b benv0 ~scope:body_scope body in
    (* back edges *)
    use b (env_get benv ctrl_key) ~dst:cm ~port:1;
    b.back_ports <- (cm, 1) :: b.back_ports;
    List.iter
      (fun (name, m) ->
        use b (env_get benv name) ~dst:m ~port:2;
        b.back_ports <- (m, 2) :: b.back_ports)
      muxes;
    let _ = fresh_bb b in
    aenv
  | Ast.For (init, c, step, body) ->
    let env = compile_stmt b env ~scope init in
    compile_stmt b env ~scope (Ast.While (c, body @ [ step ]))
  | Ast.Return e ->
    let v = compile_expr b env ~scope e in
    (* the exit fires once the value, the control token and all memory
       tokens are available (stores completed) *)
    let toks =
      env_get env ctrl_key
      :: List.filter_map
           (fun (name, tv) ->
             if String.length name > 5 && String.sub name 0 5 = "@mem_" then Some tv else None)
           env
    in
    let j = unit_ b ~label:"exit_join" ~width:(value_width b v) (K.Join (1 + List.length toks)) in
    use b v ~dst:j ~port:0;
    List.iteri (fun i t -> use b t ~dst:j ~port:(i + 1)) toks;
    let ex = unit_ b ~label:"exit" K.Exit in
    use b { u = j; port = 0 } ~dst:ex ~port:0;
    (* values still live after return are sunk by finalisation *)
    env_set env "@returned" { u = j; port = 0 }
  | Ast.Break | Ast.Continue ->
    (* removed by Lower.desugar before compilation *)
    invalid_arg "Compile: break/continue must be desugared first"

and compile_stmts b env ~scope stmts =
  List.fold_left (fun env s -> compile_stmt b env ~scope s) env stmts

(* ------------------------------------------------------------------ *)
(* fan-out resolution *)

let finalize b =
  (* group pending connections by producer *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (v, c) ->
      let key = (v.u, v.port) in
      Hashtbl.replace groups key (c :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    (List.rev b.pending);
  Hashtbl.iter
    (fun (u, port) consumers ->
      match consumers with
      | [] -> ()
      | [ (du, dp) ] -> ignore (G.connect b.g ~src:u ~src_port:port ~dst:du ~dst_port:dp)
      | many ->
        let many = List.rev many in
        let n = List.length many in
        let node = G.unit_node b.g u in
        let f =
          G.add_unit b.g
            ~label:(Printf.sprintf "fanout_%s" node.G.label)
            ~bb:node.G.bb ~width:node.G.width (K.Fork n)
        in
        ignore (G.connect b.g ~src:u ~src_port:port ~dst:f ~dst_port:0);
        List.iteri
          (fun i (du, dp) -> ignore (G.connect b.g ~src:f ~src_port:i ~dst:du ~dst_port:dp))
          many)
    groups;
  (* sink every dangling output *)
  let dangling = ref [] in
  G.iter_units b.g (fun n ->
      Array.iteri
        (fun p c -> if c = None then dangling := (n.G.uid, p, n.G.bb, n.G.width) :: !dangling)
        n.G.outs);
  List.iter
    (fun (u, p, bb, width) ->
      let s = G.add_unit b.g ~bb ~width K.Sink in
      ignore (G.connect b.g ~src:u ~src_port:p ~dst:s ~dst_port:0))
    !dangling

let compile ?(width = 8) ?(args = []) (f : Ast.func) =
  let f = Lower.desugar f in
  let g = G.create f.Ast.fname in
  let b = { g; pending = []; bb = 0; width; back_ports = [] } in
  (* which arrays are stored to (they need memory-token ordering) *)
  let stores = Hashtbl.create 4 in
  let rec scan_stmt s =
    match s with
    | Ast.Store (a, _, _) -> Hashtbl.replace stores a ()
    | Ast.If (_, t, e) ->
      List.iter scan_stmt t;
      List.iter scan_stmt e
    | Ast.While (_, body) -> List.iter scan_stmt body
    | Ast.For (i, _, st, body) ->
      scan_stmt i;
      scan_stmt st;
      List.iter scan_stmt body
    | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Break | Ast.Continue -> ()
  in
  List.iter scan_stmt f.Ast.body;
  let entry = G.add_unit g ~bb:0 ~width:0 ~label:"entry" K.Entry in
  let env = ref [ (ctrl_key, { u = entry; port = 0 }) ] in
  (* the entry token fans out to scalar-parameter constants and memory
     tokens; the builder's fork pass resolves the fan-out *)
  List.iter
    (fun p ->
      match p with
      | Ast.Scalar name ->
        let v = Option.value (List.assoc_opt name args) ~default:0 in
        let c = G.add_unit g ~bb:0 ~width ~label:("arg_" ^ name) (K.Const v) in
        use b { u = entry; port = 0 } ~dst:c ~port:0;
        env := env_set !env name { u = c; port = 0 }
      | Ast.Array (name, size) ->
        G.add_memory g name size;
        if Hashtbl.mem stores name then begin
          (* initial memory token: a zero-width fork of the entry token *)
          let c = G.add_unit g ~bb:0 ~width:0 ~label:("memtok_" ^ name) (K.Const 0) in
          use b { u = entry; port = 0 } ~dst:c ~port:0;
          env := env_set !env (mem_key name) { u = c; port = 0 }
        end)
    f.Ast.params;
  let has_return = List.exists (function Ast.Return _ -> true | _ -> false) f.Ast.body in
  let body = if has_return then f.Ast.body else f.Ast.body @ [ Ast.Return (Ast.Int 0) ] in
  let top_scope = (stmts_usage body).stored in
  let _ = compile_stmts b !env ~scope:top_scope body in
  finalize b;
  (* mark the loop-carried channels so buffer seeding and CFDFC token
     marking target exactly the real back edges *)
  List.iter
    (fun (u, port) ->
      match G.in_channel g u port with
      | Some cid -> G.set_back_edge g cid
      | None -> ())
    b.back_ports;
  (match G.validate g with
  | Ok () -> ()
  | Error e -> failwith ("Compile: produced invalid graph: " ^ e));
  g
