module D = Diagnostic

let r_undriven =
  {
    Rule.id = "net-undriven";
    target = Rule.Netlist;
    severity = D.Error;
    doc = "every gate fanin must be driven";
  }

let r_dup_io =
  {
    Rule.id = "net-duplicate-io";
    target = Rule.Netlist;
    severity = D.Error;
    doc = "input/output names must be unique (multiply-driven named net)";
  }

let r_comb_cycle =
  {
    Rule.id = "net-comb-cycle";
    target = Rule.Netlist;
    severity = D.Error;
    doc = "the combinational gate graph must be acyclic";
  }

let r_owner =
  {
    Rule.id = "net-owner-invalid";
    target = Rule.Netlist;
    severity = D.Warning;
    doc = "every gate's owner label must name a unit of the graph (or -1)";
  }

let rules = [ r_undriven; r_dup_io; r_comb_cycle; r_owner ]

let kind_name = function
  | Net.Input _ -> "input"
  | Net.Output _ -> "output"
  | Net.Const _ -> "const"
  | Net.Buf -> "buf"
  | Net.Not -> "not"
  | Net.And2 -> "and"
  | Net.Or2 -> "or"
  | Net.Xor2 -> "xor"
  | Net.Ff _ -> "ff"

let check g net =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  (* undriven fanins + invalid owners + duplicate IO names in one scan *)
  let io_names : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let n_units = Dataflow.Graph.n_units g in
  Net.iter net (fun gate ->
      Array.iteri
        (fun i f ->
          if f < 0 || f >= Net.n_gates net then
            emit
              (Rule.diag r_undriven ~loc:(D.Gate gate.Net.id) "%s gate %d: fanin %d is %s"
                 (kind_name gate.Net.kind) gate.Net.id i
                 (if f < 0 then "undriven" else "out of range")))
        gate.Net.fanins;
      if gate.Net.owner < -1 || gate.Net.owner >= n_units then
        emit
          (Rule.diag r_owner ~loc:(D.Gate gate.Net.id)
             "%s gate %d: owner %d is not a unit of %s" (kind_name gate.Net.kind) gate.Net.id
             gate.Net.owner (Dataflow.Graph.name g));
      match gate.Net.kind with
      | Net.Input nm | Net.Output nm -> (
        let key = (match gate.Net.kind with Net.Input _ -> "i:" | _ -> "o:") ^ nm in
        match Hashtbl.find_opt io_names key with
        | Some first ->
          emit
            (Rule.diag r_dup_io ~loc:(D.Gate gate.Net.id)
               "%s name %S already used by gate %d" (kind_name gate.Net.kind) nm first)
        | None -> Hashtbl.replace io_names key gate.Net.id)
      | _ -> ());
  (* combinational cycle: DFS over fanins, stopping at FFs (their D input
     is sampled at the clock edge, not combinationally) *)
  let n = Net.n_gates net in
  let state = Array.make n 0 (* 0 = unvisited, 1 = on path, 2 = done *) in
  let comb_fanins i =
    let gate = Net.gate net i in
    match gate.Net.kind with
    | Net.Ff _ -> [||] (* sequential boundary: the D input is sampled, not combinational *)
    | _ -> gate.Net.fanins
  in
  let reported = ref false in
  for root = 0 to n - 1 do
    if state.(root) = 0 && not !reported then begin
      let stack = ref [ (root, ref 0) ] in
      state.(root) <- 1;
      while !stack <> [] && not !reported do
        match !stack with
        | [] -> ()
        | (i, next) :: rest ->
          let fanins = comb_fanins i in
          if !next >= Array.length fanins then begin
            state.(i) <- 2;
            stack := rest
          end
          else begin
            let f = fanins.(!next) in
            incr next;
            if f >= 0 && f < n then
              if state.(f) = 1 then begin
                reported := true;
                emit
                  (Rule.diag r_comb_cycle ~loc:(D.Gate f)
                     "combinational cycle through %s gate %d"
                     (kind_name (Net.gate net f).Net.kind) f)
              end
              else if state.(f) = 0 then begin
                state.(f) <- 1;
                stack := (f, ref 0) :: !stack
              end
          end
      done
    end
  done;
  List.rev !acc
