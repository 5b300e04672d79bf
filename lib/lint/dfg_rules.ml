module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module D = Diagnostic

type stage = Pre_buffering | Post_buffering

let r_unconnected =
  {
    Rule.id = "dfg-unconnected-port";
    target = Rule.Dfg;
    severity = D.Error;
    doc = "every unit port must be wired to exactly one channel";
  }

let r_unreachable =
  {
    Rule.id = "dfg-unreachable-unit";
    target = Rule.Dfg;
    severity = D.Warning;
    doc = "every unit must be reachable from an entry or source unit";
  }

let r_comb_cycle =
  {
    Rule.id = "dfg-comb-cycle";
    target = Rule.Dfg;
    severity = D.Error;
    doc = "every cycle must contain at least one opaque buffer";
  }

let r_no_back_edge =
  {
    Rule.id = "dfg-no-back-edge";
    target = Rule.Dfg;
    severity = D.Warning;
    doc = "every cyclic SCC needs a marked back edge or a buffer to be breakable";
  }

let r_self_loop =
  {
    Rule.id = "dfg-self-loop";
    target = Rule.Dfg;
    severity = D.Error;
    doc = "a self-loop channel must carry an opaque buffer";
  }

let r_width =
  {
    Rule.id = "dfg-width-mismatch";
    target = Rule.Dfg;
    severity = D.Warning;
    doc = "no data input may be wider than its unit computes (silent truncation)";
  }

let rules =
  [ r_unconnected; r_unreachable; r_comb_cycle; r_no_back_edge; r_self_loop; r_width ]

let unit_desc g u =
  let n = G.unit_node g u in
  if n.G.label = "" then Printf.sprintf "%s#%d" (K.name n.G.kind) u
  else Printf.sprintf "%s#%d (%s)" (K.name n.G.kind) u n.G.label

let opaque_buffered g cid =
  match G.buffer g cid with Some { G.transparent = false; _ } -> true | _ -> false

(* A standalone opaque buffer unit breaks combinational paths through
   itself just like a channel annotation does. *)
let opaque_unit g u =
  match (G.unit_node g u).G.kind with
  | K.Buffer { transparent = false; _ } -> true
  | _ -> false

let breaks_path g c = opaque_buffered g c.G.cid || opaque_unit g c.G.src

(* ---- dfg-unconnected-port ---- *)

let check_ports g acc =
  let acc = ref acc in
  G.iter_units g (fun n ->
      let scan dir arr =
        Array.iteri
          (fun port c ->
            if c = None then
              acc :=
                Rule.diag r_unconnected ~loc:(D.Unit n.G.uid) "%s: %s port %d is unconnected"
                  (unit_desc g n.G.uid) dir port
                :: !acc)
          arr
      in
      scan "input" n.G.ins;
      scan "output" n.G.outs);
  !acc

(* ---- dfg-unreachable-unit ---- *)

let check_reachability g acc =
  let n = G.n_units g in
  let seen = Array.make n false in
  let stack = ref [] in
  G.iter_units g (fun node ->
      if K.in_arity node.G.kind = 0 then begin
        seen.(node.G.uid) <- true;
        stack := node.G.uid :: !stack
      end);
  let rec walk () =
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      List.iter
        (fun (_, w) ->
          if not seen.(w) then begin
            seen.(w) <- true;
            stack := w :: !stack
          end)
        (G.succs g u);
      walk ()
  in
  walk ();
  let acc = ref acc in
  for u = n - 1 downto 0 do
    if not seen.(u) then
      acc :=
        Rule.diag r_unreachable ~loc:(D.Unit u) "%s is unreachable from any entry/source unit"
          (unit_desc g u)
        :: !acc
  done;
  !acc

(* ---- cycle rules ----

   A combinational cycle exists iff the subgraph of channels without an
   opaque buffer has a cyclic SCC; unlike enumerating simple cycles this
   is exact and linear, so the check cannot be defeated by the cycle
   cap. Self-loops are reported channel-precisely by [dfg-self-loop], so
   SCCs here are only flagged when they span at least two units. *)

let sccs_filtered g ~keep =
  let n = G.n_units g in
  let adj = Array.make n [] in
  G.iter_channels g (fun c ->
      if keep c && c.G.src <> c.G.dst then adj.(c.G.src) <- c.G.dst :: adj.(c.G.src));
  List.filter (fun comp -> List.length comp >= 2) (Support.Digraph.sccs adj)

let pp_members g comp =
  let shown = List.filteri (fun i _ -> i < 6) comp in
  String.concat ", " (List.map (unit_desc g) shown)
  ^ if List.length comp > 6 then Printf.sprintf ", … (%d units)" (List.length comp) else ""

let check_comb_cycles g acc =
  List.fold_left
    (fun acc comp ->
      Rule.diag r_comb_cycle ~loc:(D.Unit (List.hd comp))
        "cycle through {%s} has no opaque buffer on any channel" (pp_members g comp)
      :: acc)
    acc
    (sccs_filtered g ~keep:(fun c -> not (breaks_path g c)))

let check_back_edges g acc =
  (* pre-buffering: within each cyclic SCC of the full graph, some
     internal channel must be a marked back edge or already buffered *)
  let comps = sccs_filtered g ~keep:(fun _ -> true) in
  List.fold_left
    (fun acc comp ->
      let members = Hashtbl.create 8 in
      List.iter (fun u -> Hashtbl.replace members u ()) comp;
      let breakable = ref false in
      G.iter_channels g (fun c ->
          if
            Hashtbl.mem members c.G.src && Hashtbl.mem members c.G.dst
            && (c.G.back || breaks_path g c)
          then breakable := true);
      if !breakable then acc
      else
        Rule.diag r_no_back_edge ~loc:(D.Unit (List.hd comp))
          "cyclic SCC {%s} has no marked back edge and no buffer; the flow will fall back \
           to DFS back-edge classification"
          (pp_members g comp)
        :: acc)
    acc comps

let check_self_loops stage g acc =
  let acc = ref acc in
  G.iter_channels g (fun c ->
      if c.G.src = c.G.dst then begin
        let excused =
          opaque_buffered g c.G.cid || opaque_unit g c.G.src
          || (stage = Pre_buffering && c.G.back)
        in
        if not excused then
          acc :=
            Rule.diag r_self_loop ~loc:(D.Channel c.G.cid)
              "self-loop on %s has no opaque buffer" (unit_desc g c.G.src)
            :: !acc
      end);
  !acc

(* ---- dfg-width-mismatch ---- *)

let check_widths g acc =
  let acc = ref acc in
  let width_of cid = (G.channel g cid).G.width in
  let bad node fmt =
    Format.kasprintf
      (fun message ->
        acc :=
          Diagnostic.make ~rule:r_width.Rule.id ~severity:r_width.Rule.severity
            ~loc:(D.Unit node.G.uid) message
          :: !acc)
      fmt
  in
  (* Elaboration zero-extends narrower operands (a legitimate idiom, e.g.
     a 1-bit comparison result AND-ed with an int) but silently truncates
     anything wider than the consuming unit computes — that is the lossy
     case worth flagging. Comparisons are exempt: they consume full-width
     operands and deliberately produce one bit. *)
  G.iter_units g (fun node ->
      let in_w port = Option.map width_of node.G.ins.(port) in
      let truncates what port =
        match in_w port with
        | Some w when w > node.G.width ->
          bad node "%s: %s input %d has width %d, unit computes %d bits (truncated)"
            (unit_desc g node.G.uid) what port w node.G.width
        | _ -> ()
      in
      match node.G.kind with
      | K.Operator { op = Dataflow.Ops.Icmp _; _ } -> ()
      | K.Operator { op; _ } ->
        (* data operands only: Select's port 0 is the 1-bit condition *)
        let ports =
          match Dataflow.Ops.arity op with 3 -> [ 1; 2 ] | 2 -> [ 0; 1 ] | _ -> [ 0 ]
        in
        List.iter (truncates "operand") ports
      | K.Mux n ->
        for p = 1 to n do
          truncates "mux data" p
        done
      | K.Merge n ->
        for p = 0 to n - 1 do
          truncates "merge" p
        done
      | K.Branch -> truncates "branch data" 0
      | K.Buffer _ -> truncates "buffer" 0
      | _ -> ());
  !acc

let check ?(stage = Post_buffering) g =
  let acc = [] in
  let acc = check_ports g acc in
  let acc = check_reachability g acc in
  let acc =
    match stage with
    | Post_buffering -> check_comb_cycles g acc
    | Pre_buffering -> check_back_edges g acc
  in
  let acc = check_self_loops stage g acc in
  let acc = check_widths g acc in
  List.rev acc
