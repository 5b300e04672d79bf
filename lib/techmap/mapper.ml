(* Sorted-array cut utilities. *)

let cut_union a b k =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let over = ref false in
  while (not !over) && (!i < la || !j < lb) do
    let x =
      if !i >= la then begin
        let v = b.(!j) in
        incr j;
        v
      end
      else if !j >= lb then begin
        let v = a.(!i) in
        incr i;
        v
      end
      else if a.(!i) < b.(!j) then begin
        let v = a.(!i) in
        incr i;
        v
      end
      else if a.(!i) > b.(!j) then begin
        let v = b.(!j) in
        incr j;
        v
      end
      else begin
        let v = a.(!i) in
        incr i;
        incr j;
        v
      end
    in
    if !n >= k then over := true
    else begin
      out.(!n) <- x;
      incr n
    end
  done;
  if !over then None else Some (Array.sub out 0 !n)

(* priority cuts kept per node *)
let cut_limit = 8

let run ?(k = Lutgraph.lut_k) (synth : Synth.t) =
  Support.Trace.with_span ~cat:"techmap" "techmap:map" @@ fun () ->
  let aig = synth.Synth.aig in
  let n = Aig.n_nodes aig in
  (* cut-enumeration effort counters, reported at the end of the run:
     [enumerated] counts fanin cut pairs merged (the inner loop's work),
     [kept] the priority cuts that survive per node *)
  let enumerated = ref 0 in
  let kept = ref 0 in
  let cuts = Array.make n [||] in
  (* best_depth.(v) = mapped depth of v's best realisable cut; 0 for CIs *)
  let best_depth = Array.make n 0 in
  let best_cut = Array.make n [||] in
  let cut_depth c =
    Array.fold_left (fun acc leaf -> max acc best_depth.(leaf)) 0 c + 1
  in
  for v = 1 to n - 1 do
    if Aig.is_ci aig v then begin
      cuts.(v) <- [| [| v |] |];
      best_depth.(v) <- 0
    end
    else begin
      let f0, f1 = Aig.fanins aig v in
      let n0 = Aig.node_of_lit f0 and n1 = Aig.node_of_lit f1 in
      let c0 = if n0 = 0 then [| [||] |] else cuts.(n0) in
      let c1 = if n1 = 0 then [| [||] |] else cuts.(n1) in
      let seen = Hashtbl.create 16 in
      let candidates = ref [] in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              incr enumerated;
              match cut_union a b k with
              | None -> ()
              | Some c ->
                let key = Array.to_list c in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  candidates := c :: !candidates
                end)
            c1)
        c0;
      let sorted =
        List.sort
          (fun a b ->
            let da = cut_depth a and db = cut_depth b in
            if da <> db then compare da db else compare (Array.length a) (Array.length b))
          !candidates
      in
      (match sorted with
      | [] ->
        (* can only happen if both fanins are constants, which folding
           prevents *)
        assert false
      | best :: _ ->
        best_cut.(v) <- best;
        best_depth.(v) <- cut_depth best);
      let rec take acc i = function
        | [] -> List.rev acc
        | _ when i >= cut_limit -> List.rev acc
        | c :: rest -> take (c :: acc) (i + 1) rest
      in
      (* keep the priority cuts plus the trivial cut for parents *)
      cuts.(v) <- Array.of_list (take [] 0 sorted @ [ [| v |] ]);
      kept := !kept + Array.length cuts.(v)
    end
  done;
  Support.Trace.add "techmap.cuts.enumerated" !enumerated;
  Support.Trace.add "techmap.cuts.kept" !kept;
  (* Selection: materialise LUTs for every AND node reachable as a chosen
     cut root, starting from the combinational outputs. *)
  let lut_of_node = Array.make n (-1) in
  let luts = ref [] in
  let n_luts = ref 0 in
  let rec materialise v =
    if lut_of_node.(v) = -1 && (not (Aig.is_ci aig v)) && v <> 0 then begin
      let cut = best_cut.(v) in
      let lid = !n_luts in
      incr n_luts;
      lut_of_node.(v) <- lid;
      (* cone: nodes strictly inside the cut *)
      let is_leaf = Hashtbl.create 8 in
      Array.iter (fun l -> Hashtbl.replace is_leaf l ()) cut;
      let cone = ref [] in
      let visited = Hashtbl.create 16 in
      let rec walk u =
        if (not (Hashtbl.mem visited u)) && (not (Hashtbl.mem is_leaf u)) && u <> 0 then begin
          Hashtbl.replace visited u ();
          cone := u :: !cone;
          if not (Aig.is_ci aig u) then begin
            let f0, f1 = Aig.fanins aig u in
            walk (Aig.node_of_lit f0);
            walk (Aig.node_of_lit f1)
          end
        end
      in
      walk v;
      (* owner: the unit contributing the most cone nodes (§IV-A) *)
      let counts = Hashtbl.create 8 in
      let dom = ref None in
      List.iter
        (fun u ->
          let o = Aig.owner aig u in
          Hashtbl.replace counts o (1 + Option.value (Hashtbl.find_opt counts o) ~default:0);
          let d = Aig.dom aig u in
          dom := Some (match !dom with None -> d | Some d0 -> if d0 = d then d0 else Net.Mixed))
        !cone;
      let owner =
        Hashtbl.fold
          (fun o c (bo, bc) -> if c > bc || (c = bc && o < bo) then (o, c) else (bo, bc))
          counts (-1, 0)
        |> fst
      in
      luts :=
        {
          Lutgraph.lid;
          root = v;
          leaves = cut;
          owner;
          dom = Option.value !dom ~default:Net.Data;
          cone_size = List.length !cone;
        }
        :: !luts;
      Array.iter materialise cut
    end
  in
  List.iter (fun (_, _, lit) -> materialise (Aig.node_of_lit lit)) (Aig.cos aig);
  let luts =
    match !luts with
    | [] -> [||]
    | (sample : Lutgraph.lut) :: _ ->
      let arr = Array.make !n_luts sample in
      List.iter (fun (l : Lutgraph.lut) -> arr.(l.Lutgraph.lid) <- l) !luts;
      arr
  in
  (* Edges. *)
  let endpoint_of_node v =
    if Aig.is_ci aig v then Lutgraph.Seq (Hashtbl.find synth.Synth.gate_of_ci v)
    else Lutgraph.Lut lut_of_node.(v)
  in
  let edges = ref [] in
  Array.iter
    (fun (l : Lutgraph.lut) ->
      Array.iter
        (fun leaf ->
          edges := { Lutgraph.e_src = endpoint_of_node leaf; e_dst = Lutgraph.Lut l.Lutgraph.lid } :: !edges)
        l.Lutgraph.leaves)
    luts;
  List.iter
    (fun (_, tag, lit) ->
      let v = Aig.node_of_lit lit in
      if v <> 0 then
        edges := { Lutgraph.e_src = endpoint_of_node v; e_dst = Lutgraph.Seq tag } :: !edges)
    (Aig.cos aig);
  (* Levels: LUT roots increase along fanin order, so a single pass in
     root order is a topological pass. *)
  let levels = Array.make !n_luts 0 in
  let order = Array.init !n_luts (fun i -> i) in
  Array.sort (fun a b -> compare luts.(a).Lutgraph.root luts.(b).Lutgraph.root) order;
  Array.iter
    (fun lid ->
      let l = luts.(lid) in
      let lvl =
        Array.fold_left
          (fun acc leaf ->
            if Aig.is_ci aig leaf then acc else max acc levels.(lut_of_node.(leaf)))
          0 l.Lutgraph.leaves
      in
      levels.(lid) <- lvl + 1)
    order;
  let max_level = Array.fold_left max 0 levels in
  {
    Lutgraph.synth;
    luts;
    lut_of_node;
    edges = !edges;
    levels;
    max_level;
  }
