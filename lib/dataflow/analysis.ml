let has_self_loop g u = List.exists (fun (_, d) -> d = u) (Graph.succs g u)

let cyclic_sccs g =
  List.filter
    (fun comp -> match comp with [ u ] -> has_self_loop g u | _ :: _ :: _ -> true | [] -> false)
    (Support.Digraph.sccs (Array.init (Graph.n_units g) (fun u -> List.map snd (Graph.succs g u))))

type color = White | Grey | Black

let back_edges g =
  let n = Graph.n_units g in
  let color = Array.make n White in
  let back = ref [] in
  let rec dfs u =
    color.(u) <- Grey;
    List.iter
      (fun (cid, w) ->
        match color.(w) with
        | Grey -> back := cid :: !back
        | White -> dfs w
        | Black -> ())
      (Graph.succs g u);
    color.(u) <- Black
  in
  (* Start from entries/sources first so loop headers are discovered in
     program order, then sweep any disconnected remainder. *)
  Graph.iter_units g (fun nd ->
      match nd.Graph.kind with
      | Unit_kind.Entry | Unit_kind.Source -> if color.(nd.Graph.uid) = White then dfs nd.Graph.uid
      | _ -> ());
  for u = 0 to n - 1 do
    if color.(u) = White then dfs u
  done;
  List.rev !back

let loop_back_edges g =
  match Graph.marked_back_edges g with [] -> back_edges g | marked -> marked

let topo_order g =
  let is_back = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace is_back c ()) (back_edges g);
  let adj =
    Array.init (Graph.n_units g) (fun u ->
        List.filter_map
          (fun (cid, w) -> if Hashtbl.mem is_back cid then None else Some w)
          (Graph.succs g u))
  in
  Array.to_list (fst (Support.Digraph.topo adj))

let simple_cycles_capped ?(limit = 512) g =
  let n = Graph.n_units g in
  let cycles = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  (* Per Johnson: for each start vertex s, search for cycles through s
     using only vertices >= s; blocked-set bookkeeping keeps it output
     sensitive. We additionally cap at [limit]. *)
  let blocked = Array.make n false in
  let block_map = Array.make n [] in
  let rec unblock v =
    blocked.(v) <- false;
    let bs = block_map.(v) in
    block_map.(v) <- [];
    List.iter (fun w -> if blocked.(w) then unblock w) bs
  in
  let exception Done in
  (try
     for s = 0 to n - 1 do
       Array.fill blocked 0 n false;
       Array.fill block_map 0 n [];
       let rec circuit v path =
         if !count >= limit then raise Done;
         blocked.(v) <- true;
         let found = ref false in
         List.iter
           (fun (cid, w) ->
             if w >= s then
               if w = s then begin
                 cycles := List.rev (cid :: path) :: !cycles;
                 incr count;
                 found := true;
                 if !count >= limit then raise Done
               end
               else if not blocked.(w) then
                 if circuit w (cid :: path) then found := true)
           (Graph.succs g v);
         if !found then unblock v
         else
           List.iter
             (fun (_, w) ->
               if w >= s && not (List.mem v block_map.(w)) then block_map.(w) <- v :: block_map.(w))
             (Graph.succs g v);
         !found
       in
       ignore (circuit s [])
     done
   with Done -> truncated := true);
  (List.rev !cycles, !truncated)
