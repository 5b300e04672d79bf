let succ_units g u = List.map snd (Graph.succs g u)

(* Tarjan's algorithm (recursive: the DFS depth is bounded by the unit
   count). *)
let sccs g =
  let n = Graph.n_units g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succ_units g v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  !components

let has_self_loop g u = List.exists (fun (_, d) -> d = u) (Graph.succs g u)

let cyclic_sccs g =
  List.filter
    (fun comp -> match comp with [ u ] -> has_self_loop g u | _ :: _ :: _ -> true | [] -> false)
    (sccs g)

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

let topo_order g =
  let back = back_edges g in
  let is_back = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace is_back c ()) back;
  let n = Graph.n_units g in
  let indeg = Array.make n 0 in
  Graph.iter_channels g (fun c ->
      if not (Hashtbl.mem is_back c.Graph.cid) then indeg.(c.Graph.dst) <- indeg.(c.Graph.dst) + 1);
  let queue = Queue.create () in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then Queue.add u queue
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    List.iter
      (fun (cid, w) ->
        if not (Hashtbl.mem is_back cid) then begin
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Queue.add w queue
        end)
      (Graph.succs g u)
  done;
  List.rev !order

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
