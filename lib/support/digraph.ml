(* Recursive: the DFS depth is bounded by the node count, and OCaml 5
   grows the stack on demand. *)
let sccs adj =
  let n = Array.length adj in
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
      adj.(v);
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

let topo adj =
  let n = Array.length adj in
  let indeg = Array.make n 0 in
  Array.iter (List.iter (fun w -> indeg.(w) <- indeg.(w) + 1)) adj;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make n 0 in
  let peeled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!peeled) <- v;
    incr peeled;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      adj.(v)
  done;
  (* a node is freed exactly when its in-degree reaches zero *)
  let rest = ref [] in
  for v = n - 1 downto 0 do
    if indeg.(v) > 0 then rest := v :: !rest
  done;
  (Array.sub order 0 !peeled, !rest)
