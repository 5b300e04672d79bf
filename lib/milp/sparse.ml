type t = { idx : int array; v : float array }

let empty = { idx = [||]; v = [||] }

let of_list entries =
  let tbl = Hashtbl.create (List.length entries) in
  List.iter
    (fun (i, c) ->
      Hashtbl.replace tbl i (c +. Option.value (Hashtbl.find_opt tbl i) ~default:0.))
    entries;
  let merged =
    Hashtbl.fold (fun i c acc -> if c = 0. then acc else (i, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let n = List.length merged in
  let idx = Array.make n 0 and v = Array.make n 0. in
  List.iteri
    (fun k (i, c) ->
      idx.(k) <- i;
      v.(k) <- c)
    merged;
  { idx; v }

let unit i = { idx = [| i |]; v = [| 1. |] }

let nnz c = Array.length c.idx

let dot c y =
  let acc = ref 0. in
  for k = 0 to Array.length c.idx - 1 do
    acc := !acc +. (c.v.(k) *. y.(c.idx.(k)))
  done;
  !acc

let iter f c =
  for k = 0 to Array.length c.idx - 1 do
    f c.idx.(k) c.v.(k)
  done

let axpy a c y =
  if a <> 0. then
    for k = 0 to Array.length c.idx - 1 do
      y.(c.idx.(k)) <- y.(c.idx.(k)) +. (a *. c.v.(k))
    done
