type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i t.len)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nd = Array.make ncap x in
  Array.blit t.data 0 nd 0 t.len;
  t.data <- nd

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let map_to_list f t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (f t.data.(i) :: acc) in
  loop (t.len - 1) []

let to_list t = map_to_list (fun x -> x) t

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let find_index p t =
  let rec loop i =
    if i >= t.len then None else if p t.data.(i) then Some i else loop (i + 1)
  in
  loop 0
