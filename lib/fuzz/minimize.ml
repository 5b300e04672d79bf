module Ast = Hls.Ast

let rec stmt_size = function
  | Ast.If (_, t, e) -> 1 + stmts_size t + stmts_size e
  | Ast.While (_, b) -> 1 + stmts_size b
  | Ast.For (_, _, _, b) -> 3 + stmts_size b
  | _ -> 1

and stmts_size ss = List.fold_left (fun a s -> a + stmt_size s) 0 ss

let size (f : Ast.func) = stmts_size f.Ast.body

(* All one-step reductions of a statement list, most aggressive first:
   removing a whole statement before rewriting it, outer statements
   before inner ones. *)
let rec variants ss =
  let rec at prefix = function
    | [] -> []
    | s :: rest ->
      let keep tail = List.rev_append prefix tail in
      let drop = keep rest in
      let rewrites =
        match s with
        | Ast.If (c, t, e) ->
          [ keep (t @ rest); keep (e @ rest) ]
          @ (match e with [] -> [] | _ -> [ keep (Ast.If (c, t, []) :: rest) ])
        | Ast.While (_, b) -> [ keep (b @ rest) ]
        | Ast.For (init, _, _, b) -> [ keep (init :: b @ rest) ]
        | _ -> []
      in
      let inner =
        match s with
        | Ast.If (c, t, e) ->
          List.map (fun t' -> keep (Ast.If (c, t', e) :: rest)) (variants t)
          @ List.map (fun e' -> keep (Ast.If (c, t, e') :: rest)) (variants e)
        | Ast.While (c, b) -> List.map (fun b' -> keep (Ast.While (c, b') :: rest)) (variants b)
        | Ast.For (i, c, st, b) ->
          List.map (fun b' -> keep (Ast.For (i, c, st, b') :: rest)) (variants b)
        | _ -> []
      in
      ((drop :: rewrites) @ inner) @ at (s :: prefix) rest
  in
  at [] ss

let shrink_stmts pred ss =
  let rec fix ss =
    match List.find_opt pred (variants ss) with
    | Some smaller -> fix smaller
    | None -> ss
  in
  if pred ss then fix ss else ss

let shrink_func pred (f : Ast.func) =
  let body = shrink_stmts (fun b -> pred { f with Ast.body = b }) f.Ast.body in
  { f with Ast.body = body }
