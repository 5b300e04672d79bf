type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Add
  | Sub
  | Mul
  | Shl
  | Lshr
  | And_
  | Or_
  | Xor_
  | Icmp of cmp
  | Select

let arity = function
  | Add | Sub | Mul | Shl | Lshr | And_ | Or_ | Xor_ | Icmp _ -> 2
  | Select -> 3

let default_latency = function
  | Mul -> 4
  | Add | Sub | Shl | Lshr | And_ | Or_ | Xor_ | Icmp _ | Select -> 0

let default_ii _ = 1

let cmp_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | And_ -> "and"
  | Or_ -> "or"
  | Xor_ -> "xor"
  | Icmp c -> "icmp_" ^ cmp_name c
  | Select -> "select"

let pp fmt t = Format.pp_print_string fmt (name t)

let equal (a : t) (b : t) = a = b

let eval_cmp c a b =
  let r =
    match c with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

let apply t a b c =
  match t with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Shl -> a lsl (b land 63)
  | Lshr -> a lsr (b land 63)
  | And_ -> a land b
  | Or_ -> a lor b
  | Xor_ -> a lxor b
  | Icmp cmp -> eval_cmp cmp a b
  | Select -> if a <> 0 then b else c

let eval t args =
  match args with
  | [ a; b ] when arity t = 2 -> apply t a b 0
  | [ a; b; c ] when arity t = 3 -> apply t a b c
  | _ -> invalid_arg (Printf.sprintf "Ops.eval: %s applied to %d args" (name t) (List.length args))
