type binop =
  | Add | Sub | Mul
  | Shl | Lshr
  | And | Or | Xor
  | Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Var of string
  | Load of string * expr
  | Binop of binop * expr * expr
  | Not of expr
  | Ternary of expr * expr * expr

type stmt =
  | Decl of string * expr
  | Assign of string * expr
  | Store of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
  | Return of expr
  | Break
  | Continue

type param = Scalar of string | Array of string * int

type func = {
  fname : string;
  params : param list;
  body : stmt list;
}

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | Shl -> "<<" | Lshr -> ">>"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp_expr fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Var v -> Format.pp_print_string fmt v
  | Load (a, e) -> Format.fprintf fmt "%s[%a]" a pp_expr e
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Not e -> Format.fprintf fmt "!%a" pp_expr e
  | Ternary (c, a, b) ->
    Format.fprintf fmt "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

let rec pp_stmt_indent fmt indent s =
  let pad = String.make indent ' ' in
  match s with
  | Decl (x, e) -> Format.fprintf fmt "%sint %s = %a;@\n" pad x pp_expr e
  | Assign (x, e) -> Format.fprintf fmt "%s%s = %a;@\n" pad x pp_expr e
  | Store (a, i, e) -> Format.fprintf fmt "%s%s[%a] = %a;@\n" pad a pp_expr i pp_expr e
  | If (c, t, f) ->
    Format.fprintf fmt "%sif (%a) {@\n" pad pp_expr c;
    List.iter (pp_stmt_indent fmt (indent + 2)) t;
    if f <> [] then begin
      Format.fprintf fmt "%s} else {@\n" pad;
      List.iter (pp_stmt_indent fmt (indent + 2)) f
    end;
    Format.fprintf fmt "%s}@\n" pad
  | While (c, body) ->
    Format.fprintf fmt "%swhile (%a) {@\n" pad pp_expr c;
    List.iter (pp_stmt_indent fmt (indent + 2)) body;
    Format.fprintf fmt "%s}@\n" pad
  | For (init, c, step, body) ->
    let one_line fmt s =
      match s with
      | Decl (x, e) -> Format.fprintf fmt "int %s = %a" x pp_expr e
      | Assign (x, e) -> Format.fprintf fmt "%s = %a" x pp_expr e
      | _ -> Format.fprintf fmt "..."
    in
    Format.fprintf fmt "%sfor (%a; %a; %a) {@\n" pad one_line init pp_expr c one_line step;
    List.iter (pp_stmt_indent fmt (indent + 2)) body;
    Format.fprintf fmt "%s}@\n" pad
  | Return e -> Format.fprintf fmt "%sreturn %a;@\n" pad pp_expr e
  | Break -> Format.fprintf fmt "%sbreak;@\n" pad
  | Continue -> Format.fprintf fmt "%scontinue;@\n" pad

let pp_func fmt f =
  let param fmt = function
    | Scalar name -> Format.fprintf fmt "int %s" name
    | Array (name, size) -> Format.fprintf fmt "int %s[%d]" name size
  in
  Format.fprintf fmt "int %s(%a) {@\n" f.fname
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") param)
    f.params;
  List.iter (pp_stmt_indent fmt 2) f.body;
  Format.fprintf fmt "}@\n"
