type var_kind = Continuous | Binary | Integer

type relation = Le | Ge | Eq

type var = { vname : string; mutable lo : float; mutable hi : float; kind : var_kind }

type constr = { cname : string; terms : (float * int) list; rel : relation; rhs : float }

type t = {
  mname : string;
  vars : var Support.Vec.t;
  constrs : constr Support.Vec.t;
  mutable maximize : bool;
  mutable obj : (float * int) list;
  (* column-major view keyed on (n_vars, n_constrs): bound and objective
     edits keep it valid, adding rows or variables invalidates it *)
  mutable cols : (int * int * Sparse.t array) option;
}

let create mname =
  {
    mname;
    vars = Support.Vec.create ();
    constrs = Support.Vec.create ();
    maximize = true;
    obj = [];
    cols = None;
  }

let name t = t.mname

let add_var t ?(lo = 0.) ?(hi = infinity) ?(kind = Continuous) vname =
  let lo, hi = match kind with Binary -> (max lo 0., min hi 1.) | _ -> (lo, hi) in
  if lo > hi then invalid_arg (Printf.sprintf "Lp.add_var %s: lo > hi" vname);
  Support.Vec.push t.vars { vname; lo; hi; kind }

let n_vars t = Support.Vec.length t.vars
let var_name t i = (Support.Vec.get t.vars i).vname
let var_kind t i = (Support.Vec.get t.vars i).kind
let bounds t i =
  let v = Support.Vec.get t.vars i in
  (v.lo, v.hi)

let set_bounds t i ~lo ~hi =
  let v = Support.Vec.get t.vars i in
  v.lo <- lo;
  v.hi <- hi

(* merge duplicate variables in a term list *)
let normalize terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) -> Hashtbl.replace tbl v (c +. Option.value (Hashtbl.find_opt tbl v) ~default:0.))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (c, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let add_constr t ?(name = "") terms rel rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= n_vars t then invalid_arg "Lp.add_constr: variable out of range")
    terms;
  ignore (Support.Vec.push t.constrs { cname = name; terms = normalize terms; rel; rhs })

let n_constrs t = Support.Vec.length t.constrs

let constr t i =
  let c = Support.Vec.get t.constrs i in
  (c.terms, c.rel, c.rhs)

let col_major t =
  let nv = n_vars t and nc = n_constrs t in
  match t.cols with
  | Some (v, c, cols) when v = nv && c = nc -> cols
  | _ ->
    let acc = Array.make nv [] in
    Support.Vec.iteri
      (fun i c -> List.iter (fun (coef, v) -> acc.(v) <- (i, coef) :: acc.(v)) c.terms)
      t.constrs;
    let cols = Array.map Sparse.of_list acc in
    t.cols <- Some (nv, nc, cols);
    cols

let set_objective t ~maximize terms =
  t.maximize <- maximize;
  t.obj <- normalize terms

let objective t = (t.maximize, t.obj)

let eval_expr terms x = List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. terms

(* absolute tolerance of the bound, row and integrality checks *)
let eps = 1e-6

let feasible t x =
  let ok = ref (Array.length x = n_vars t) in
  if !ok then begin
    Support.Vec.iteri
      (fun i v ->
        if x.(i) < v.lo -. eps || x.(i) > v.hi +. eps then ok := false)
      t.vars;
    Support.Vec.iter
      (fun c ->
        let lhs = eval_expr c.terms x in
        match c.rel with
        | Le -> if lhs > c.rhs +. eps then ok := false
        | Ge -> if lhs < c.rhs -. eps then ok := false
        | Eq -> if abs_float (lhs -. c.rhs) > eps then ok := false)
      t.constrs
  end;
  !ok

type violation =
  | V_constr of { row : int; name : string; lhs : float; rel : relation; rhs : float }
  | V_bound of { var : int; value : float; lo : float; hi : float }
  | V_integrality of { var : int; value : float }

let violations t x =
  if Array.length x <> n_vars t then
    invalid_arg
      (Printf.sprintf "Lp.violations: assignment has %d entries for %d variables"
         (Array.length x) (n_vars t));
  let acc = ref [] in
  Support.Vec.iteri
    (fun i v ->
      if x.(i) < v.lo -. eps || x.(i) > v.hi +. eps then
        acc := V_bound { var = i; value = x.(i); lo = v.lo; hi = v.hi } :: !acc;
      match v.kind with
      | Binary | Integer ->
        if abs_float (x.(i) -. Float.round x.(i)) > eps then
          acc := V_integrality { var = i; value = x.(i) } :: !acc
      | Continuous -> ())
    t.vars;
  Support.Vec.iteri
    (fun row c ->
      let lhs = eval_expr c.terms x in
      let violated =
        match c.rel with
        | Le -> lhs > c.rhs +. eps
        | Ge -> lhs < c.rhs -. eps
        | Eq -> abs_float (lhs -. c.rhs) > eps
      in
      if violated then
        acc := V_constr { row; name = c.cname; lhs; rel = c.rel; rhs = c.rhs } :: !acc)
    t.constrs;
  List.rev !acc

let pp_violation t fmt = function
  | V_constr { row; name; lhs; rel; rhs } ->
    let rel_s = match rel with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf fmt "row %d%s: lhs %g violates %s %g" row
      (if name = "" then "" else Printf.sprintf " (%s)" name)
      lhs rel_s rhs
  | V_bound { var; value; lo; hi } ->
    Format.fprintf fmt "var %s = %g outside [%g, %g]" (var_name t var) value lo hi
  | V_integrality { var; value } ->
    Format.fprintf fmt "var %s = %g is not integral" (var_name t var) value
