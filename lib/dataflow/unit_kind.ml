type t =
  | Entry
  | Exit
  | Fork of int
  | Lazy_fork of int
  | Join of int
  | Merge of int
  | Mux of int
  | Control_merge of int
  | Branch
  | Sink
  | Source
  | Const of int
  | Operator of { op : Ops.t; latency : int; ii : int }
  | Load of { mem : string; latency : int }
  | Store of { mem : string }
  | Buffer of { transparent : bool; slots : int }

let in_arity = function
  | Entry | Source -> 0
  | Exit | Sink | Const _ | Buffer _ -> 1
  | Fork _ | Lazy_fork _ -> 1
  | Join n | Merge n | Control_merge n -> n
  | Mux n -> n + 1
  | Branch -> 2
  | Operator { op; _ } -> Ops.arity op
  | Load _ -> 1
  | Store _ -> 2

let out_arity = function
  | Entry | Source | Const _ | Buffer _ -> 1
  | Exit | Sink -> 0
  | Fork n | Lazy_fork n -> n
  | Join _ | Merge _ | Mux _ -> 1
  | Control_merge _ -> 2
  | Branch -> 2
  | Operator _ -> 1
  | Load _ -> 1
  | Store _ -> 1

let operator op = Operator { op; latency = Ops.default_latency op; ii = Ops.default_ii op }

let name = function
  | Entry -> "entry"
  | Exit -> "exit"
  | Fork n -> Printf.sprintf "fork%d" n
  | Lazy_fork n -> Printf.sprintf "lfork%d" n
  | Join n -> Printf.sprintf "join%d" n
  | Merge n -> Printf.sprintf "merge%d" n
  | Mux n -> Printf.sprintf "mux%d" n
  | Control_merge n -> Printf.sprintf "cmerge%d" n
  | Branch -> "branch"
  | Sink -> "sink"
  | Source -> "source"
  | Const c -> Printf.sprintf "const%d" c
  | Operator { op; _ } -> Ops.name op
  | Load { mem; _ } -> "load_" ^ mem
  | Store { mem } -> "store_" ^ mem
  | Buffer { transparent; slots } ->
    Printf.sprintf "%sbuf%d" (if transparent then "t" else "") slots

let pp fmt t = Format.pp_print_string fmt (name t)

let equal (a : t) (b : t) = a = b

let is_memory = function Load _ | Store _ -> true | _ -> false

let latency = function
  | Operator { latency; _ } -> latency
  | Load { latency; _ } -> latency
  | Buffer { transparent; _ } -> if transparent then 0 else 1
  | _ -> 0
