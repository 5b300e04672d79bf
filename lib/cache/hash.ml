module G = Dataflow.Graph
module K = Dataflow.Unit_kind

(* Binary encoder primitives. Fixed-width big-endian integers: the
   encoding must be injective (no delimiter ambiguity), compactness is
   irrelevant next to the hash. *)

let tag b n = Buffer.add_char b (Char.chr (n land 0xff))
let int b n = Buffer.add_int64_be b (Int64.of_int n)
let flt b f = Buffer.add_int64_be b (Int64.bits_of_float f)
let bool b v = tag b (if v then 1 else 0)

let str b s =
  int b (String.length s);
  Buffer.add_string b s

let opt_int b = function
  | None -> tag b 0
  | Some n ->
    tag b 1;
    int b n

(* ------------------------------------------------------------------ *)

let unit_kind b (k : K.t) =
  match k with
  | K.Entry -> tag b 0
  | K.Exit -> tag b 1
  | K.Fork n ->
    tag b 2;
    int b n
  | K.Lazy_fork n ->
    tag b 3;
    int b n
  | K.Join n ->
    tag b 4;
    int b n
  | K.Merge n ->
    tag b 5;
    int b n
  | K.Mux n ->
    tag b 6;
    int b n
  | K.Control_merge n ->
    tag b 7;
    int b n
  | K.Branch -> tag b 8
  | K.Sink -> tag b 9
  | K.Source -> tag b 10
  | K.Const c ->
    tag b 11;
    int b c
  | K.Operator { op; latency; ii } ->
    tag b 12;
    str b (Dataflow.Ops.name op);
    int b latency;
    int b ii
  | K.Load { mem; latency } ->
    tag b 13;
    str b mem;
    int b latency
  | K.Store { mem } ->
    tag b 14;
    str b mem
  | K.Buffer { transparent; slots } ->
    tag b 15;
    bool b transparent;
    int b slots

let buffer_spec b = function
  | None -> tag b 0
  | Some { G.transparent; slots } ->
    tag b 1;
    bool b transparent;
    int b slots

let dfg g =
  let b = Buffer.create 4096 in
  str b "dfg:v1";
  int b (G.n_units g);
  G.iter_units g (fun n ->
      unit_kind b n.G.kind;
      int b n.G.bb;
      int b n.G.width;
      int b (Array.length n.G.ins);
      Array.iter (opt_int b) n.G.ins;
      int b (Array.length n.G.outs);
      Array.iter (opt_int b) n.G.outs);
  int b (G.n_channels g);
  G.iter_channels g (fun c ->
      int b c.G.src;
      int b c.G.src_port;
      int b c.G.dst;
      int b c.G.dst_port;
      int b c.G.width;
      buffer_spec b c.G.buffer;
      bool b c.G.back);
  let mems = List.sort compare (G.memories g) in
  int b (List.length mems);
  List.iter
    (fun (name, size) ->
      str b name;
      int b size)
    mems;
  Sha256.hex (Buffer.contents b)

let memories mems =
  let b = Buffer.create 1024 in
  str b "mem:v1";
  let mems = List.sort (fun (a, _) (c, _) -> String.compare a c) mems in
  int b (List.length mems);
  List.iter
    (fun (name, a) ->
      str b name;
      int b (Array.length a);
      Array.iter (int b) a)
    mems;
  Sha256.hex (Buffer.contents b)

(* ------------------------------------------------------------------ *)

let domain_tag = function Net.Data -> 0 | Net.Valid -> 1 | Net.Ready -> 2 | Net.Mixed -> 3

let gate_kind b (k : Net.kind) =
  match k with
  | Net.Input name ->
    tag b 0;
    str b name
  | Net.Output name ->
    tag b 1;
    str b name
  | Net.Const v ->
    tag b 2;
    bool b v
  | Net.Buf -> tag b 3
  | Net.Not -> tag b 4
  | Net.And2 -> tag b 5
  | Net.Or2 -> tag b 6
  | Net.Xor2 -> tag b 7
  | Net.Ff init ->
    tag b 8;
    bool b init

let netlist n =
  let b = Buffer.create 65536 in
  str b "net:v1";
  int b (Net.n_gates n);
  Net.iter n (fun g ->
      gate_kind b g.Net.kind;
      int b (Array.length g.Net.fanins);
      Array.iter (int b) g.Net.fanins;
      int b g.Net.owner;
      tag b (domain_tag g.Net.dom));
  let ids l =
    let l = List.sort compare l in
    int b (List.length l);
    List.iter (int b) l
  in
  ids (Net.inputs n);
  ids (Net.outputs n);
  ids (Net.ffs n);
  Sha256.hex (Buffer.contents b)

(* ------------------------------------------------------------------ *)

let relation_tag = function Milp.Lp.Le -> 0 | Milp.Lp.Ge -> 1 | Milp.Lp.Eq -> 2
let var_kind_tag = function Milp.Lp.Continuous -> 0 | Milp.Lp.Binary -> 1 | Milp.Lp.Integer -> 2

let terms b ts =
  (* the builder already sums repeated variables; sorting by variable
     index makes the row canonical regardless of construction order *)
  let ts = List.sort (fun (_, a) (_, d) -> compare a d) ts in
  int b (List.length ts);
  List.iter
    (fun (c, v) ->
      flt b c;
      int b v)
    ts

let lp m =
  let b = Buffer.create 16384 in
  str b "lp:v1";
  int b (Milp.Lp.n_vars m);
  for v = 0 to Milp.Lp.n_vars m - 1 do
    let lo, hi = Milp.Lp.bounds m v in
    flt b lo;
    flt b hi;
    tag b (var_kind_tag (Milp.Lp.var_kind m v))
  done;
  int b (Milp.Lp.n_constrs m);
  for r = 0 to Milp.Lp.n_constrs m - 1 do
    let ts, rel, rhs = Milp.Lp.constr m r in
    terms b ts;
    tag b (relation_tag rel);
    flt b rhs
  done;
  let maximize, obj = Milp.Lp.objective m in
  bool b maximize;
  terms b obj;
  Sha256.hex (Buffer.contents b)

(* ------------------------------------------------------------------ *)

let combine parts =
  let b = Buffer.create 256 in
  str b "combine:v1";
  int b (List.length parts);
  List.iter (str b) parts;
  Sha256.hex (Buffer.contents b)
