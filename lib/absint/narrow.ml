(* Verified narrowing: shrink a DFG's unit widths to the envelope proven
   by [Analyze].

   A unit whose every output provably carries values below [2^k] is
   re-emitted at width [k] (never widened, never below 1 bit, loads and
   stores untouched), then raised again where a data producer feeding a
   truncation-checked port would otherwise be wider than its consumer.
   Consumers observe only token values and arrival order, which a sound
   width shrink preserves; the flow backstops the analysis with the
   random-simulation equivalence gate.  The output has the input's units,
   channels, ids, labels, back-edge marks and buffers; only widths change
   (and [Const] values are masked to their unit's width).  Constant
   steering is left in place; the range lints report it. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops
module V = Value

type entry = {
  nr_uid : G.unit_id;
  nr_label : string;
  nr_old_width : int;
  nr_new_width : int;
  nr_range : string;
}

type report = {
  r_narrowed : entry list;
  r_bits_before : int;
  r_bits_after : int;
  r_diverged : bool;
}

let changed r = r.r_narrowed <> []
let bits g = G.fold_channels g (fun acc c -> acc + max 0 c.G.width) 0
let narrowable w = w >= 1 && w < 62

(* Input ports whose producer must not be wider than the unit (see
   dfg-width-mismatch). *)
let checked_ports (n : G.node) =
  match n.G.kind with
  | K.Operator { op = Ops.Icmp _; _ } -> []
  | K.Operator { op; _ } -> (
      match Ops.arity op with 3 -> [ 1; 2 ] | 2 -> [ 0; 1 ] | _ -> [ 0 ])
  | K.Mux m -> List.init m (fun i -> i + 1)
  | K.Merge m -> List.init m Fun.id
  | K.Branch | K.Buffer _ -> [ 0 ]
  | _ -> []

let final_widths (res : Analyze.result) g =
  let final = Array.make (G.n_units g) 0 in
  G.iter_units g (fun n ->
      let w = n.G.width in
      final.(n.G.uid) <-
        (match n.G.kind with
        | _ when (not (narrowable w)) || Array.length n.G.outs = 0 -> w
        | K.Load _ | K.Store _ -> w
        | _ ->
            let needed =
              Array.fold_left
                (fun acc -> function
                  | Some cid -> max acc (V.needed_width w res.Analyze.values.(cid))
                  | None -> acc)
                0 n.G.outs
            in
            max 1 (min w needed)));
  (* Raise a consumer back up to its widest producer on a checked port;
     iterate, since raising a consumer can affect its own consumers. *)
  let stable = ref false in
  while not !stable do
    stable := true;
    G.iter_units g (fun n ->
        let u = n.G.uid in
        if narrowable n.G.width then
          List.iter
            (fun p ->
              match n.G.ins.(p) with
              | Some cid ->
                  let pw = final.((G.channel g cid).G.src) in
                  if pw > final.(u) && final.(u) < n.G.width then begin
                    final.(u) <- min n.G.width pw;
                    stable := false
                  end
              | None -> ())
            (checked_ports n))
  done;
  final

let run (res : Analyze.result) g =
  if res.diverged then
    (G.copy g, { r_narrowed = []; r_bits_before = bits g; r_bits_after = bits g; r_diverged = true })
  else begin
    let final = final_widths res g in
    let ng = G.create (G.name g) in
    List.iter (fun (m, sz) -> G.add_memory ng m sz) (G.memories g);
    G.iter_units g (fun n ->
        let kind =
          match n.G.kind with
          | K.Const k when narrowable n.G.width -> K.Const (k land ((1 lsl min n.G.width 61) - 1))
          | k -> k
        in
        ignore (G.add_unit ng ~label:n.G.label ~bb:n.G.bb ~width:final.(n.G.uid) kind));
    G.iter_channels g (fun c ->
        let cid = G.connect ng ~src:c.G.src ~src_port:c.G.src_port ~dst:c.G.dst ~dst_port:c.G.dst_port in
        if c.G.back then G.set_back_edge ng cid;
        G.set_buffer ng cid c.G.buffer);
    let narrowed = ref [] in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        if final.(u) < n.G.width then
          let range =
            match n.G.outs with
            | [| Some cid |] -> V.to_string ~width:n.G.width res.Analyze.values.(cid)
            | _ -> ""
          in
          narrowed :=
            {
              nr_uid = u;
              nr_label = n.G.label;
              nr_old_width = n.G.width;
              nr_new_width = final.(u);
              nr_range = range;
            }
            :: !narrowed);
    ( ng,
      {
        r_narrowed = List.rev !narrowed;
        r_bits_before = bits g;
        r_bits_after = bits ng;
        r_diverged = false;
      } )
  end

let pp_report fmt r =
  let open Format in
  if r.r_diverged then pp_print_string fmt "analysis diverged; graph left unchanged"
  else begin
    fprintf fmt "channel bits: %d -> %d" r.r_bits_before r.r_bits_after;
    List.iter
      (fun e ->
        fprintf fmt "@\n  narrow %s#%d: %d -> %d bits%s" e.nr_label e.nr_uid e.nr_old_width
          e.nr_new_width
          (if e.nr_range = "" then "" else "  " ^ e.nr_range))
      r.r_narrowed
  end
