(* Verified narrowing: rewrite a DFG to the envelope proven by [Analyze].

   Four rewrites, all justified by latency-insensitivity (consumers only
   observe token values and arrival order, which every rewrite preserves)
   and backstopped downstream by the random-simulation equivalence gate:

   - width narrowing: a unit whose every kept output provably carries
     values below [2^k] is re-emitted at width [k] (never widened, and
     never below a data producer feeding a truncation-checked port);
   - constant folding: an operator whose output is a proven singleton [v]
     becomes Join(arity) -> Const v — same firing condition (all inputs
     valid), same value;
   - dead-branch elision: a Branch whose condition bit is a proven
     constant becomes Join2(data, cond) feeding the taken side (identical
     valid/ready equations), dropping the never-firing output;
   - mux/control-merge specialisation: a Mux whose selector proves a
     single live arm becomes Join2(arm, sel); a Control_merge with exactly
     one live input becomes Fork2 feeding Const 0 (token out) and Const k
     (index out), matching its per-output delivery semantics.

   Units all of whose inputs are proven token-free never fire and are
   deleted.  Every dropped channel must have BOTH endpoints' ports dropped
   (producer deleted/rewritten away and consumer deleted/rewritten away);
   a consistency fixpoint cancels any candidate whose frontier does not
   line up, so the pass degrades to the identity instead of emitting a
   dangling port. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind
module Ops = Dataflow.Ops
module V = Value

type entry = {
  nr_uid : G.unit_id;  (** uid in the original graph *)
  nr_label : string;
  nr_old_width : int;
  nr_new_width : int;
  nr_range : string;
}

type report = {
  r_narrowed : entry list;
  r_folded : (G.unit_id * string * int) list;
  r_rewired : (G.unit_id * string * string) list;
  r_deleted : (G.unit_id * string) list;
  r_bits_before : int;
  r_bits_after : int;
  r_units_before : int;
  r_units_after : int;
  r_diverged : bool;
}

let changed r =
  r.r_narrowed <> [] || r.r_folded <> [] || r.r_rewired <> [] || r.r_deleted <> []

let identity_report g ~diverged =
  let bits = G.fold_channels g (fun acc c -> acc + max 0 c.G.width) 0 in
  {
    r_narrowed = [];
    r_folded = [];
    r_rewired = [];
    r_deleted = [];
    r_bits_before = bits;
    r_bits_after = bits;
    r_units_before = G.n_units g;
    r_units_after = G.n_units g;
    r_diverged = diverged;
  }

(* Mapping from an original unit to its replacement in the rebuilt graph. *)
type remap =
  | Drop
  | Plain of G.unit_id
  | Fold of G.unit_id * G.unit_id  (* join, const *)
  | Rejoin of G.unit_id  (* Branch/Mux collapsed to a Join2 *)
  | Refork of G.unit_id * G.unit_id * G.unit_id  (* fork, const0, constk *)

let run (res : Analyze.result) g =
  if res.diverged then (G.copy g, identity_report g ~diverged:true)
  else begin
    let nu = G.n_units g in
    let val_of cid = res.Analyze.values.(cid) in
    let in_vals (n : G.node) =
      Array.to_list n.G.ins
      |> List.map (function Some cid -> val_of cid | None -> V.Bot)
    in
    (* ---- candidate selection ---- *)
    let dead = Array.make nu false in
    let branch_rw = Array.make nu None in
    let mux_rw = Array.make nu None in
    let cmerge_rw = Array.make nu None in
    let fold_rw = Array.make nu None in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        let ins = in_vals n in
        let all_connected = Array.for_all Option.is_some n.G.ins in
        let all_bot = ins <> [] && List.for_all V.is_bot ins in
        match n.G.kind with
        | K.Exit -> ()
        | _ when all_connected && all_bot -> dead.(u) <- true
        | K.Branch when all_connected && not (List.exists V.is_bot ins) -> (
            match Analyze.cond_cases (List.nth ins 1) with
            | true, false -> branch_rw.(u) <- Some 0
            | false, true -> branch_rw.(u) <- Some 1
            | _ -> ())
        | K.Mux _ when all_connected -> (
            let sel = List.hd ins and arms_v = List.tl ins in
            let arms = List.length arms_v in
            match Analyze.mux_arms ~sel ~arms with
            | [ k ] ->
                let only_k_live =
                  List.for_all2
                    (fun j v -> if j = k then not (V.is_bot v) else V.is_bot v)
                    (List.init arms Fun.id) arms_v
                in
                if only_k_live then mux_rw.(u) <- Some k
            | _ -> ())
        | K.Control_merge _ when all_connected -> (
            let live = List.filteri (fun _ v -> not (V.is_bot v)) ins in
            match (live, ins) with
            | [ _ ], _ ->
                let k = ref (-1) in
                List.iteri (fun i v -> if not (V.is_bot v) then k := i) ins;
                cmerge_rw.(u) <- Some !k
            | _ -> ())
        | K.Operator _ when all_connected && not (List.exists V.is_bot ins) -> (
            match n.G.outs.(0) with
            | Some cid -> (
                match V.is_const (val_of cid) with
                | Some v -> fold_rw.(u) <- Some v
                | None -> ())
            | None -> ())
        | _ -> ());
    (* ---- consistency fixpoint on dropped ports ---- *)
    let dropped_out u p =
      dead.(u)
      || match branch_rw.(u) with Some taken -> p = 1 - taken | None -> false
    in
    let dropped_in u p =
      dead.(u)
      || (match mux_rw.(u) with Some k -> p > 0 && p <> k + 1 | None -> false)
      || match cmerge_rw.(u) with Some k -> p <> k | None -> false
    in
    let stable = ref false in
    while not !stable do
      stable := true;
      G.iter_channels g (fun c ->
          let so = dropped_out c.G.src c.G.src_port
          and si = dropped_in c.G.dst c.G.dst_port in
          if so <> si then begin
            stable := false;
            if so then
              if dead.(c.G.src) then dead.(c.G.src) <- false
              else branch_rw.(c.G.src) <- None
            else if dead.(c.G.dst) then dead.(c.G.dst) <- false
            else begin
              mux_rw.(c.G.dst) <- None;
              cmerge_rw.(c.G.dst) <- None
            end
          end)
    done;
    (* ---- final widths ---- *)
    let narrowable w = w >= 1 && w < 62 in
    let fold_width u =
      match fold_rw.(u) with
      | Some v ->
          let w = (G.unit_node g u).G.width in
          if narrowable w then Some (max 1 (min w (V.bits v))) else Some w
      | None -> None
    in
    let final = Array.make nu 0 in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        let w = n.G.width in
        final.(u) <-
          (if (not (narrowable w)) || Array.length n.G.outs = 0 then w
           else
             match (n.G.kind, fold_width u) with
             | _, Some fw -> fw
             | (K.Load _ | K.Store _), None -> w
             | _, None ->
                 let needed = ref 0 in
                 Array.iteri
                   (fun p cid ->
                     match cid with
                     | Some cid when not (dropped_out u p) ->
                         needed := max !needed (V.needed_width w (val_of cid))
                     | _ -> ())
                   n.G.outs;
                 max 1 (min w !needed)));
    (* Producers feeding truncation-checked ports (see dfg-width-mismatch)
       must not end up wider than the consumer: raise the consumer back up
       to the widest such producer.  Iterate, since raising a consumer can
       affect its own consumers. *)
    let producer_width u =
      match fold_width u with Some fw -> fw | None -> final.(u)
    in
    let checked_ports (n : G.node) =
      if dead.(n.G.uid) then []
      else
        match n.G.kind with
        | K.Operator { op = Ops.Icmp _; _ } -> []
        | _ when fold_rw.(n.G.uid) <> None -> []
        | K.Operator { op; _ } -> (
            match Ops.arity op with 3 -> [ 1; 2 ] | 2 -> [ 0; 1 ] | _ -> [ 0 ])
        | K.Mux m when mux_rw.(n.G.uid) = None -> List.init m (fun i -> i + 1)
        | K.Merge m -> List.init m Fun.id
        | K.Branch when branch_rw.(n.G.uid) = None -> [ 0 ]
        | K.Buffer _ -> [ 0 ]
        | _ -> []
    in
    let stable = ref false in
    while not !stable do
      stable := true;
      G.iter_units g (fun n ->
          let u = n.G.uid in
          if narrowable n.G.width && fold_rw.(u) = None then
            List.iter
              (fun p ->
                match n.G.ins.(p) with
                | Some cid ->
                    let pw = producer_width (G.channel g cid).G.src in
                    if pw > final.(u) && final.(u) < n.G.width then begin
                      final.(u) <- min n.G.width pw;
                      stable := false
                    end
                | None -> ())
              (checked_ports n))
    done;
    (* ---- rebuild ---- *)
    let ng = G.create (G.name g) in
    List.iter (fun (m, sz) -> G.add_memory ng m sz) (G.memories g);
    let remap = Array.make nu Drop in
    let rewired = ref [] and folded = ref [] and deleted = ref [] in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        let bb = n.G.bb and label = n.G.label in
        let w = final.(u) in
        if dead.(u) then deleted := (u, label) :: !deleted
        else
          match (n.G.kind, branch_rw.(u), mux_rw.(u), cmerge_rw.(u), fold_rw.(u)) with
          | _, _, _, _, Some v ->
              let arity = Array.length n.G.ins in
              let wjoin =
                Array.fold_left
                  (fun acc cid ->
                    match cid with
                    | Some cid -> max acc (producer_width (G.channel g cid).G.src)
                    | None -> acc)
                  1 n.G.ins
              in
              let j = G.add_unit ng ~label:(label ^ "_gate") ~bb ~width:wjoin (K.Join arity) in
              let c = G.add_unit ng ~label:(label ^ "_fold") ~bb ~width:w (K.Const v) in
              remap.(u) <- Fold (j, c);
              folded := (u, label, v) :: !folded
          | K.Branch, Some taken, _, _, _ ->
              let j = G.add_unit ng ~label:(label ^ "_taken") ~bb ~width:w (K.Join 2) in
              remap.(u) <- Rejoin j;
              rewired :=
                (u, label, Printf.sprintf "branch->join (always %s)" (if taken = 0 then "true" else "false"))
                :: !rewired
          | K.Mux _, _, Some k, _, _ ->
              let j = G.add_unit ng ~label:(label ^ "_arm") ~bb ~width:w (K.Join 2) in
              remap.(u) <- Rejoin j;
              rewired := (u, label, Printf.sprintf "mux->join (arm %d)" k) :: !rewired
          | K.Control_merge _, _, _, Some k, _ ->
              (* the fork only relays the live token's handshake; its data
                 is regenerated by the Consts, so it must take its INPUT's
                 width (fork elaboration wires output bits straight from
                 input bits — a wider fork would read past a narrow or
                 width-0 control channel) *)
              let wf =
                match n.G.ins.(k) with
                | Some cid -> producer_width (G.channel g cid).G.src
                | None -> 0
              in
              let f = G.add_unit ng ~label:(label ^ "_live") ~bb ~width:wf (K.Fork 2) in
              let c0 = G.add_unit ng ~label:(label ^ "_tok") ~bb ~width:w (K.Const 0) in
              let ck = G.add_unit ng ~label:(label ^ "_idx") ~bb ~width:w (K.Const k) in
              remap.(u) <- Refork (f, c0, ck);
              rewired := (u, label, Printf.sprintf "cmerge->fork (input %d)" k) :: !rewired
          | kind, _, _, _, _ ->
              let kind =
                match kind with
                | K.Const k when narrowable n.G.width ->
                    K.Const (k land ((1 lsl min n.G.width 61) - 1))
                | k -> k
              in
              remap.(u) <- Plain (G.add_unit ng ~label ~bb ~width:w kind));
    let src_endpoint u p =
      match remap.(u) with
      | Plain nu -> (nu, p)
      | Fold (_, c) -> (c, 0)
      | Rejoin j -> (j, 0)
      | Refork (_, c0, ck) -> if p = 0 then (c0, 0) else (ck, 0)
      | Drop -> assert false
    in
    let dst_endpoint u p =
      match remap.(u) with
      | Plain nu -> (nu, p)
      | Fold (j, _) -> (j, p)
      | Rejoin j -> (
          match (G.unit_node g u).G.kind with
          | K.Branch -> (j, p) (* data -> 0, cond -> 1 *)
          | K.Mux _ -> if p = 0 then (j, 1) else (j, 0)
          | _ -> assert false)
      | Refork (f, _, _) -> (f, 0)
      | Drop -> assert false
    in
    G.iter_channels g (fun c ->
        let so = dropped_out c.G.src c.G.src_port in
        if not so then begin
          let src, src_port = src_endpoint c.G.src c.G.src_port in
          let dst, dst_port = dst_endpoint c.G.dst c.G.dst_port in
          let cid = G.connect ng ~src ~src_port ~dst ~dst_port in
          if c.G.back then G.set_back_edge ng cid;
          match c.G.buffer with Some b -> G.set_buffer ng cid (Some b) | None -> ()
        end);
    (* internal channels of the rewrites *)
    Array.iter
      (function
        | Fold (j, c) -> ignore (G.connect ng ~src:j ~src_port:0 ~dst:c ~dst_port:0)
        | Refork (f, c0, ck) ->
            ignore (G.connect ng ~src:f ~src_port:0 ~dst:c0 ~dst_port:0);
            ignore (G.connect ng ~src:f ~src_port:1 ~dst:ck ~dst_port:0)
        | _ -> ())
      remap;
    (match G.validate ng with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "Absint.Narrow produced an invalid graph: %s" e));
    (* ---- report ---- *)
    let narrowed = ref [] in
    G.iter_units g (fun n ->
        let u = n.G.uid in
        match remap.(u) with
        | Plain _ when final.(u) < n.G.width ->
            let range =
              match n.G.outs with
              | [| Some cid |] -> V.to_string ~width:n.G.width (val_of cid)
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
              :: !narrowed
        | _ -> ());
    let bits gr = G.fold_channels gr (fun acc c -> acc + max 0 c.G.width) 0 in
    let report =
      {
        r_narrowed = List.rev !narrowed;
        r_folded = List.rev !folded;
        r_rewired = List.rev !rewired;
        r_deleted = List.rev !deleted;
        r_bits_before = bits g;
        r_bits_after = bits ng;
        r_units_before = G.n_units g;
        r_units_after = G.n_units ng;
        r_diverged = false;
      }
    in
    (ng, report)
  end

let pp_report fmt r =
  let open Format in
  if r.r_diverged then pp_print_string fmt "analysis diverged; graph left unchanged"
  else begin
    fprintf fmt "units: %d -> %d, channel bits: %d -> %d" r.r_units_before r.r_units_after
      r.r_bits_before r.r_bits_after;
    List.iter
      (fun e ->
        fprintf fmt "@\n  narrow %s#%d: %d -> %d bits%s" e.nr_label e.nr_uid e.nr_old_width
          e.nr_new_width
          (if e.nr_range = "" then "" else "  " ^ e.nr_range))
      r.r_narrowed;
    List.iter (fun (u, l, v) -> fprintf fmt "@\n  fold %s#%d = %d" l u v) r.r_folded;
    List.iter (fun (u, l, what) -> fprintf fmt "@\n  rewire %s#%d: %s" l u what) r.r_rewired;
    List.iter (fun (u, l) -> fprintf fmt "@\n  delete %s#%d" l u) r.r_deleted
  end
