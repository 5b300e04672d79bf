(* Pass 1 of the translation validator: combinational equivalence of the
   elaborated netlist, the rewritten AIG and the K-feasible LUT cover by
   64-bit-parallel random simulation. Each [int64] word carries 64
   independent input lanes, so one pass over each representation checks
   64 vectors; a word mismatch yields a concrete counterexample lane
   with no false positives. *)

module L = Techmap.Lutgraph
module Aig = Techmap.Aig
module Synth = Techmap.Synth
module Truth = Techmap.Truth
module Rng = Support.Rng
module Trace = Support.Trace

type lane = {
  lane_gates : (int * bool) list;  (* netlist Input/Ff gate id -> stimulus *)
  lane_cis : (int * bool) list;    (* AIG CI node id -> the same stimulus *)
}

type mismatch =
  | Aig_mismatch of { co : int; tag : int; lane : lane }
      (** netlist vs. AIG: combinational output [co] (driving netlist
          gate [tag]) disagrees — strash/fold/rewrite broke the
          function. *)
  | Cover_mismatch of { lut : int; lane : lane }
      (** LUT cover vs. AIG: LUT [lut] is the first (in topological
          order) whose output disagrees with its AIG root, so its leaf
          values agree and the defect is local to this cut. *)
  | Cover_co_mismatch of { co : int; tag : int; lane : lane }
      (** LUT cover vs. netlist at a combinational output: the cover's
          output wiring (root-to-CO literal) is wrong. *)
  | Cover_structural of { lut : int; reason : string }
      (** the cover is not even well-formed: oversized cut, duplicate or
          unmapped leaf, broken root back-pointer, unbuildable truth
          table. *)

type result = {
  cos_checked : int;
  luts_checked : int;
  vectors : int;
  signatures : (int * int64) list;
      (** per-combinational-output semantic hash [(tag, hash)] of the
          netlist function, in CO order — byte-identical across runs
          with equal seed/vectors, whatever the worker-pool width *)
  mismatches : mismatch list;  (* in detection order *)
}

(* SplitMix64-style combine: fold a simulation word into a signature. *)
let mix h w =
  let open Int64 in
  let z = add (logxor h w) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let signature_hex r =
  Printf.sprintf "%016Lx"
    (List.fold_left
       (fun acc (tag, h) -> mix acc (Int64.logxor (Int64.of_int tag) h))
       0x5851F42D4C957F2DL r.signatures)

(* ---- netlist word evaluation ---- *)

(* Kahn topological order over the combinational dependency edges
   (Input/Ff/Const gates are sources; an FF's D fanin is a consumer of
   the combinational frame, not a dependency of the FF's output). *)
let topo_order net =
  let succs = Array.make (Net.n_gates net) [] in
  Net.iter net (fun g ->
      match g.Net.kind with
      | Net.Input _ | Net.Ff _ | Net.Const _ -> ()
      | _ -> Array.iter (fun f -> if f >= 0 then succs.(f) <- g.Net.id :: succs.(f)) g.Net.fanins);
  match Support.Digraph.topo succs with
  | order, [] -> order
  | _ -> failwith "Tv.Equiv: combinational cycle in netlist"

(* One combinational frame over 64 lanes; [stim] holds the word of every
   Input/Ff gate (the frame's free variables). *)
let eval_net_words net order stim =
  let n = Net.n_gates net in
  let value = Array.make n 0L in
  Array.iter
    (fun id ->
      let g = Net.gate net id in
      let f i = if g.Net.fanins.(i) >= 0 then value.(g.Net.fanins.(i)) else 0L in
      value.(id) <-
        (match g.Net.kind with
        | Net.Input _ | Net.Ff _ -> stim.(id)
        | Net.Const b -> if b then -1L else 0L
        | Net.Buf | Net.Output _ -> f 0
        | Net.Not -> Int64.lognot (f 0)
        | Net.And2 -> Int64.logand (f 0) (f 1)
        | Net.Or2 -> Int64.logor (f 0) (f 1)
        | Net.Xor2 -> Int64.logxor (f 0) (f 1)))
    order;
  value

(* ---- AIG word evaluation ---- *)

let word_of_lit w lit =
  let x = w.(Aig.node_of_lit lit) in
  if Aig.is_complement lit then Int64.lognot x else x

let eval_aig_words aig ci_words =
  let n = Aig.n_nodes aig in
  let w = Array.make n 0L in
  for v = 1 to n - 1 do
    if Aig.is_ci aig v then w.(v) <- ci_words.(v)
    else begin
      let f0, f1 = Aig.fanins aig v in
      w.(v) <- Int64.logand (word_of_lit w f0) (word_of_lit w f1)
    end
  done;
  w

(* ---- LUT cover word evaluation ---- *)

(* LUT ids sorted by AIG root: fanins reference lower node ids, so root
   order is a topological order of the cover. *)
let lut_order (lg : L.t) =
  let order = Array.init (Array.length lg.L.luts) (fun i -> i) in
  Array.sort (fun a b -> compare lg.L.luts.(a).L.root lg.L.luts.(b).L.root) order;
  order

let eval_cover_words (lg : L.t) tables order ci_words =
  let aig = lg.L.synth.Synth.aig in
  let out = Array.make (Array.length lg.L.luts) 0L in
  let leaf_word leaf =
    if leaf = 0 then 0L
    else if Aig.is_ci aig leaf then ci_words.(leaf)
    else match lg.L.lut_of_node.(leaf) with -1 -> 0L | lid -> out.(lid)
  in
  Array.iter
    (fun lid ->
      match tables.(lid) with
      | Error _ -> ()
      | Ok table ->
        let l = lg.L.luts.(lid) in
        let nl = Array.length l.L.leaves in
        let words = Array.map leaf_word l.L.leaves in
        let r = ref 0L in
        for bit = 0 to 63 do
          let idx = ref 0 in
          for i = 0 to nl - 1 do
            if Int64.logand (Int64.shift_right_logical words.(i) bit) 1L = 1L then
              idx := !idx lor (1 lsl i)
          done;
          if Int64.logand (Int64.shift_right_logical table !idx) 1L = 1L then
            r := Int64.logor !r (Int64.shift_left 1L bit)
        done;
        out.(lid) <- !r)
    order;
  out

let cover_word_of_lit (lg : L.t) out ci_words lit =
  let aig = lg.L.synth.Synth.aig in
  let v = Aig.node_of_lit lit in
  let base =
    if v = 0 then 0L
    else if Aig.is_ci aig v then ci_words.(v)
    else match lg.L.lut_of_node.(v) with -1 -> 0L | lid -> out.(lid)
  in
  if Aig.is_complement lit then Int64.lognot base else base

(* ---- stimulus and witness lanes ---- *)

let stim_gates net =
  let acc = ref [] in
  Net.iter net (fun g ->
      match g.Net.kind with
      | Net.Input _ | Net.Ff _ -> acc := g.Net.id :: !acc
      | _ -> ());
  List.rev !acc

let lane_of ~bit net aig stim ci_words =
  let bitv w = Int64.logand (Int64.shift_right_logical w bit) 1L = 1L in
  let lane_gates = List.map (fun gid -> (gid, bitv stim.(gid))) (stim_gates net) in
  let lane_cis = ref [] in
  for v = Aig.n_nodes aig - 1 downto 1 do
    if Aig.is_ci aig v then lane_cis := (v, bitv ci_words.(v)) :: !lane_cis
  done;
  { lane_gates; lane_cis = !lane_cis }

let lowest_diff_bit a b =
  let x = Int64.logxor a b in
  let rec find i = if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then i else find (i + 1) in
  find 0

(* ---- the main pass ---- *)

(* 256 vectors (four 64-lane words) from a fixed seed *)
let vectors = 256
let seed = 0x7ea

let run net (lg : L.t) =
  Trace.with_span ~cat:"tv" "tv:equiv" @@ fun () ->
  let synth = lg.L.synth in
  let aig = synth.Synth.aig in
  let n_luts = Array.length lg.L.luts in
  let mismatches = ref [] in
  let add_mis m = mismatches := m :: !mismatches in
  (* structural audit of the cover: everything the word evaluation is
     about to rely on *)
  let struct_bad = Array.make n_luts false in
  Array.iter
    (fun (l : L.lut) ->
      let bad reason =
        struct_bad.(l.L.lid) <- true;
        add_mis (Cover_structural { lut = l.L.lid; reason })
      in
      if Array.length l.L.leaves > L.lut_k then
        bad (Printf.sprintf "%d leaves exceed K=%d" (Array.length l.L.leaves) L.lut_k);
      if l.L.root <= 0 || l.L.root >= Aig.n_nodes aig then bad "root node out of range"
      else if lg.L.lut_of_node.(l.L.root) <> l.L.lid then
        bad "root does not map back to this LUT";
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun leaf ->
          if Hashtbl.mem seen leaf then bad (Printf.sprintf "duplicate leaf %d" leaf)
          else Hashtbl.replace seen leaf ();
          if leaf <> 0 && (not (Aig.is_ci aig leaf)) && lg.L.lut_of_node.(leaf) = -1 then
            bad (Printf.sprintf "leaf %d is neither a CI nor a mapped LUT root" leaf))
        l.L.leaves)
    lg.L.luts;
  let tables =
    Array.init n_luts (fun lid ->
        if struct_bad.(lid) then Error "structurally invalid"
        else
          match Truth.lut_table lg lid with
          | table -> Ok table
          | exception Invalid_argument msg ->
            struct_bad.(lid) <- true;
            add_mis (Cover_structural { lut = lid; reason = "truth table: " ^ msg });
            Error msg)
  in
  let order = topo_order net in
  let lorder = lut_order lg in
  let cos = Aig.cos aig in
  let n_cos = List.length cos in
  let sign = Array.make n_cos 0x5851F42D4C957F2DL in
  let rng = Rng.create seed in
  let rounds = max 1 ((vectors + 63) / 64) in
  let aig_flagged = Hashtbl.create 8 in
  let cover_co_flagged = Hashtbl.create 8 in
  let cover_lut_flagged = ref false in
  for _round = 1 to rounds do
    (* shared stimulus: one word per netlist Input/Ff gate, replicated
       onto the matching AIG CI through [gate_of_ci] *)
    let stim = Array.make (Net.n_gates net) 0L in
    List.iter (fun gid -> stim.(gid) <- Rng.int64 rng) (stim_gates net);
    let ci_words = Array.make (Aig.n_nodes aig) 0L in
    for v = 1 to Aig.n_nodes aig - 1 do
      if Aig.is_ci aig v then
        match Hashtbl.find_opt synth.Synth.gate_of_ci v with
        | Some gid -> ci_words.(v) <- stim.(gid)
        | None -> ()
    done;
    let net_words = eval_net_words net order stim in
    let aig_words = eval_aig_words aig ci_words in
    let cover_out = eval_cover_words lg tables lorder ci_words in
    (* netlist vs. AIG and netlist vs. cover, per combinational output *)
    List.iter
      (fun (co, tag, lit) ->
        let g = Net.gate net tag in
        let wn = if g.Net.fanins.(0) >= 0 then net_words.(g.Net.fanins.(0)) else 0L in
        sign.(co) <- mix sign.(co) wn;
        let wa = word_of_lit aig_words lit in
        if wn <> wa && not (Hashtbl.mem aig_flagged tag) then begin
          Hashtbl.replace aig_flagged tag ();
          let bit = lowest_diff_bit wn wa in
          add_mis (Aig_mismatch { co; tag; lane = lane_of ~bit net aig stim ci_words })
        end;
        let wc = cover_word_of_lit lg cover_out ci_words lit in
        if wn <> wc && not (Hashtbl.mem cover_co_flagged tag) then begin
          Hashtbl.replace cover_co_flagged tag ();
          let bit = lowest_diff_bit wn wc in
          add_mis (Cover_co_mismatch { co; tag; lane = lane_of ~bit net aig stim ci_words })
        end)
      cos;
    (* cover vs. AIG, per LUT: localises a cut defect to the first
       topological LUT whose output disagrees while its leaves agree *)
    if not !cover_lut_flagged then
      Array.iter
        (fun lid ->
          if (not !cover_lut_flagged) && not struct_bad.(lid) then begin
            let l = lg.L.luts.(lid) in
            let wa = aig_words.(l.L.root) in
            if cover_out.(lid) <> wa then begin
              cover_lut_flagged := true;
              let bit = lowest_diff_bit cover_out.(lid) wa in
              add_mis (Cover_mismatch { lut = lid; lane = lane_of ~bit net aig stim ci_words })
            end
          end)
        lorder
  done;
  let mismatches = List.rev !mismatches in
  let r =
    {
      cos_checked = n_cos;
      luts_checked = n_luts;
      vectors = rounds * 64;
      signatures = List.map (fun (co, tag, _) -> (tag, sign.(co))) cos;
      mismatches;
    }
  in
  Trace.add "tv.vectors" r.vectors;
  Trace.add "tv.cos" r.cos_checked;
  Trace.add "tv.luts" r.luts_checked;
  Trace.add "tv.mismatches" (List.length r.mismatches);
  r
