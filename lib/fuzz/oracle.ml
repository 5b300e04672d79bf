module G = Dataflow.Graph
module C = Analysis.Certify

type check = { kind : string; flavor : string; detail : string }

type report = {
  seed : int;
  features : (string * int) list;
  violations : check list;
  explained : check list;
  source : string;
}

let flow_config =
  {
    Core.Flow.default_config with
    Core.Flow.max_iterations = 2;
    (* optimality is irrelevant to the oracle — every invariant must hold
       for whatever incumbent the budget produces — so the node budget is
       tiny and the campaign's cost stays dominated by synthesis/sim *)
    milp = { Core.Flow.default_config.Core.Flow.milp with Buffering.Formulation.node_limit = 32 };
  }

let sim_config = { Sim.Elastic.default_config with Sim.Elastic.max_cycles = 200_000 }

(* The per-SCC steady-state bound equalizes rates only in choice-free
   circuits. A nested loop merges the inner loop into the outer loop's
   SCC, and the inner channels legitimately sustain a higher rate than
   the SCC's worst cycle ratio — so the sim-vs-bound invariant is only
   sound (and only checked) on nesting-free programs. *)
let has_nested_loops (f : Hls.Ast.func) =
  let rec stmt ~in_loop = function
    | Hls.Ast.While (_, b) | Hls.Ast.For (_, _, _, b) -> in_loop || stmts ~in_loop:true b
    | Hls.Ast.If (_, t, e) -> stmts ~in_loop t || stmts ~in_loop e
    | _ -> false
  and stmts ~in_loop ss = List.exists (stmt ~in_loop) ss in
  stmts ~in_loop:false f.Hls.Ast.body

(* transfers on intra-SCC channels never exceed bound * cycles (+ slack
   for pipeline fill): the simulator must not outrun the certificate *)
let check_sim_bound (cert : C.t) (sim : Sim.Elastic.result) g =
  let cycles = float_of_int sim.Sim.Elastic.cycles in
  let bad = ref [] in
  List.iter
    (fun (s : C.scc_cert) ->
      let members = Hashtbl.create 16 in
      List.iter (fun u -> Hashtbl.replace members u ()) s.C.sc_units;
      G.iter_channels g (fun ch ->
          if Hashtbl.mem members ch.G.src && Hashtbl.mem members ch.G.dst then begin
            let t = sim.Sim.Elastic.channel_stats.(ch.G.cid).Sim.Elastic.cs_transfers in
            if float_of_int t > (s.C.sc_bound *. cycles) +. 4. then
              bad :=
                Printf.sprintf "c%d: %d transfers > %.4f*%d+4" ch.G.cid t s.C.sc_bound
                  sim.Sim.Elastic.cycles
                :: !bad
          end))
    cert.C.sccs;
  !bad

let mems_equal a b =
  List.length a = List.length b
  && List.for_all
       (fun (n, arr) ->
         match List.assoc_opt n b with Some arr' -> arr = arr' | None -> false)
       a

let pp_mems fmt ms =
  List.iter
    (fun (n, arr) ->
      Format.fprintf fmt "%s=[%s] " n
        (String.concat "," (List.map string_of_int (Array.to_list arr))))
    ms

let check_program ?(config = flow_config) ?(session = Core.Session.make ()) ?(mutations = 2)
    (p : Hls.Generate.program) =
  let seed = p.Hls.Generate.seed in
  let violations = ref [] in
  let explained = ref [] in
  let fail ~flavor kind detail = violations := { kind; flavor; detail } :: !violations in
  let explain ~flavor kind detail = explained := { kind; flavor; detail } :: !explained in
  Support.Trace.add "fuzz.kernels" 1;
  (* front end: round-trip, reference run, compile *)
  (try
     if Hls.Parser.parse p.Hls.Generate.source <> p.Hls.Generate.func then
       fail ~flavor:"front-end" "parse-roundtrip" "re-parsed AST differs"
   with e ->
     fail ~flavor:"front-end" "parse-roundtrip" (Printexc.to_string e));
  let ref_mems = Hls.Generate.fresh_memories p in
  let reference =
    try Some (Hls.Interp.run p.Hls.Generate.func ~args:p.Hls.Generate.args ~memories:ref_mems)
    with e ->
      fail ~flavor:"front-end" "interp-error" (Printexc.to_string e);
      None
  in
  let graph =
    try
      let g = Hls.Compile.compile ~args:p.Hls.Generate.args p.Hls.Generate.func in
      (match G.validate g with
      | Ok () -> ()
      | Error m -> fail ~flavor:"front-end" "invalid-graph" m);
      Some g
    with e ->
      fail ~flavor:"front-end" "compile-error" (Printexc.to_string e);
      None
  in
  (match (graph, reference) with
  | Some g0, Some ref_value ->
    (* narrowing differential: the Absint.Narrow rewrite alone (no
       buffering, so failures implicate the analysis and not the MILP)
       must keep the interpreter's exit value and memory state, and
       random simulation against the un-narrowed graph must agree. *)
    (let flavor = "narrow" in
     try
       let gs = G.copy g0 in
       ignore (Core.Flow.seed_back_edges gs);
       let res = Absint.Analyze.run gs in
       let gn, report = Absint.Narrow.run res gs in
       if Absint.Narrow.changed report then begin
         Support.Trace.add "fuzz.narrowed" 1;
         (match Tv.Simdiff.check ~seed:(0xab51 + seed) ~original:gs ~variant:gn () with
         | [] -> ()
         | msgs -> fail ~flavor "narrow-equiv" (String.concat "; " msgs));
         let nm = Hls.Generate.fresh_memories p in
         match Sim.Elastic.run ~config:sim_config ~memories:nm gn with
         | exception e -> fail ~flavor "narrow-sim-error" (Printexc.to_string e)
         | simn ->
           if simn.Sim.Elastic.deadlocked then
             fail ~flavor "narrow-deadlock"
               (Printf.sprintf "after %d cycles" simn.Sim.Elastic.cycles)
           else if not simn.Sim.Elastic.finished then
             fail ~flavor "narrow-timeout" (Printf.sprintf "%d cycles" simn.Sim.Elastic.cycles)
           else begin
             (match simn.Sim.Elastic.exit_value with
             | Some v when v = ref_value -> ()
             | v ->
               fail ~flavor "narrow-value-mismatch"
                 (Printf.sprintf "sim=%s interp=%d"
                    (match v with Some v -> string_of_int v | None -> "none")
                    ref_value));
             if not (mems_equal ref_mems nm) then
               fail ~flavor "narrow-memory-mismatch"
                 (Format.asprintf "interp: %a/ sim: %a" pp_mems ref_mems pp_mems nm)
           end
       end
     with e -> fail ~flavor "narrow-error" (Printexc.to_string e));
    let run_flavor (flavor, fl) =
      let fail k d = fail ~flavor k d in
      let flow () = Core.Flow.run ~config ~session fl (G.copy g0) in
      match flow () with
      | exception Lint.Engine.Lint_error rep ->
        fail "lint-gate" (Format.asprintf "%a" Lint.Engine.pp_report rep)
      | exception Core.Flow.Milp_failed (name, failure) -> (
        let msg = Core.Flow.milp_failed_message name failure in
        (* a budget that runs out, or a tiny-budget model without a
           placement, is a resource limit of the campaign, not a bug *)
        match failure with
        | Buffering.Formulation.Exhausted | Infeasible -> explain ~flavor "milp-budget" msg
        | Unbounded -> fail "flow-error" msg)
      | exception Failure msg -> fail "flow-error" msg
      | exception e -> fail "flow-error" (Printexc.to_string e)
      | o ->
        Support.Trace.add "fuzz.flows" 1;
        List.iter
          (fun (it : Core.Flow.iteration) ->
            if it.Core.Flow.milp_phi > it.Core.Flow.certified_bound +. 1e-4 then
              fail "phi-exceeds-bound"
                (Printf.sprintf "it%d: phi %.6f > bound %.6f" it.Core.Flow.it_index
                   it.Core.Flow.milp_phi it.Core.Flow.certified_bound))
          o.Core.Flow.iterations;
        if o.Core.Flow.met_target <> (o.Core.Flow.final_levels <= config.Core.Flow.target_levels)
        then
          fail "target-inconsistent"
            (Printf.sprintf "met=%b but levels=%d target=%d" o.Core.Flow.met_target
               o.Core.Flow.final_levels config.Core.Flow.target_levels);
        if not o.Core.Flow.certified.C.live then
          fail "not-live"
            (Format.asprintf "%a" C.pp o.Core.Flow.certified)
        else begin
          let sim_mems = Hls.Generate.fresh_memories p in
          match Sim.Elastic.run ~config:sim_config ~memories:sim_mems o.Core.Flow.graph with
          | exception e -> fail "sim-error" (Printexc.to_string e)
          | sim ->
            if sim.Sim.Elastic.deadlocked then
              fail "sim-deadlock" (Printf.sprintf "after %d cycles" sim.Sim.Elastic.cycles)
            else if not sim.Sim.Elastic.finished then
              fail "sim-timeout" (Printf.sprintf "%d cycles" sim.Sim.Elastic.cycles)
            else begin
              (match sim.Sim.Elastic.exit_value with
              | Some v when v = ref_value -> ()
              | v ->
                fail "value-mismatch"
                  (Printf.sprintf "sim=%s interp=%d"
                     (match v with Some v -> string_of_int v | None -> "none")
                     ref_value));
              if not (mems_equal ref_mems sim_mems) then
                fail "memory-mismatch"
                  (Format.asprintf "interp: %a/ sim: %a" pp_mems ref_mems pp_mems sim_mems);
              if not (has_nested_loops p.Hls.Generate.func) then
                List.iter (fail "sim-beats-bound")
                  (check_sim_bound o.Core.Flow.certified sim o.Core.Flow.graph)
            end
        end;
        (* warm re-run: with the cache on, the second run hits the memo
           tables and must decide byte-identically *)
        if Cache.Session.enabled session.Core.Session.cache then begin
          match flow () with
          | exception e -> fail "cache-divergence" ("warm run raised " ^ Printexc.to_string e)
          | o2 ->
            let cold = Core.Flow.summary o and warm = Core.Flow.summary o2 in
            if cold <> warm then
              fail "cache-divergence" (Printf.sprintf "cold:\n%s\nwarm:\n%s" cold warm)
        end;
        (* additive mutants of the final circuit stay equivalent *)
        if mutations > 0 && o.Core.Flow.certified.C.live then begin
          let rng = Support.Rng.create (0xf022 + (seed * 31)) in
          for k = 1 to mutations do
            let muts = Mutate.random rng o.Core.Flow.graph (1 + Support.Rng.int rng 3) in
            let gm = Mutate.apply o.Core.Flow.graph muts in
            let describe () =
              String.concat ";" (List.map (Format.asprintf "%a" Mutate.pp) muts)
            in
            Support.Trace.add "fuzz.mutants" 1;
            let certm = C.certify ~karp:false gm in
            if not certm.C.live then
              fail "mutant-not-live" (Printf.sprintf "mutant %d: %s" k (describe ()));
            let mm = Hls.Generate.fresh_memories p in
            match Sim.Elastic.run ~config:sim_config ~memories:mm gm with
            | exception e ->
              fail "mutant-sim-error" (Printf.sprintf "mutant %d (%s): %s" k (describe ()) (Printexc.to_string e))
            | simm ->
              if (not simm.Sim.Elastic.finished) || simm.Sim.Elastic.deadlocked then
                fail "mutant-deadlock" (Printf.sprintf "mutant %d: %s" k (describe ()))
              else if simm.Sim.Elastic.exit_value <> Some ref_value then
                fail "mutant-value-mismatch"
                  (Printf.sprintf "mutant %d (%s): sim=%s interp=%d" k (describe ())
                     (match simm.Sim.Elastic.exit_value with
                     | Some v -> string_of_int v
                     | None -> "none")
                     ref_value)
              else if not (mems_equal ref_mems mm) then
                fail "mutant-memory-mismatch" (Printf.sprintf "mutant %d: %s" k (describe ()))
          done
        end
    in
    List.iter run_flavor Core.Flow.flavors
  | _ -> ());
  if !violations <> [] then Support.Trace.add "fuzz.violations" (List.length !violations);
  {
    seed;
    features = p.Hls.Generate.features;
    violations = List.rev !violations;
    explained = List.rev !explained;
    source = p.Hls.Generate.source;
  }

let check ?gen_cfg ?config ?session ?mutations seed =
  let p =
    match gen_cfg with
    | None -> Hls.Generate.generate seed
    | Some cfg -> Hls.Generate.generate ~cfg seed
  in
  check_program ?config ?session ?mutations p
