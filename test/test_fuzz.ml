(* The fuzzer's own contract: generator determinism and well-formedness,
   minimizer behaviour, mutation soundness, and the oracle invariants on
   pinned representative seeds (the permanent regressions of the classes
   triaged while the fuzzer was built). *)

open Alcotest

(* a small, fast configuration for tests that run whole flows *)
let quick_gen =
  {
    Hls.Generate.default_cfg with
    Hls.Generate.max_constructs = 1;
    max_depth = 1;
    max_body_stmts = 2;
  }

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Hls.Generate.generate seed and b = Hls.Generate.generate seed in
      check string "source" a.Hls.Generate.source b.Hls.Generate.source;
      check bool "memories" true (a.Hls.Generate.memories = b.Hls.Generate.memories);
      check bool "args" true (a.Hls.Generate.args = b.Hls.Generate.args);
      check bool "features" true (a.Hls.Generate.features = b.Hls.Generate.features))
    [ 0; 1; 7; 42; 1000 ]

let test_generator_well_formed () =
  for seed = 0 to 39 do
    let p = Hls.Generate.generate seed in
    let name = Printf.sprintf "seed %d" seed in
    (* round-trip: pp output re-parses to the identical AST *)
    let reparsed = Hls.Parser.parse p.Hls.Generate.source in
    check bool (name ^ " round-trips") true (reparsed = p.Hls.Generate.func);
    (* the reference interpreter accepts it (and terminates) *)
    let v =
      Hls.Interp.run p.Hls.Generate.func ~args:p.Hls.Generate.args
        ~memories:(Hls.Generate.fresh_memories p)
    in
    ignore v;
    (* it compiles to a valid circuit *)
    let g = Hls.Compile.compile ~args:p.Hls.Generate.args p.Hls.Generate.func in
    match Dataflow.Graph.validate g with
    | Ok () -> ()
    | Error m -> failf "%s: invalid graph: %s" name m
  done

(* same seeds, any pool width: byte-identical campaign statistics *)
let test_campaign_deterministic_across_jobs () =
  let campaign jobs =
    Support.Pool.run ~jobs (fun pool ->
        Fuzz.Harness.run ~gen_cfg:quick_gen ~mutations:1 ~minimize:false ~pool ~start_seed:0
          ~seeds:4 ())
  in
  let strip r = { r.Fuzz.Harness.stats with Fuzz.Harness.s_duration_s = 0. } in
  let a = campaign 1 and b = campaign 2 in
  check string "stats agree at any width"
    (Support.Json.to_string (Fuzz.Harness.stats_to_json (strip a)))
    (Support.Json.to_string (Fuzz.Harness.stats_to_json (strip b)));
  check int "no violations" 0 a.Fuzz.Harness.stats.Fuzz.Harness.s_violations

let test_ddmin () =
  let pred xs = List.mem 7 xs in
  check (list int) "singleton" [ 7 ] (Fuzz.Minimize.ddmin pred [ 1; 2; 7; 4; 5; 6; 9; 8 ]);
  check (list int) "already minimal" [ 7 ] (Fuzz.Minimize.ddmin pred [ 7 ]);
  check (list int) "unsatisfied input unchanged" [ 1; 2 ] (Fuzz.Minimize.ddmin pred [ 1; 2 ])

(* the minimizer shrinks a seeded known-failure to the pinned size *)
let test_minimizer_shrinks () =
  let rec has_store = function
    | [] -> false
    | Hls.Ast.Store _ :: _ -> true
    | Hls.Ast.If (_, t, e) :: rest -> has_store t || has_store e || has_store rest
    | Hls.Ast.While (_, b) :: rest | Hls.Ast.For (_, _, _, b) :: rest ->
      has_store b || has_store rest
    | _ :: rest -> has_store rest
  in
  (* find a seeded program containing a store inside control flow *)
  let rec pick seed =
    let p = Hls.Generate.generate seed in
    if has_store p.Hls.Generate.func.Hls.Ast.body && Fuzz.Minimize.size p.Hls.Generate.func > 6
    then p
    else pick (seed + 1)
  in
  let p = pick 0 in
  let pred (f : Hls.Ast.func) = has_store f.Hls.Ast.body in
  let small = Fuzz.Minimize.shrink_func pred p.Hls.Generate.func in
  check bool "failure preserved" true (has_store small.Hls.Ast.body);
  check bool
    (Printf.sprintf "shrunk %d -> %d statements" (Fuzz.Minimize.size p.Hls.Generate.func)
       (Fuzz.Minimize.size small))
    true
    (Fuzz.Minimize.size small <= 2)

(* the harness visibly reports a planted violation and minimizes it *)
let test_harness_reports_planted_failure () =
  let p = Hls.Generate.generate 3 in
  (* tamper: the recorded source disagrees with the AST *)
  let bad = { p with Hls.Generate.source = "int other() { return 0; }" } in
  let r = Fuzz.Oracle.check_program ~mutations:0 bad in
  check bool "parse-roundtrip fires" true
    (List.exists (fun c -> c.Fuzz.Oracle.kind = "parse-roundtrip") r.Fuzz.Oracle.violations)

(* with a cache session, the oracle re-runs each flow warm against the
   store the cold run just filled, and the two runs must agree *)
let test_oracle_warm_rerun () =
  let dir = Filename.temp_dir "repro-fuzz-test" "" in
  let cache = Cache.Session.of_dir dir in
  let session = Core.Session.make ~cache () in
  let r = Fuzz.Oracle.check ~gen_cfg:quick_gen ~session ~mutations:0 1 in
  let hits = Cache.Store.hits (Option.get (Cache.Session.store cache)) in
  Cache.Store.clear dir;
  check int "no violation" 0 (List.length r.Fuzz.Oracle.violations);
  check bool (Printf.sprintf "warm re-run hit the store (%d hits)" hits) true (hits > 0)

let test_mutations_additive () =
  let g = Dataflow.Graph.copy (Hls.Kernels.graph (Hls.Kernels.by_name "gsum")) in
  ignore (Core.Flow.seed_back_edges g);
  let before = List.length (Dataflow.Graph.buffered_channels g) in
  let rng = Support.Rng.create 5 in
  let muts = Fuzz.Mutate.random rng g 6 in
  check int "draw count" 6 (List.length muts);
  let gm = Fuzz.Mutate.apply g muts in
  (* the original graph is untouched *)
  check int "input untouched" before (List.length (Dataflow.Graph.buffered_channels g));
  (* capacity only grows, opaque buffers stay opaque *)
  Dataflow.Graph.iter_channels g (fun c ->
      let cid = c.Dataflow.Graph.cid in
      match (c.Dataflow.Graph.buffer, Dataflow.Graph.buffer gm cid) with
      | Some b, Some b' ->
        check bool "slots grow" true (b'.Dataflow.Graph.slots >= b.Dataflow.Graph.slots);
        if not b.Dataflow.Graph.transparent then
          check bool "opaque stays" false b'.Dataflow.Graph.transparent
      | Some _, None -> failf "mutation removed a buffer on c%d" cid
      | None, _ -> ());
  (* and the mutant still simulates to the same exit value *)
  let k = Hls.Kernels.by_name "gsum" in
  let a = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g in
  let b = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) gm in
  check bool "base finishes" true a.Sim.Elastic.finished;
  check bool "mutant finishes" true b.Sim.Elastic.finished;
  check bool "same exit value" true (a.Sim.Elastic.exit_value = b.Sim.Elastic.exit_value)

(* Pinned regression seeds, one per class triaged while building the
   fuzzer (under the default generator configuration):
   - seed 9: scalar parameter — the circuit must be compiled with the
     program's [args] or the simulator computes with the default 0;
   - seed 0: nested loops — the per-SCC steady-state bound must not be
     applied to inner-loop channels (choice breaks rate equalization);
   - seed 18: loop-free program — the acyclic path (no SCCs, phi = 1);
   - seed 22: continue inside a for body;
   - seeds 652, 987: arithmetic on two 1-bit comparison results must be
     promoted to the datapath width (a 1-bit subtractor computes
     0 - 1 = 1);
   - seeds 230, 949: Howard plateau — policy iteration must not
     oscillate between equal-ratio cycles (deterministic cycle anchors
     + Karp-confirmed stall recovery);
   - seed 107: netlist elaboration must compute operators at the result
     width — a width-8 multiplier fed by two 1-bit comparison outputs
     indexed its operand rows out of bounds;
   - seed 987 (again, post-narrowing): a Control_merge with one live
     input rewrites to Fork2 + Consts; the fork must take the live
     input's (possibly zero) width, not the cmerge's index width, or
     fork elaboration reads data bits past the control channel (direct
     probe in test_absint.ml). *)
let test_pinned_regression_seeds () =
  List.iter
    (fun seed ->
      let r = Fuzz.Oracle.check ~mutations:1 seed in
      List.iter
        (fun (c : Fuzz.Oracle.check) ->
          failf "seed %d: unexpected %s/%s: %s" seed c.Fuzz.Oracle.flavor c.Fuzz.Oracle.kind
            c.Fuzz.Oracle.detail)
        r.Fuzz.Oracle.violations)
    [ 9; 0; 18; 22; 652; 987; 230; 949; 107 ]

(* the width-promotion bug behind seeds 652/987, as a direct probe *)
let test_cmp_arith_width () =
  let b = [ ("b", [| 196; 195; 203; 156; 163; 141; 175; 58 |]) ] in
  List.iter
    (fun src ->
      let f = Hls.Parser.parse src in
      let mems () = List.map (fun (n, a) -> (n, Array.copy a)) b in
      let want = Hls.Interp.run f ~args:[] ~memories:(mems ()) in
      let g = Hls.Compile.compile ~args:[] f in
      let r = Sim.Elastic.run ~memories:(mems ()) g in
      check bool (src ^ " finishes") true r.Sim.Elastic.finished;
      check (option int) src (Some want) r.Sim.Elastic.exit_value)
    [
      "int f(int b[8]) { int x = 17; return (!x - (x < b[5])); }";
      "int f(int b[8]) { int x = 17; return ((x == 3) - (x < b[5])); }";
      "int f(int b[8]) { int x = 17; return ((x < 15) << ((x > 3) + (x > 4))); }";
      "int f(int b[8]) { int x = 17; return ((x > 3) * (x > 4) - 2); }";
    ]

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* satellite: front-end diagnostics carry line/column positions *)
let test_parser_positions () =
  (match Hls.Parser.parse "int f(int a[4]) {\n  int x = ;\n  return x;\n}" with
  | _ -> fail "expected a parse error"
  | exception Hls.Parser.Error (msg, pos) ->
    check int "line" 2 pos.Hls.Lexer.line;
    check int "column" 11 pos.Hls.Lexer.col;
    check bool "message mentions the token" true (contains ~affix:";" msg));
  (match Hls.Lexer.tokenize "int f() {\n  int x = 3 $ 4;\n}" with
  | _ -> fail "expected a lexer error"
  | exception Hls.Lexer.Error (_, pos) ->
    check int "lexer line" 2 pos.Hls.Lexer.line;
    check int "lexer column" 13 pos.Hls.Lexer.col);
  match Hls.Parser.parse "int f() { return 1 }" with
  | _ -> fail "expected a parse error"
  | exception e -> (
    match Hls.Parser.error_message e with
    | Some rendered ->
      check bool "rendered with position" true (contains ~affix:"line 1, column" rendered)
    | None -> fail "error_message recognises parser errors")

let suite =
  [
    test_case "generator is deterministic" `Quick test_generator_deterministic;
    test_case "generated programs parse, interpret, compile" `Quick test_generator_well_formed;
    test_case "campaign stats identical at any pool width" `Slow
      test_campaign_deterministic_across_jobs;
    test_case "ddmin shrinks to the core" `Quick test_ddmin;
    test_case "minimizer shrinks a seeded failure" `Quick test_minimizer_shrinks;
    test_case "oracle reports a planted violation" `Quick test_harness_reports_planted_failure;
    test_case "oracle warm re-run hits the cache" `Quick test_oracle_warm_rerun;
    test_case "DFG mutations are additive and equivalent" `Quick test_mutations_additive;
    test_case "pinned regression seeds stay clean" `Slow test_pinned_regression_seeds;
    test_case "cmp-fed arithmetic is width-promoted" `Quick test_cmp_arith_width;
    test_case "diagnostics carry source positions" `Quick test_parser_positions;
  ]
