(* End-to-end differential properties: random mini-C programs are
   compiled to elastic circuits and simulated; the result must match the
   AST interpreter.  This exercises the parser-to-simulator stack on
   program shapes the hand-written kernels do not cover. *)

module G = Dataflow.Graph
module A = Dataflow.Analysis

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* random structured program generation *)

let gen_program seed =
  let rng = Support.Rng.create seed in
  let vars = [ "x"; "y"; "z" ] in
  let var () = List.nth vars (Support.Rng.int rng 3) in
  let rec expr depth =
    if depth = 0 then
      match Support.Rng.int rng 3 with
      | 0 -> Hls.Ast.Int (Support.Rng.int rng 32)
      | 1 -> Hls.Ast.Var (var ())
      | _ -> Hls.Ast.Load ("m", Hls.Ast.Binop (Hls.Ast.And, Hls.Ast.Var (var ()), Hls.Ast.Int 15))
    else if Support.Rng.int rng 8 = 0 then
      Hls.Ast.Ternary
        ( Hls.Ast.Binop (Hls.Ast.Lt, expr 0, expr 0),
          expr (depth - 1),
          expr (depth - 1) )
    else
      let op =
        match Support.Rng.int rng 7 with
        | 0 -> Hls.Ast.Add
        | 1 -> Hls.Ast.Sub
        | 2 -> Hls.Ast.Mul
        | 3 -> Hls.Ast.And
        | 4 -> Hls.Ast.Or
        | 5 -> Hls.Ast.Xor
        | _ -> Hls.Ast.Lshr
      in
      Hls.Ast.Binop (op, expr (depth - 1), expr (depth - 1))
  in
  let cond () =
    let op =
      match Support.Rng.int rng 4 with
      | 0 -> Hls.Ast.Lt
      | 1 -> Hls.Ast.Le
      | 2 -> Hls.Ast.Eq
      | _ -> Hls.Ast.Gt
    in
    Hls.Ast.Binop (op, expr 1, expr 1)
  in
  (* [iters]: the enclosing loops' iterators. [Hls.Interp] keeps one flat
     store, so an inner loop that redeclared one would reset the outer
     counter forever; a drawn name already in scope is bumped to the next
     free one, which costs no extra draw and leaves every other program
     unchanged. *)
  let rec stmt ~iters ~in_loop depth =
    match if depth = 0 then Support.Rng.int rng 2 else Support.Rng.int rng 4 with
    | 0 -> Hls.Ast.Assign (var (), expr 2)
    | 1 ->
      Hls.Ast.Store
        ("m", Hls.Ast.Binop (Hls.Ast.And, expr 1, Hls.Ast.Int 15), expr 1)
    | 2 ->
      (* occasionally guard a break/continue inside loops *)
      if in_loop && Support.Rng.int rng 4 = 0 then
        Hls.Ast.If
          ( cond (),
            [ (if Support.Rng.bool rng then Hls.Ast.Break else Hls.Ast.Continue) ],
            [ stmt ~iters ~in_loop (depth - 1) ] )
      else
        Hls.Ast.If
          (cond (), [ stmt ~iters ~in_loop (depth - 1) ], [ stmt ~iters ~in_loop (depth - 1) ])
    | _ ->
      (* bounded counting loop over a fresh iterator *)
      let rec fresh k =
        let i = Printf.sprintf "i%d" k in
        if List.mem i iters then fresh (k + 1) else i
      in
      let i = fresh (Support.Rng.int rng 1000) in
      let bound = 2 + Support.Rng.int rng 5 in
      Hls.Ast.For
        ( Hls.Ast.Decl (i, Hls.Ast.Int 0),
          Hls.Ast.Binop (Hls.Ast.Lt, Hls.Ast.Var i, Hls.Ast.Int bound),
          Hls.Ast.Assign (i, Hls.Ast.Binop (Hls.Ast.Add, Hls.Ast.Var i, Hls.Ast.Int 1)),
          [ stmt ~iters:(i :: iters) ~in_loop:true (depth - 1) ] )
  in
  let n_stmts = 2 + Support.Rng.int rng 3 in
  let body =
    [
      Hls.Ast.Decl ("x", Hls.Ast.Int (Support.Rng.int rng 16));
      Hls.Ast.Decl ("y", Hls.Ast.Int (Support.Rng.int rng 16));
      Hls.Ast.Decl ("z", Hls.Ast.Int (Support.Rng.int rng 16));
    ]
    @ List.init n_stmts (fun _ -> stmt ~iters:[] ~in_loop:false 2)
    @ [
        Hls.Ast.Return
          (Hls.Ast.Binop (Hls.Ast.Add, Hls.Ast.Var "x",
             Hls.Ast.Binop (Hls.Ast.Add, Hls.Ast.Var "y", Hls.Ast.Var "z")));
      ]
  in
  { Hls.Ast.fname = "rand"; params = [ Hls.Ast.Array ("m", 16) ]; body }

let mem_data seed = Array.init 16 (fun i -> (seed + (i * 37)) land 255)

let circuit_matches_interpreter seed =
  let f = gen_program seed in
  let expected = Hls.Interp.run f ~args:[] ~memories:[ ("m", mem_data seed) ] in
  let g = Hls.Compile.compile f in
  (match G.validate g with Ok () -> () | Error e -> failwith e);
  let _ = Core.Flow.seed_back_edges g in
  let r =
    Sim.Elastic.run
      ~config:{ Sim.Elastic.max_cycles = 200_000; deadlock_window = 1_000 }
      ~memories:[ ("m", mem_data seed) ]
      g
  in
  r.Sim.Elastic.finished && r.Sim.Elastic.exit_value = Some expected

let prop_random_programs =
  QCheck.Test.make ~name:"random programs: circuit == interpreter" ~count:40
    QCheck.(int_range 0 1_000_000)
    circuit_matches_interpreter

(* seed 634811 draws [for i473 … { for i473 … }]; the generator must
   rename the inner iterator or the interpreter runs away *)
let test_nested_iterator_seed () =
  Alcotest.(check bool) "circuit == interpreter" true (circuit_matches_interpreter 634811)

(* Latency-insensitivity: buffering any subset of channels must preserve
   the computed value (only the schedule may change). *)
let prop_buffering_preserves_function =
  QCheck.Test.make ~name:"random buffering preserves function" ~count:20
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (pseed, bseed) ->
      let f = gen_program pseed in
      let expected = Hls.Interp.run f ~args:[] ~memories:[ ("m", mem_data pseed) ] in
      let g = Hls.Compile.compile f in
      let _ = Core.Flow.seed_back_edges g in
      let rng = Support.Rng.create bseed in
      G.iter_channels g (fun c ->
          if c.G.buffer = None && Support.Rng.int rng 4 = 0 then
            G.set_buffer g c.G.cid (Some { G.transparent = false; slots = 2 }));
      let r =
        Sim.Elastic.run
          ~config:{ Sim.Elastic.max_cycles = 400_000; deadlock_window = 2_000 }
          ~memories:[ ("m", mem_data pseed) ]
          g
      in
      r.Sim.Elastic.finished && r.Sim.Elastic.exit_value = Some expected)

(* Mapping-aware models of random programs are structurally sane. *)
let prop_timing_model_sane =
  QCheck.Test.make ~name:"timing model sane on random programs" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let f = gen_program seed in
      let g = Hls.Compile.compile f in
      let _ = Core.Flow.seed_back_edges g in
      let net = Elaborate.run g in
      let synth = Techmap.Synth.run net in
      let lg = Techmap.Mapper.run synth in
      let model = Timing.Mapping_aware.build g ~net lg in
      List.for_all (fun p -> p.Timing.Model.p_delay >= 0.) model.Timing.Model.pairs
      && Array.for_all (fun p -> p >= 0. && p <= 1. +. 1e-9) model.Timing.Model.penalty)

(* the pretty-printer and parser are mutual inverses on random programs *)
let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pp then parse is identity" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let f = gen_program seed in
      let printed = Format.asprintf "%a" Hls.Ast.pp_func f in
      Hls.Parser.parse printed = f)

let suite =
  [
    qtest prop_random_programs;
    ("random programs: nested iterators stay distinct (seed 634811)", `Quick,
     test_nested_iterator_seed);
    qtest prop_pp_parse_roundtrip;
    qtest prop_buffering_preserves_function;
    qtest prop_timing_model_sane;
  ]
