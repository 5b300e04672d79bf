module G = Dataflow.Graph
module A = Dataflow.Analysis

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Lexer / parser *)

let test_lexer_basics () =
  let toks = Hls.Lexer.tokenize "int x = 42; // comment\n x = x << 2;" in
  check Alcotest.int "token count" 12 (List.length toks)

let test_lexer_comments () =
  let toks = Hls.Lexer.tokenize "/* block */ int /* mid */ x" in
  check Alcotest.int "int ident eof" 3 (List.length toks)

let test_lexer_error () =
  match Hls.Lexer.tokenize "int $" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Hls.Lexer.Error _ -> ()

let test_parse_simple () =
  let f = Hls.Parser.parse "int f(int a[4]) { return a[0] + 1; }" in
  check Alcotest.string "name" "f" f.Hls.Ast.fname;
  check Alcotest.int "params" 1 (List.length f.Hls.Ast.params)

let test_parse_for_if () =
  let f =
    Hls.Parser.parse
      "int f(int a[8]) { int s = 0; for (int i = 0; i < 8; i = i + 1) { if (a[i] > 2) { s = s \
       + a[i]; } } return s; }"
  in
  match f.Hls.Ast.body with
  | [ Hls.Ast.Decl _; Hls.Ast.For _; Hls.Ast.Return _ ] -> ()
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parse_error () =
  match Hls.Parser.parse "int f() { return }" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Hls.Parser.Error _ -> ()

let test_parse_ternary () =
  let f = Hls.Parser.parse "int f() { return 1 < 2 ? 10 : 20; }" in
  (match f.Hls.Ast.body with
  | [ Hls.Ast.Return (Hls.Ast.Ternary (Hls.Ast.Binop (Hls.Ast.Lt, _, _), Hls.Ast.Int 10, Hls.Ast.Int 20)) ]
    -> ()
  | _ -> Alcotest.fail "ternary shape");
  check Alcotest.int "interp true arm" 10 (Hls.Interp.run f ~args:[] ~memories:[])

let test_parse_precedence () =
  let f = Hls.Parser.parse "int f() { return 1 + 2 * 3; }" in
  match f.Hls.Ast.body with
  | [ Hls.Ast.Return (Hls.Ast.Binop (Hls.Ast.Add, Hls.Ast.Int 1, Hls.Ast.Binop (Hls.Ast.Mul, _, _))) ]
    -> ()
  | _ -> Alcotest.fail "precedence wrong"

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let test_interp_masking () =
  let f = Hls.Parser.parse "int f() { int x = 200; int y = x + 100; return y; }" in
  check Alcotest.int "mod 256" ((200 + 100) land 255) (Hls.Interp.run f ~args:[] ~memories:[])

let test_interp_loop () =
  let f = Hls.Parser.parse "int f() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }" in
  check Alcotest.int "sum" 45 (Hls.Interp.run f ~args:[] ~memories:[])

let test_interp_runaway () =
  let f = Hls.Parser.parse "int f() { while (1) { int x = 0; } return 0; }" in
  match Hls.Interp.run ~max_steps:1000 f ~args:[] ~memories:[] with
  | _ -> Alcotest.fail "expected runaway"
  | exception Hls.Interp.Runaway -> ()

(* ------------------------------------------------------------------ *)
(* Compilation structure *)

let seed_back_edges g =
  List.iter
    (fun c -> G.set_buffer g c (Some { G.transparent = false; slots = 2 }))
    (A.loop_back_edges g)

let test_ternary_circuit () =
  (* the ternary compiles to a select unit and matches the interpreter *)
  let f =
    Hls.Parser.parse
      "int f(int a[16]) { int s = 0; for (int i = 0; i < 16; i = i + 1) { int d = a[i]; s = s + \
       (d > 100 ? 100 : d); } return s; }"
  in
  let mem = Array.init 16 (fun i -> (i * 29) land 255) in
  let expected = Hls.Interp.run f ~args:[] ~memories:[ ("a", Array.copy mem) ] in
  let g = Hls.Compile.compile f in
  let has_select =
    G.find_units g (fun n ->
        match n.G.kind with
        | Dataflow.Unit_kind.Operator { op = Dataflow.Ops.Select; _ } -> true
        | _ -> false)
    <> []
  in
  check Alcotest.bool "select unit present" true has_select;
  seed_back_edges g;
  let r = Sim.Elastic.run ~memories:[ ("a", Array.copy mem) ] g in
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

let test_compile_valid_graphs () =
  List.iter
    (fun k ->
      let g = Hls.Kernels.graph k in
      match G.validate g with
      | Ok () -> ()
      | Error e -> Alcotest.fail (k.Hls.Kernels.name ^ ": " ^ e))
    Hls.Kernels.all

let test_compile_has_loops () =
  List.iter
    (fun k ->
      let g = Hls.Kernels.graph k in
      check Alcotest.bool (k.Hls.Kernels.name ^ " has cycles") true (A.cyclic_sccs g <> []))
    Hls.Kernels.all

(* Differential: simulate each kernel's circuit (back edges buffered)
   and compare the exit value with the interpreter. *)
let simulate_kernel ?(extra = []) k =
  let g = Hls.Kernels.graph k in
  seed_back_edges g;
  List.iter (fun c -> G.set_buffer g c (Some { G.transparent = false; slots = 2 })) extra;
  let mems = k.Hls.Kernels.mems () in
  Sim.Elastic.run ~memories:mems g

let diff_test k () =
  let expected = Hls.Kernels.reference k in
  let r = simulate_kernel k in
  if not r.Sim.Elastic.finished then
    Alcotest.fail
      (Printf.sprintf "%s did not finish (deadlocked=%b, cycles=%d)" k.Hls.Kernels.name
         r.Sim.Elastic.deadlocked r.Sim.Elastic.cycles);
  check Alcotest.int (k.Hls.Kernels.name ^ " value") expected
    (Option.get r.Sim.Elastic.exit_value)

let test_extra_buffers_preserve_function () =
  (* latency-insensitivity: buffering any channel must not change the
     result (only the schedule) *)
  let k = Hls.Kernels.by_name "gsum" in
  let expected = Hls.Kernels.reference k in
  let g = Hls.Kernels.graph k in
  let n = G.n_channels g in
  let extras = List.init (n / 7) (fun i -> i * 7) in
  let r = simulate_kernel ~extra:extras k in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check Alcotest.int "same value" expected (Option.get r.Sim.Elastic.exit_value)

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basics);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer error", `Quick, test_lexer_error);
    ("parse simple", `Quick, test_parse_simple);
    ("parse for/if", `Quick, test_parse_for_if);
    ("parse error", `Quick, test_parse_error);
    ("parse precedence", `Quick, test_parse_precedence);
    ("parse ternary", `Quick, test_parse_ternary);
    ("ternary circuit == interpreter", `Quick, test_ternary_circuit);
    ("interp masking", `Quick, test_interp_masking);
    ("interp loop", `Quick, test_interp_loop);
    ("interp runaway", `Quick, test_interp_runaway);
    ("compile produces valid graphs", `Quick, test_compile_valid_graphs);
    ("compiled kernels contain loops", `Quick, test_compile_has_loops);
    ("extra buffers preserve function", `Quick, test_extra_buffers_preserve_function);
  ]
  @ List.map
      (fun k -> ("circuit == interpreter: " ^ k.Hls.Kernels.name, `Quick, diff_test k))
      Hls.Kernels.all
