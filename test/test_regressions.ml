(* Regression tests for protocol bugs found by the random-program
   property tests during development.  Each carries the minimal
   reproducer and the invariant it protects. *)

module G = Dataflow.Graph

let check = Alcotest.check

let run_src ?(mem_size = 16) src =
  let f = Hls.Parser.parse src in
  let mem = Array.init mem_size (fun i -> (i * 37) land 255) in
  let expected = Hls.Interp.run f ~args:[] ~memories:[ ("m", Array.copy mem) ] in
  let g = Hls.Compile.compile f in
  let _ = Core.Flow.seed_back_edges g in
  let r =
    Sim.Elastic.run
      ~config:{ Sim.Elastic.max_cycles = 100_000; deadlock_window = 1_000 }
      ~memories:[ ("m", Array.copy mem) ]
      g
  in
  (expected, r)

(* Bug 1: the control merge has two outputs (token + index) consumed by
   different forks; without per-output sent flags and a winner latch, a
   consumer that accepts early receives the same token twice.  Minimal
   shape: an if (whose reconvergence mux stalls on a far-away consumer)
   followed by a storing loop. *)
let test_cmerge_no_token_duplication () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int x = 3;
  if (x < 5) {
    m[1] = 7;
  } else {
    m[2] = 9;
  }
  for (int i = 0; i < 2; i = i + 1) {
    m[(i & 15)] = 3;
  }
  return x;
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* Bug 2: a guarded load could fire in the same cycle as the store
   producing its memory token and read the OLD value; the store's
   completion token must be registered. *)
let test_store_load_no_race () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int z = 0;
  m[0] = 0;
  z = (m[0] & 8) - 22;
  return z;
}
|}
  in
  check (Alcotest.option Alcotest.int) "dependent load sees the store" (Some expected)
    r.Sim.Elastic.exit_value;
  check Alcotest.bool "finished" true r.Sim.Elastic.finished

(* The load-before-store direction must still read the OLD value when
   both fire back to back. *)
let test_load_before_store_reads_old () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int x = m[5];
  m[5] = 0;
  return x;
}
|}
  in
  (* interpreter gives the original m[5] = (5*37) land 255 = 185 *)
  check Alcotest.int "reference reads old" 185 expected;
  check (Alcotest.option Alcotest.int) "circuit reads old too" (Some expected)
    r.Sim.Elastic.exit_value

(* Bug 3 (earlier in development): per-variable loop merges reorder
   tokens across iterations.  Nested loops with inner stores are the
   trigger shape. *)
let test_nested_loop_ordering () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    for (int j = 0; j < 3; j = j + 1) {
      m[((i + j) & 15)] = i + j;
    }
    s = s + m[(i & 15)];
  }
  return s;
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* Sequential sibling loops where the first writes what the second
   reads: the second loop's entry must synchronise on the memory token
   once, without routing it through its iterations. *)
let test_sibling_loop_sync () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  for (int i = 0; i < 8; i = i + 1) {
    m[(i & 15)] = i + i;
  }
  int s = 0;
  for (int j = 0; j < 8; j = j + 1) {
    s = s + m[(j & 15)];
  }
  return s;
}
|}
  in
  check Alcotest.int "reference" 56 expected;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* gemver's shape: guarded read-modify-write in the outer body with an
   inner reading loop. *)
let test_read_modify_write_with_inner_loop () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  for (int i = 0; i < 4; i = i + 1) {
    int acc = m[(i & 15)];
    for (int j = 0; j < 4; j = j + 1) {
      acc = acc + j;
    }
    m[(i & 15)] = acc;
  }
  return m[2];
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* break / continue lower to flag-guarded loops; the interpreter runs
   them natively, so these are true differential checks of Lower. *)
let test_break_lowering () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) {
    if (m[(i & 15)] > 200) {
      break;
    }
    s = s + m[(i & 15)];
  }
  return s;
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

let test_continue_lowering () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) {
    if ((m[(i & 15)] & 1) == 1) {
      continue;
    }
    s = s + m[(i & 15)];
  }
  return s;
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

let test_break_in_while_with_store () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int i = 0;
  while (i < 16) {
    if (m[(i & 15)] == 111) {
      break;
    }
    m[(i & 15)] = i;
    i = i + 1;
  }
  return m[3];
}
|}
  in
  check Alcotest.bool "finished" true r.Sim.Elastic.finished;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

let test_nested_break_binds_inner () =
  let expected, r =
    run_src
      {|
int f(int m[16]) {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) {
    for (int j = 0; j < 8; j = j + 1) {
      if (j == i) {
        break;
      }
      s = s + 1;
    }
    s = s + 10;
  }
  return s;
}
|}
  in
  (* inner break must not kill the outer loop: 0+1+2+3 inner + 4*10 = 46 *)
  check Alcotest.int "reference" 46 expected;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* Bug 4: a scalar that enters a loop holding a 1-bit value (a
   comparison) got a 1-bit loop mux, so every value the body assigned
   kept only its low bit: the circuit returned 0 where the interpreter
   returns 200. The loop mux must take the full datapath width. *)
let test_loop_carried_width () =
  let f =
    Hls.Parser.parse
      {|
int f(int n) {
  int s1 = (n < 1);
  for (int i = 0; i < 2; i = i + 1) { s1 = 200; }
  return s1;
}
|}
  in
  let args = [ ("n", 3) ] in
  let expected = Hls.Interp.run f ~args ~memories:[] in
  let g = Hls.Compile.compile ~args f in
  let _ = Core.Flow.seed_back_edges g in
  let r = Sim.Elastic.run ~config:{ Sim.Elastic.max_cycles = 100_000; deadlock_window = 1_000 } g in
  check Alcotest.int "reference" 200 expected;
  check (Alcotest.option Alcotest.int) "value" (Some expected) r.Sim.Elastic.exit_value

(* The same defect found by the fuzzer's generator, in two store-free
   programs: exit value and final memories must match the interpreter. *)
let test_loop_carried_width_generated () =
  List.iter
    (fun seed ->
      let p = Hls.Generate.generate seed in
      let name = Printf.sprintf "seed %d" seed in
      let ref_mems = Hls.Generate.fresh_memories p in
      let expected =
        Hls.Interp.run p.Hls.Generate.func ~args:p.Hls.Generate.args ~memories:ref_mems
      in
      let g = Hls.Compile.compile ~args:p.Hls.Generate.args p.Hls.Generate.func in
      let _ = Core.Flow.seed_back_edges g in
      let sim_mems = Hls.Generate.fresh_memories p in
      let r =
        Sim.Elastic.run
          ~config:{ Sim.Elastic.max_cycles = 200_000; deadlock_window = 1_000 }
          ~memories:sim_mems g
      in
      check Alcotest.bool (name ^ " finished") true r.Sim.Elastic.finished;
      check (Alcotest.option Alcotest.int) (name ^ " value") (Some expected)
        r.Sim.Elastic.exit_value;
      check Alcotest.bool (name ^ " memories") true (sim_mems = ref_mems))
    [ 3589; 11573 ]

let test_bc_outside_loop_rejected () =
  let f = Hls.Parser.parse "int f() { break; return 0; }" in
  match Hls.Compile.compile f with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("cmerge token duplication (bug 1)", `Quick, test_cmerge_no_token_duplication);
    ("store->load race (bug 2)", `Quick, test_store_load_no_race);
    ("load-before-store reads old", `Quick, test_load_before_store_reads_old);
    ("nested loop token ordering (bug 3)", `Quick, test_nested_loop_ordering);
    ("sibling loop entry sync", `Quick, test_sibling_loop_sync);
    ("read-modify-write with inner loop", `Quick, test_read_modify_write_with_inner_loop);
    ("break lowering", `Quick, test_break_lowering);
    ("continue lowering", `Quick, test_continue_lowering);
    ("break in while with store", `Quick, test_break_in_while_with_store);
    ("nested break binds inner loop", `Quick, test_nested_break_binds_inner);
    ("break outside loop rejected", `Quick, test_bc_outside_loop_rejected);
    ("loop-carried scalar keeps full width", `Quick, test_loop_carried_width);
    ("loop-carried width: generated seeds 3589, 11573", `Quick, test_loop_carried_width_generated);
  ]
