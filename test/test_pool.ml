(* Support.Pool: the domain worker pool behind the parallel experiment
   engine. The contract under test is the determinism one — results come
   back in submission order at every [jobs] width, exceptions resurface
   at [await], and nested submission is rejected uniformly (at jobs = 1
   the in-place path would otherwise silently support what the
   multi-domain path cannot, and the two widths must be observationally
   identical). *)

module Pool = Support.Pool

(* per-task busy work of varying length, so at jobs > 1 completions
   genuinely race and submission order != completion order *)
let churn seed =
  let x = ref seed in
  for i = 1 to 1000 * (1 + (seed mod 7)) do
    x := (!x * 1103515245) + i
  done;
  !x

let test_submission_order jobs () =
  let inputs = List.init 40 (fun i -> i) in
  let expected = List.map churn inputs in
  let got = Pool.run ~jobs (fun p -> Pool.map_list p churn inputs) in
  Alcotest.(check (list int))
    (Printf.sprintf "map_list at jobs=%d is in submission order" jobs)
    expected got

exception Boom of int

let test_exception_propagation jobs () =
  Pool.run ~jobs (fun p ->
      let ok = Pool.submit p (fun () -> churn 3) in
      let bad = Pool.submit p (fun () -> raise (Boom 42)) in
      let ok2 = Pool.submit p (fun () -> churn 4) in
      Alcotest.(check int) "task before the failure" (churn 3) (Pool.await ok);
      Alcotest.check_raises "failing task re-raises at await" (Boom 42)
        (fun () -> ignore (Pool.await bad));
      (* a failure poisons only its own future *)
      Alcotest.(check int) "task after the failure" (churn 4) (Pool.await ok2);
      Alcotest.check_raises "await is idempotent on failures" (Boom 42)
        (fun () -> ignore (Pool.await bad)))

let test_nested_submit_rejected jobs () =
  Pool.run ~jobs (fun p ->
      let nested =
        Pool.submit p (fun () ->
            match Pool.submit p (fun () -> 0) with
            | _ -> `Accepted
            | exception Invalid_argument _ -> `Rejected)
      in
      match Pool.await nested with
      | `Rejected -> ()
      | `Accepted ->
          Alcotest.failf "nested submit accepted at jobs=%d" jobs)

let test_create_rejects_zero () =
  Alcotest.check_raises "jobs=0 is invalid"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 in
  let fut = Pool.submit p (fun () -> churn 5) in
  Alcotest.(check int) "result" (churn 5) (Pool.await fut);
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit p (fun () -> 0)));
  (* the sequential pool rejects identically *)
  let p1 = Pool.create ~jobs:1 in
  Pool.shutdown p1;
  Alcotest.check_raises "submit after shutdown, jobs=1"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit p1 (fun () -> 0)))

let test_default_jobs () =
  let with_env v f =
    let old = Sys.getenv_opt "REPRO_JOBS" in
    (match v with Some v -> Unix.putenv "REPRO_JOBS" v | None -> ());
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "REPRO_JOBS" (Option.value old ~default:""))
  in
  with_env (Some "3") (fun () ->
      Alcotest.(check int) "REPRO_JOBS=3" 3 (Pool.default_jobs ()));
  with_env (Some "0") (fun () ->
      Alcotest.(check int) "REPRO_JOBS=0 clamps to 1" 1 (Pool.default_jobs ()));
  with_env (Some "banana") (fun () ->
      Alcotest.(check int) "unparsable falls back to 1" 1 (Pool.default_jobs ()))

(* ------------------------------------------------------------------ *)
(* The engine-level property: Experiment.run_all at jobs=4 returns the
   same rows — row for row — as at jobs=1, where each task runs in place
   in submission order, on three kernels. Tiny kernels and a small
   branch & bound budget keep the twelve flow runs test-sized;
   determinism does not depend on the budget. *)

let test_run_all_jobs_invariant () =
  let run jobs =
    let rows, timings, _ =
      Core.Experiment.run_all ~config:Fixtures.cheap_flow_config ~jobs Fixtures.tiny_kernels
    in
    Alcotest.(check int) "one timing per task" (2 * List.length rows) (List.length timings);
    rows
  in
  let seq = run 1 in
  let par = run 4 in
  let render rows = Format.asprintf "%a" Core.Report.csv rows in
  Alcotest.(check string) "jobs=4 rows are byte-identical to jobs=1" (render seq) (render par);
  List.iter
    (fun (r : Core.Experiment.row) ->
      Alcotest.(check bool)
        (r.bench ^ ": baseline simulation matches the interpreter")
        true r.prev.Core.Experiment.value_ok;
      Alcotest.(check bool)
        (r.bench ^ ": iterative simulation matches the interpreter")
        true r.iter.Core.Experiment.value_ok)
    par

let suite =
  [
    Alcotest.test_case "submission order, jobs=1" `Quick
      (test_submission_order 1);
    Alcotest.test_case "submission order, jobs=2" `Quick
      (test_submission_order 2);
    Alcotest.test_case "submission order, jobs=8" `Quick
      (test_submission_order 8);
    Alcotest.test_case "exception propagation, jobs=1" `Quick
      (test_exception_propagation 1);
    Alcotest.test_case "exception propagation, jobs=2" `Quick
      (test_exception_propagation 2);
    Alcotest.test_case "nested submit rejected, jobs=1" `Quick
      (test_nested_submit_rejected 1);
    Alcotest.test_case "nested submit rejected, jobs=2" `Quick
      (test_nested_submit_rejected 2);
    Alcotest.test_case "create rejects jobs=0" `Quick test_create_rejects_zero;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "default_jobs reads REPRO_JOBS" `Quick test_default_jobs;
    Alcotest.test_case "run_all jobs=4 == jobs=1 (3 kernels)" `Slow
      test_run_all_jobs_invariant;
  ]
