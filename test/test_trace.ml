(* Support.Trace: the flow-wide span + counter layer. The contracts
   under test: (1) the span tree is deterministic in shape across pool
   widths — the same workload yields the same summary rows and the same
   parent edges at jobs 1, 2 and 8, because task spans re-root under the
   submitter's context; (2) disabled-mode primitives allocate nothing
   visible (the layer is permanently compiled into hot paths);
   (3) the Chrome trace-event sink emits JSON that Support.Json parses
   back; (4) counters merge by summation across domain buffers. *)

module Trace = Support.Trace
module Pool = Support.Pool

(* ------------------------------------------------------------------ *)
(* fixture workload: root -> 6 tasks (two names) -> inner, via a pool *)

let workload jobs =
  Trace.start ();
  Trace.with_span ~cat:"test" "root" (fun () ->
      let ctx = Trace.current_context () in
      ignore
        (Pool.run ~jobs (fun p ->
             List.init 6 (fun i ->
                 Pool.submit p (fun () ->
                     Trace.with_context ctx (fun () ->
                         Trace.with_span ~cat:"task"
                           (Printf.sprintf "task%d" (i mod 2))
                           (fun () ->
                             Trace.add "work.items" 1;
                             Trace.with_span "inner" (fun () ->
                                 Trace.add "inner.calls" (i + 1))))))
             |> List.map Pool.await)));
  Trace.stop ()

let shape report =
  Trace.summary report
  |> List.map (fun r -> (r.Trace.row_name, r.Trace.row_calls))
  |> List.sort compare

let parent_edges report =
  List.map (fun s -> (s.Trace.sp_name, s.Trace.sp_parent, s.Trace.sp_depth)) report.Trace.r_spans
  |> List.sort_uniq compare

let test_nesting_determinism jobs () =
  let r = workload jobs in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "summary shape at jobs=%d" jobs)
    [ ("inner", 6); ("root", 1); ("task0", 3); ("task1", 3) ]
    (shape r);
  Alcotest.(check (list (triple string (option string) int)))
    (Printf.sprintf "parent edges and depths at jobs=%d" jobs)
    [
      ("inner", Some "task0", 2);
      ("inner", Some "task1", 2);
      ("root", None, 0);
      ("task0", Some "root", 1);
      ("task1", Some "root", 1);
    ]
    (parent_edges r);
  Alcotest.(check int)
    (Printf.sprintf "work.items merged at jobs=%d" jobs)
    6 (Trace.counter r "work.items");
  Alcotest.(check int)
    (Printf.sprintf "inner.calls merged at jobs=%d" jobs)
    21 (Trace.counter r "inner.calls")

(* ------------------------------------------------------------------ *)

let nothing () = ()

let test_disabled_no_alloc () =
  Alcotest.(check bool) "tracing is disabled" false (Trace.enabled ());
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Trace.add "noop.counter" 1;
    Trace.with_span "noop.span" nothing
  done;
  let spent = Gc.minor_words () -. before in
  (* the loop itself is allocation-free; allow slack for the two
     [Gc.minor_words] boxed results and instrumentation noise *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled primitives allocate nothing (%.0f minor words for %d rounds)" spent
       rounds)
    true
    (spent < 256.)

let test_disabled_passthrough () =
  Alcotest.(check bool) "tracing is disabled" false (Trace.enabled ());
  Alcotest.(check int) "with_span is the identity bracket" 42 (Trace.with_span "x" (fun () -> 42));
  let v, dt = Trace.timed "y" (fun () -> 7) in
  Alcotest.(check int) "timed returns the value" 7 v;
  Alcotest.(check bool) "timed still measures" true (dt >= 0.)

let test_span_closes_on_exception () =
  Trace.start ();
  (try Trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  let inner = Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> 5)) in
  Alcotest.(check int) "value flows through" 5 inner;
  let r = Trace.stop () in
  Alcotest.(check (list (pair string int)))
    "raising span is recorded and the stack is intact"
    [ ("boom", 1); ("inner", 1); ("outer", 1) ]
    (shape r);
  Alcotest.(check (option string))
    "outer is a root again after the raise" None
    (List.find_map
       (fun s -> if s.Trace.sp_name = "outer" then Some s.Trace.sp_parent else None)
       r.Trace.r_spans
    |> Option.join)

(* ------------------------------------------------------------------ *)
(* counters merge across domains: every worker contributes a partial
   sum into its own buffer; stop() must add them all up *)

let test_counter_merge_across_domains () =
  Trace.start ();
  ignore
    (Pool.run ~jobs:8 (fun p ->
         List.init 64 (fun i ->
             Pool.submit p (fun () ->
                 Trace.add "merge.sum" i;
                 if i mod 2 = 0 then Trace.add "merge.evens" 1))
         |> List.map Pool.await));
  let r = Trace.stop () in
  Alcotest.(check int) "sum 0..63" 2016 (Trace.counter r "merge.sum");
  Alcotest.(check int) "even tasks" 32 (Trace.counter r "merge.evens");
  Alcotest.(check int) "untouched counter is 0" 0 (Trace.counter r "merge.missing")

(* ------------------------------------------------------------------ *)
(* the Chrome sink read back through Support.Json's parser *)

module J = Support.Json

let parse_json s =
  match J.of_string s with Ok v -> v | Error msg -> Alcotest.failf "json parse error: %s" msg

let chrome_json r = parse_json (J.to_string (Trace.to_chrome_json r))

let obj_get key j =
  match J.mem key j with Some v -> v | None -> Alcotest.failf "missing key %S" key

let as_num j = match J.num j with Some f -> f | None -> Alcotest.fail "not a number"
let as_str j = match J.str j with Some s -> s | None -> Alcotest.fail "not a string"
let as_arr = function J.Arr l -> l | _ -> Alcotest.fail "not an array"

let test_chrome_json_roundtrip () =
  let r = workload 1 in
  let doc = chrome_json r in
  let events = as_arr (obj_get "traceEvents" doc) in
  let xs = List.filter (fun e -> as_str (obj_get "ph" e) = "X") events in
  let cs = List.filter (fun e -> as_str (obj_get "ph" e) = "C") events in
  Alcotest.(check int) "one X event per span" (List.length r.Trace.r_spans) (List.length xs);
  Alcotest.(check int) "one C event per counter" (List.length r.Trace.r_counters) (List.length cs);
  List.iter
    (fun e ->
      let ts = as_num (obj_get "ts" e) and dur = as_num (obj_get "dur" e) in
      Alcotest.(check bool) "ts is non-negative" true (ts >= 0.);
      Alcotest.(check bool) "dur is non-negative" true (dur >= 0.);
      Alcotest.(check bool)
        "event fits inside the session"
        true
        (ts +. dur <= (r.Trace.r_wall *. 1e6) +. 1e3);
      ignore (as_str (obj_get "name" e));
      ignore (as_str (obj_get "cat" e));
      ignore (as_num (obj_get "pid" e));
      ignore (as_num (obj_get "tid" e));
      ignore (obj_get "parent" (obj_get "args" e)))
    xs;
  let other = obj_get "otherData" doc in
  Alcotest.(check bool) "wall_s positive" true (as_num (obj_get "wall_s" other) > 0.);
  let counters = obj_get "counters" other in
  Alcotest.(check int) "counters.work.items" 6 (int_of_float (as_num (obj_get "work.items" counters)));
  Alcotest.(check int)
    "counters.inner.calls" 21
    (int_of_float (as_num (obj_get "inner.calls" counters)));
  let summary = as_arr (obj_get "summary" other) in
  Alcotest.(check (list string))
    "summary rows name every stage"
    [ "inner"; "root"; "task0"; "task1" ]
    (List.map (fun row -> as_str (obj_get "name" row)) summary |> List.sort compare);
  (* escaping: a hostile span name survives the round trip *)
  Trace.start ();
  Trace.with_span "we\"ird\\name\nwith\tescapes" (fun () -> ());
  let r2 = Trace.stop () in
  let doc2 = chrome_json r2 in
  let names =
    as_arr (obj_get "traceEvents" doc2)
    |> List.filter (fun e -> as_str (obj_get "ph" e) = "X")
    |> List.map (fun e -> as_str (obj_get "name" e))
  in
  Alcotest.(check (list string))
    "escaped name round-trips"
    [ "we\"ird\\name\nwith\tescapes" ]
    names

let test_write_creates_parent_dirs () =
  let dir = Filename.temp_file "trace_test" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "a/b") "t.json" in
  Trace.start ();
  Trace.with_span "tiny" (fun () -> ());
  let r = Trace.stop () in
  Trace.write_chrome_json r path;
  let ok = Sys.file_exists path in
  Alcotest.(check bool) "file created below fresh directories" true ok;
  (match parse_json (In_channel.with_open_text path In_channel.input_all) with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "written file is not a JSON object");
  match Trace.write_chrome_json r "/proc/definitely/not/t.json" with
  | () -> Alcotest.fail "writing under /proc unexpectedly succeeded"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "nesting determinism jobs=1" `Quick (test_nesting_determinism 1);
    Alcotest.test_case "nesting determinism jobs=2" `Quick (test_nesting_determinism 2);
    Alcotest.test_case "nesting determinism jobs=8" `Quick (test_nesting_determinism 8);
    Alcotest.test_case "disabled mode allocates nothing" `Quick test_disabled_no_alloc;
    Alcotest.test_case "disabled mode passes values through" `Quick test_disabled_passthrough;
    Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
    Alcotest.test_case "counters merge across domains" `Quick test_counter_merge_across_domains;
    Alcotest.test_case "chrome json round-trips a minimal parser" `Quick test_chrome_json_roundtrip;
    Alcotest.test_case "write creates parent directories" `Quick test_write_creates_parent_dirs;
  ]
