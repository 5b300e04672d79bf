(* The compile daemon: JSON codec, protocol round-trips, admission
   control, cooperative cancellation, structured errors (a poisoned
   request must leave the server serving), both transports, and the
   standing digest-determinism invariant: concurrently served results
   are byte-identical to serial one-shot runs. *)

module J = Support.Json
module P = Serve.Protocol
module S = Serve.Server

let check = Alcotest.check

let temp_dir () = Filename.temp_dir "repro-serve-test" ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_roundtrip j =
  match J.of_string (J.to_string j) with
  | Ok j' -> j'
  | Error msg -> Alcotest.failf "reparse failed: %s on %s" msg (J.to_string j)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Num 0.;
      J.Num (-17.);
      J.Num 3.141592653589793;
      J.Num 1e-9;
      J.Str "";
      J.Str "plain";
      J.Str "quote \" backslash \\ slash / newline \n tab \t cr \r";
      J.Str "control \001\002\031 bytes";
      J.Str "utf-8 snowman \xe2\x98\x83 passes through";
      J.Arr [];
      J.Arr [ J.Num 1.; J.Str "two"; J.Bool false; J.Null ];
      J.Obj [];
      J.Obj
        [
          ("nested", J.Obj [ ("deep", J.Arr [ J.Obj [ ("k", J.Str "v\n") ] ]) ]);
          ("empty key", J.Str "ok");
        ];
    ]
  in
  List.iter (fun j -> check Alcotest.bool "roundtrip equal" true (json_roundtrip j = j)) cases

let test_json_escaping () =
  (* printing is canonical: control characters escaped, one line *)
  check Alcotest.string "newline escaped" {|"a\nb"|} (J.to_string (J.Str "a\nb"));
  check Alcotest.string "quote escaped" {|"a\"b"|} (J.to_string (J.Str "a\"b"));
  check Alcotest.string "u-escape for control" "\"\\u0001\"" (J.to_string (J.Str "\001"));
  check Alcotest.string "integers print clean" "{\"n\":42}"
    (J.to_string (J.Obj [ ("n", J.Num 42.) ]));
  check Alcotest.string "fractions print round-trip digits" "0.10000000000000001"
    (J.to_string (J.Num 0.1));
  (* JSON has no NaN or infinity: non-finite numbers print as null *)
  check Alcotest.string "non-finite numbers print as null" "[null,null,null]"
    (J.to_string (J.Arr [ J.Num nan; J.Num infinity; J.Num neg_infinity ]));
  (* parsing handles \u escapes, including surrogate pairs *)
  (match J.of_string {|"\u0041\u00e9\u2603"|} with
  | Ok (J.Str s) -> check Alcotest.string "BMP escapes decode to UTF-8" "A\xc3\xa9\xe2\x98\x83" s
  | _ -> Alcotest.fail "BMP escape parse");
  (match J.of_string {|"\ud83d\ude00"|} with
  | Ok (J.Str s) -> check Alcotest.string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair parse");
  (* a lone high surrogate degrades to U+FFFD, never an exception *)
  (match J.of_string {|"\ud800"|} with
  | Ok (J.Str s) -> check Alcotest.string "lone surrogate replaced" "\xef\xbf\xbd" s
  | _ -> Alcotest.fail "lone surrogate parse")

let test_json_rejects () =
  let bad = [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{} trailing" ] in
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s)
    bad

(* ------------------------------------------------------------------ *)
(* protocol *)

let req ?kernel ?source ?(flavor = `Iterative) ?levels ?milp_nodes ?milp_budget_s id =
  { P.id; kernel; source; flavor; levels; milp_nodes; milp_budget_s }

let test_request_roundtrip () =
  let cases =
    [
      req ~kernel:"gsum" "r1";
      req ~source:"int f() { return 1; }" ~flavor:`Baseline "r2";
      req ~kernel:"mvt" ~levels:5 ~milp_nodes:1000 ~milp_budget_s:2.5 "r3";
      (* ids round-trip through escaping: quotes, newlines, tabs *)
      req ~kernel:"gsum" "weird \"id\"\nwith\ttabs";
    ]
  in
  List.iter
    (fun r ->
      match P.command_of_line (P.request_to_line r) with
      | Ok (P.Compile r') -> check Alcotest.bool ("roundtrip " ^ r.P.id) true (r = r')
      | Ok _ -> Alcotest.fail "parsed to a non-compile command"
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    cases;
  (match P.command_of_line {|{"cancel":true,"id":"r9"}|} with
  | Ok (P.Cancel "r9") -> ()
  | _ -> Alcotest.fail "cancel parse");
  (match P.command_of_line {|{"stats":true}|} with
  | Ok P.Stats -> ()
  | _ -> Alcotest.fail "stats parse");
  match P.command_of_line {|{"shutdown":true}|} with
  | Ok P.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown parse"

let test_request_errors () =
  let bad =
    [
      "not json";
      "[1,2]";
      {|{"id":"a"}|};
      {|{"kernel":"gsum"}|};
      {|{"id":"","kernel":"gsum"}|};
      {|{"id":"a","kernel":"gsum","source":"int f(){}"}|};
      {|{"id":"a","kernel":"gsum","flavor":"fast"}|};
      {|{"id":"a","kernel":"gsum","levels":0}|};
      {|{"id":"a","kernel":"gsum","milp_nodes":-5}|};
      {|{"id":"a","kernel":"gsum","milp_budget_s":0}|};
      {|{"cancel":true}|};
    ]
  in
  List.iter
    (fun line ->
      match P.command_of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %s" line)
    bad

let dummy_completion ?(digest = "") id =
  {
    P.r_digest = (if digest = "" then "digest-" ^ id else digest);
    r_flavor = `Iterative;
    r_levels = 6;
    r_met_target = true;
    r_buffers = 3;
    r_iterations = 1;
    r_phi = 0.5;
    r_certified = 0.625;
    r_measured = None;
  }

let test_event_roundtrip () =
  let events =
    [
      P.Accepted { id = "a"; inflight = 3 };
      P.Rejected { id = "b"; code = "server-busy"; message = "queue full: 8 in flight (limit 8)" };
      P.Status { id = "c"; stage = "iteration 2" };
      P.Done { id = "d\"quoted\""; wall_ms = 12.5; result = dummy_completion "d" };
      P.Done
        {
          id = "m";
          wall_ms = 1.;
          result =
            {
              (dummy_completion "m") with
              P.r_measured =
                Some
                  {
                    P.m_cp = 4.2;
                    m_cycles = 37;
                    m_exec_ns = 155.4;
                    m_luts = 120;
                    m_ffs = 64;
                    m_value_ok = true;
                  };
            };
        };
      P.Failed { id = Some "e"; code = "milp-exhausted"; message = "node budget exhausted" };
      P.Failed { id = None; code = "bad-request"; message = "bad JSON: empty input" };
      P.Cancelled { id = "f" };
      P.Stats_reply
        {
          P.s_served = 10;
          s_errors = 1;
          s_rejected = 2;
          s_cancelled = 3;
          s_inflight = 4;
          s_cache_hits = 20;
          s_cache_misses = 5;
          s_uptime_s = 1.5;
        };
      P.Bye;
    ]
  in
  List.iter
    (fun ev ->
      match P.event_of_line (P.event_to_line ev) with
      | Ok ev' -> check Alcotest.bool ("event roundtrip " ^ P.event_to_line ev) true (ev = ev')
      | Error msg -> Alcotest.failf "event reparse failed: %s" msg)
    events

let test_error_classification () =
  let code exn = fst (P.error_of_exn exn) in
  check Alcotest.string "node budget" "milp-exhausted"
    (code (Failure "buffer MILP node budget exhausted after 20 nodes"));
  check Alcotest.string "wall budget" "milp-exhausted"
    (code (Failure "buffer MILP time budget exhausted"));
  check Alcotest.string "infeasible" "milp-infeasible" (code (Failure "MILP infeasible: bound"));
  check Alcotest.string "other failure" "flow-failed" (code (Failure "something else"));
  check Alcotest.string "unknown kernel" "unknown-kernel" (code Not_found);
  check Alcotest.string "internal" "internal-error" (code Exit);
  let parse_exn = match Hls.Parser.parse "int f(" with _ -> Exit | exception e -> e in
  check Alcotest.string "parse error" "compile-failed" (code parse_exn)

(* ------------------------------------------------------------------ *)
(* server: a thread-safe event collector and wait helper *)

let collector () =
  let mu = Mutex.create () in
  let events = ref [] in
  let emit ev =
    Mutex.lock mu;
    events := ev :: !events;
    Mutex.unlock mu
  in
  let get () =
    Mutex.lock mu;
    let es = List.rev !events in
    Mutex.unlock mu;
    es
  in
  (emit, get)

let wait_for ?(timeout = 10.) ~what get pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if List.exists pred (get ()) then ()
    else if Unix.gettimeofday () -. t0 > timeout then Alcotest.failf "timed out waiting: %s" what
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let is_done id = function P.Done { id = id'; _ } -> id' = id | _ -> false
let is_cancelled id = function P.Cancelled { id = id' } -> id' = id | _ -> false

let send t emit line =
  match S.handle_line t ~emit line with
  | `Continue -> ()
  | `Stop -> Alcotest.fail "unexpected stop"

let test_bounded_queue_rejection () =
  let gate = Atomic.make false in
  let runner session (r : P.request) =
    while not (Atomic.get gate) do
      Core.Session.check_cancel session;
      Unix.sleepf 0.001
    done;
    dummy_completion r.P.id
  in
  let t = S.create ~runner { S.default_config with S.jobs = 2; queue_limit = 3 } in
  let emit, get = collector () in
  send t emit (P.request_to_line (req ~kernel:"gsum" "a"));
  send t emit (P.request_to_line (req ~kernel:"gsum" "b"));
  (* a duplicate id is refused while the original is in flight (the
     queue still has room, so this is the duplicate check, not the
     bound) *)
  send t emit (P.request_to_line (req ~kernel:"gsum" "a"));
  wait_for get ~what:"duplicate a rejected" (function
    | P.Rejected { id = "a"; code = "duplicate-id"; _ } -> true
    | _ -> false);
  send t emit (P.request_to_line (req ~kernel:"gsum" "c"));
  (* all three slots taken (workers blocked on the gate): the next
     request must bounce off admission control, deterministically *)
  send t emit (P.request_to_line (req ~kernel:"gsum" "d"));
  wait_for get ~what:"d rejected" (function
    | P.Rejected { id = "d"; code = "server-busy"; _ } -> true
    | _ -> false);
  Atomic.set gate true;
  S.drain t;
  wait_for get ~what:"a done" (is_done "a");
  wait_for get ~what:"b done" (is_done "b");
  wait_for get ~what:"c done" (is_done "c");
  let accepted =
    List.filter (function P.Accepted _ -> true | _ -> false) (get ()) |> List.length
  in
  check Alcotest.int "exactly three admissions" 3 accepted;
  let s = S.stats t in
  check Alcotest.int "both rejections counted" 2 s.P.s_rejected

let test_cancellation_mid_flow () =
  (* the flow itself: a session whose poll flips mid-run must abort the
     iteration loop with Session.Cancelled, not complete *)
  let polls = ref 0 in
  let session =
    Core.Session.make
      ~cancelled:(fun () ->
        incr polls;
        !polls > 1)
      ()
  in
  let g = Hls.Kernels.graph Fixtures.tsum in
  (match Core.Flow.iterative ~config:Fixtures.cheap_flow_config ~session g with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Core.Session.Cancelled -> ());
  check Alcotest.bool "cancellation was polled more than once" true (!polls >= 2)

let test_server_cancellation () =
  let gate = Atomic.make false in
  let runner session (r : P.request) =
    while not (Atomic.get gate) do
      Core.Session.check_cancel session;
      Unix.sleepf 0.001
    done;
    dummy_completion r.P.id
  in
  let t = S.create ~runner { S.default_config with S.jobs = 2; queue_limit = 4 } in
  let emit, get = collector () in
  send t emit (P.request_to_line (req ~kernel:"gsum" "x"));
  send t emit {|{"cancel":true,"id":"x"}|};
  wait_for get ~what:"x cancelled" (is_cancelled "x");
  (* cancelling something unknown is an error event, not a crash *)
  send t emit {|{"cancel":true,"id":"ghost"}|};
  wait_for get ~what:"ghost not-in-flight" (function
    | P.Failed { id = Some "ghost"; code = "not-in-flight"; _ } -> true
    | _ -> false);
  (* the server still serves after a cancellation *)
  Atomic.set gate true;
  send t emit (P.request_to_line (req ~kernel:"gsum" "y"));
  wait_for get ~what:"y done" (is_done "y");
  S.drain t;
  let s = S.stats t in
  check Alcotest.int "one cancelled" 1 s.P.s_cancelled;
  check Alcotest.int "one served" 1 s.P.s_served

let test_poisoned_request_keeps_serving () =
  (* a request whose MILP blows its budget (the fuzz oracle's Failure
     strings) must come back as a structured error and leave the daemon
     fully operational — likewise a malformed line *)
  let runner _session (r : P.request) =
    if String.length r.P.id >= 6 && String.sub r.P.id 0 6 = "poison" then
      failwith "buffer MILP node budget exhausted after 20 nodes"
    else dummy_completion r.P.id
  in
  let t = S.create ~runner { S.default_config with S.jobs = 1; queue_limit = 4 } in
  let emit, get = collector () in
  send t emit (P.request_to_line (req ~kernel:"gsum" "poison-1"));
  wait_for get ~what:"poison classified" (function
    | P.Failed { id = Some "poison-1"; code = "milp-exhausted"; _ } -> true
    | _ -> false);
  send t emit "{this is not json";
  wait_for get ~what:"bad line answered" (function
    | P.Failed { id = None; code = "bad-request"; _ } -> true
    | _ -> false);
  send t emit (P.request_to_line (req ~kernel:"gsum" "ok-1"));
  wait_for get ~what:"server still serves" (is_done "ok-1");
  S.drain t;
  let s = S.stats t in
  check Alcotest.int "served despite the poison" 1 s.P.s_served;
  check Alcotest.int "both failures counted" 2 s.P.s_errors;
  check Alcotest.int "nothing left in flight" 0 s.P.s_inflight

(* ------------------------------------------------------------------ *)
(* determinism: concurrently served digests == serial one-shot digests *)

let serial_digest src flavor =
  let g = Hls.Compile.compile (Hls.Parser.parse src) in
  let config = Fixtures.cheap_flow_config in
  let outcome =
    match flavor with
    | `Iterative -> Core.Flow.iterative ~config g
    | `Baseline -> Core.Flow.baseline ~config g
  in
  P.outcome_digest outcome

let done_digest get id =
  wait_for get ~what:(id ^ " done") (is_done id);
  List.find_map
    (function P.Done { id = id'; result; _ } when id' = id -> Some result.P.r_digest | _ -> None)
    (get ())
  |> Option.get

let test_concurrent_digests_deterministic () =
  let shapes =
    List.concat_map
      (fun k ->
        List.map
          (fun flavor -> (k.Hls.Kernels.source, flavor))
          [ `Iterative; `Baseline ])
      Fixtures.tiny_kernels
  in
  let expected = List.map (fun (src, fl) -> serial_digest src fl) shapes in
  (* each shape twice, all in flight together on four domains *)
  let requests =
    List.concat (List.init 2 (fun round ->
        List.mapi
          (fun i (src, flavor) ->
            (i, req ~source:src ~flavor (Printf.sprintf "q%d-%d" round i)))
          shapes))
  in
  let t =
    S.create
      {
        S.default_config with
        S.jobs = 4;
        queue_limit = List.length requests;
        flow = Fixtures.cheap_flow_config;
      }
  in
  let emit, get = collector () in
  List.iter (fun (_, r) -> send t emit (P.request_to_line r)) requests;
  S.drain t;
  List.iter
    (fun (i, (r : P.request)) ->
      check Alcotest.string (r.P.id ^ " digest matches serial one-shot") (List.nth expected i)
        (done_digest get r.P.id))
    requests

(* a request's [levels] moves the MILP clock-period target along with
   the level target, exactly as a one-shot flow at that level does *)
let test_request_levels_set_cp_target () =
  let src = Fixtures.tsum.Hls.Kernels.source in
  let config = Core.Flow.with_levels 8 Fixtures.cheap_flow_config in
  let expected =
    P.outcome_digest (Core.Flow.iterative ~config (Hls.Compile.compile (Hls.Parser.parse src)))
  in
  let t = S.create { S.default_config with S.flow = Fixtures.cheap_flow_config } in
  let emit, get = collector () in
  send t emit (P.request_to_line (req ~source:src ~levels:8 "lv8"));
  S.drain t;
  check Alcotest.string "levels=8 digest == one-shot with_levels 8" expected
    (done_digest get "lv8")

(* ------------------------------------------------------------------ *)
(* transports *)

let test_serve_channels_pipe () =
  let r_in, w_in = Unix.pipe () and r_out, w_out = Unix.pipe () in
  let t =
    S.create
      ~runner:(fun _ r -> dummy_completion r.P.id)
      { S.default_config with S.jobs = 1; queue_limit = 4 }
  in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr r_in and oc = Unix.out_channel_of_descr w_out in
        S.serve_channels t ic oc)
  in
  let coc = Unix.out_channel_of_descr w_in and cic = Unix.in_channel_of_descr r_out in
  let weird_id = "id \"with\" newline\nand tab\t!" in
  output_string coc (P.request_to_line (req ~kernel:"gsum" weird_id) ^ "\n");
  output_string coc "garbage line\n";
  output_string coc "{\"stats\":true}\n";
  flush coc;
  close_out coc;
  (* client EOF: the daemon drains and byes (the server does not close
     our read end, so read up to the bye, not to EOF) *)
  let rec read_until_bye acc =
    match input_line cic with
    | exception End_of_file -> Alcotest.fail "connection closed before bye"
    | line -> (
      match P.event_of_line line with
      | Ok P.Bye -> List.rev (P.Bye :: acc)
      | Ok ev -> read_until_bye (ev :: acc)
      | Error msg -> Alcotest.failf "bad event on the wire: %s in %s" msg line)
  in
  let events = read_until_bye [] in
  Domain.join server;
  check Alcotest.bool "accepted the weird id" true
    (List.exists (function P.Accepted { id; _ } -> id = weird_id | _ -> false) events);
  check Alcotest.bool "done for the weird id, digest intact" true
    (List.exists
       (function
         | P.Done { id; result; _ } ->
           id = weird_id && result.P.r_digest = "digest-" ^ weird_id
         | _ -> false)
       events);
  check Alcotest.bool "bad line answered in-band" true
    (List.exists
       (function P.Failed { id = None; code = "bad-request"; _ } -> true | _ -> false)
       events);
  check Alcotest.bool "stats answered" true
    (List.exists (function P.Stats_reply _ -> true | _ -> false) events);
  match List.rev events with
  | P.Bye :: _ -> ()
  | _ -> Alcotest.fail "expected a final bye"

let wait_for_socket path =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () -. t0 > 10. then Alcotest.fail "socket never came up"
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

let test_socket_loadgen_end_to_end () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "serve.sock" in
  let t =
    S.create
      ~runner:(fun _ r -> dummy_completion r.P.id)
      { S.default_config with S.jobs = 2; queue_limit = 8 }
  in
  let server = Domain.spawn (fun () -> S.serve_socket t path) in
  wait_for_socket path;
  let requests = List.init 25 (fun i -> req ~kernel:"gsum" (Printf.sprintf "s%d" i)) in
  let res = Serve.Loadgen.run ~window:4 ~socket:path requests in
  check Alcotest.int "all completed" 25 res.Serve.Loadgen.l_completed;
  check Alcotest.int "no errors" 0 res.Serve.Loadgen.l_errors;
  check Alcotest.int "no rejections (window <= queue limit)" 0 res.Serve.Loadgen.l_rejected;
  check Alcotest.int "a digest per request" 25 (List.length res.Serve.Loadgen.l_digests);
  List.iter
    (fun (id, d) -> check Alcotest.string ("digest of " ^ id) ("digest-" ^ id) d)
    res.Serve.Loadgen.l_digests;
  check Alcotest.bool "latencies measured" true (res.Serve.Loadgen.l_p99_ms >= res.Serve.Loadgen.l_p50_ms);
  Serve.Loadgen.shutdown ~socket:path;
  Domain.join server;
  check Alcotest.bool "socket unlinked after shutdown" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* the session's MILP budget overrides and level targets *)

let test_session_budget_overrides () =
  let base = Core.Flow.default_config.Core.Flow.milp in
  let s = Core.Session.make ~milp_nodes:123 ~milp_budget_s:4.5 () in
  let cfg = Core.Session.milp_config s base in
  check Alcotest.int "node budget overridden" 123 cfg.Buffering.Formulation.node_limit;
  check (Alcotest.float 1e-9) "wall budget overridden" 4.5 cfg.Buffering.Formulation.time_limit;
  let cfg' = Core.Session.milp_config (Core.Session.make ()) base in
  check Alcotest.int "no override keeps the config" base.Buffering.Formulation.node_limit
    cfg'.Buffering.Formulation.node_limit;
  check Alcotest.bool "a made session has no cache" false
    (Cache.Session.enabled (Core.Session.make ()).Core.Session.cache)

let suite =
  [
    Alcotest.test_case "json: value roundtrips" `Quick test_json_roundtrip;
    Alcotest.test_case "json: escaping, u-escapes, surrogate pairs" `Quick test_json_escaping;
    Alcotest.test_case "json: malformed input rejected" `Quick test_json_rejects;
    Alcotest.test_case "protocol: request roundtrips incl escaping" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: malformed requests rejected" `Quick test_request_errors;
    Alcotest.test_case "protocol: event roundtrips" `Quick test_event_roundtrip;
    Alcotest.test_case "protocol: exception classification" `Quick test_error_classification;
    Alcotest.test_case "server: bounded queue rejects deterministically" `Quick
      test_bounded_queue_rejection;
    Alcotest.test_case "flow: cancellation aborts mid-iteration" `Quick test_cancellation_mid_flow;
    Alcotest.test_case "server: cancel in flight, keep serving" `Quick test_server_cancellation;
    Alcotest.test_case "server: poisoned request leaves it serving" `Quick
      test_poisoned_request_keeps_serving;
    Alcotest.test_case "server: concurrent digests == serial one-shot" `Slow
      test_concurrent_digests_deterministic;
    Alcotest.test_case "server: request levels set the cp target" `Quick
      test_request_levels_set_cp_target;
    Alcotest.test_case "transport: stdio pipe end to end" `Quick test_serve_channels_pipe;
    Alcotest.test_case "transport: socket + loadgen end to end" `Quick
      test_socket_loadgen_end_to_end;
    Alcotest.test_case "session: MILP budget overrides" `Quick test_session_budget_overrides;
  ]
