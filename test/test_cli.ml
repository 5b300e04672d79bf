(* The shared command-line terms: every numeric flag's range check and
   the kernel resolution that both `regulate` and the bench harness
   parse through. *)

open Cmdliner

let parses conv s = Result.is_ok (Arg.conv_parser conv s)

let test_int_ranges () =
  Alcotest.(check bool) "pos_int accepts 1" true (parses Cli.pos_int "1");
  Alcotest.(check bool) "pos_int rejects 0" false (parses Cli.pos_int "0");
  Alcotest.(check bool) "pos_int rejects -3" false (parses Cli.pos_int "-3");
  Alcotest.(check bool) "pos_int rejects a word" false (parses Cli.pos_int "two");
  let nat = Cli.int_at_least 0 in
  Alcotest.(check bool) "nat accepts 0" true (parses nat "0");
  Alcotest.(check bool) "nat rejects -1" false (parses nat "-1")

let test_unknown_kernel () =
  match Arg.conv_parser Cli.kernel_conv "nosuch" with
  | Ok _ -> Alcotest.fail "nosuch resolved"
  | Error (`Msg m) ->
    Alcotest.(check bool) "names the kernel" true (String.starts_with ~prefix:"unknown kernel" m)

(* Evaluate [term] on a command line; [None] on a usage error. *)
let eval term args =
  let cmd = Cmd.v (Cmd.info "t") term in
  match Cmd.eval_value ~err:Format.str_formatter ~argv:(Array.of_list ("t" :: args)) cmd with
  | Ok (`Ok v) -> Some v
  | _ -> None

let names = Option.map (List.map (fun k -> k.Hls.Kernels.name))

let test_kernel_list () =
  let kernels = Cli.kernel_list_arg ~tool:"test" ~doc:"" in
  Alcotest.(check (option (list string))) "absent" None (names (Option.join (eval kernels [])));
  Alcotest.(check (option (list string)))
    "comma list, duplicate dropped" (Some [ "gsum"; "gsumif" ])
    (names (Option.join (eval kernels [ "--kernels=gsum,gsumif,gsum" ])));
  Alcotest.(check bool) "unknown kernel is a usage error" true
    (eval kernels [ "--kernels"; "gsum,nosuch" ] = None)

let test_kernels_default_all () =
  match eval (Cli.kernels_arg ~tool:"test") [] with
  | Some ks -> Alcotest.(check int) "all nine" (List.length Hls.Kernels.all) (List.length ks)
  | None -> Alcotest.fail "usage error"

(* The per-kernel report driver, on a stub check: task 2 raises. *)

module J = Support.Json

(* [f ()]'s result and everything it printed on stdout *)
let capture_stdout f =
  let file = Filename.temp_file "report" ".out" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect f ~finally:(fun () ->
        Format.print_flush ();
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
  in
  let out = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (r, out)

let report ~json ~jobs tasks =
  capture_stdout (fun () ->
      Cli.report ~json ~jobs ~label:string_of_int
        ~check:(fun i -> if i = 2 then failwith "boom" else i * i)
        ~to_json:(fun i sq -> J.Obj [ ("label", J.Str (string_of_int i)); ("sq", J.Num (float sq)) ])
        ~print:(fun i sq -> Printf.printf "%d squared is %d\n" i sq)
        ~failed:(fun _ -> false) tasks)

let test_report_driver () =
  let tasks = [ 0; 1; 2; 3; 4 ] in
  let failed, text = report ~json:false ~jobs:1 tasks in
  Alcotest.(check bool) "a raising task fails the run" true failed;
  Alcotest.(check string) "text rows in submission order"
    "0 squared is 0\n1 squared is 1\n2               ERROR: Failure(\"boom\")\n3 squared is 9\n\
     4 squared is 16\n"
    text;
  let failed1, json1 = report ~json:true ~jobs:1 tasks in
  Alcotest.(check bool) "json: a raising task fails the run" true failed1;
  (match J.of_string json1 with
  | Ok (J.Arr rows) ->
    Alcotest.(check (list (option string)))
      "one row per task, in submission order" [ Some "0"; Some "1"; Some "2"; Some "3"; Some "4" ]
      (List.map (J.str_mem "label") rows);
    Alcotest.(check (option string))
      "the raising task is an error row" (Some "Failure(\"boom\")")
      (J.str_mem "error" (List.nth rows 2))
  | _ -> Alcotest.failf "not a closed JSON array: %S" json1);
  Alcotest.(check (pair bool string)) "jobs=3 text == jobs=1" (failed, text)
    (report ~json:false ~jobs:3 tasks);
  Alcotest.(check (pair bool string)) "jobs=3 json == jobs=1" (failed1, json1)
    (report ~json:true ~jobs:3 tasks);
  Alcotest.(check bool) "no failure without the raising task" false
    (fst (report ~json:true ~jobs:3 [ 0; 1; 3 ]))

let suite =
  [
    Alcotest.test_case "integer ranges" `Quick test_int_ranges;
    Alcotest.test_case "unknown kernel" `Quick test_unknown_kernel;
    Alcotest.test_case "kernel list" `Quick test_kernel_list;
    Alcotest.test_case "kernels default to all" `Quick test_kernels_default_all;
    Alcotest.test_case "report driver: order, error rows, jobs" `Quick test_report_driver;
  ]
