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

let suite =
  [
    Alcotest.test_case "integer ranges" `Quick test_int_ranges;
    Alcotest.test_case "unknown kernel" `Quick test_unknown_kernel;
    Alcotest.test_case "kernel list" `Quick test_kernel_list;
    Alcotest.test_case "kernels default to all" `Quick test_kernels_default_all;
  ]
