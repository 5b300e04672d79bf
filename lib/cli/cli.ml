open Cmdliner

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1

let kernel_conv =
  let parse name =
    match Hls.Kernels.by_name name with
    | k -> Ok k
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown kernel %S (see `regulate list`)" name))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf k.Hls.Kernels.name)

(* A repeated kernel would be run (and reported) twice for no new
   information: keep the first occurrence and warn on stderr so stdout
   stays a clean report. *)
let dedupe ~tool ks =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun k ->
      let n = k.Hls.Kernels.name in
      let dup = Hashtbl.mem seen n in
      if dup then Printf.eprintf "[%s] warning: duplicate kernel %S ignored\n%!" tool n
      else Hashtbl.add seen n ();
      not dup)
    ks

let kernels_arg ~tool =
  let resolve = function [] -> Hls.Kernels.all | ks -> dedupe ~tool ks in
  let doc = "Kernels (default: all nine)." in
  Term.(const resolve $ Arg.(value & pos_all kernel_conv [] & info [] ~docv:"KERNEL" ~doc))

let kernel_list_arg ~tool ~doc =
  Term.(
    const (Option.map (dedupe ~tool))
    $ Arg.(value & opt (some (list kernel_conv)) None & info [ "kernels" ] ~docv:"KERNELS" ~doc))

let jobs_arg =
  let doc =
    "Worker domains for multi-kernel runs (default: the $(b,REPRO_JOBS) environment variable, \
     else 1). Results and output order are identical at any width."
  in
  Arg.(value & opt pos_int (Support.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let levels_arg =
  Arg.(value & opt pos_int 6 & info [ "levels" ] ~docv:"N" ~doc:"Target logic levels (default 6).")

let trace_arg =
  let doc =
    "Profile the run and write Chrome trace-event JSON to $(docv) (load in chrome://tracing or \
     Perfetto). The per-stage summary table goes to stderr; stdout is byte-identical with and \
     without tracing. Missing parent directories are created."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let traced ~name trace f =
  match trace with
  | None -> Ok (f ())
  | Some path ->
    Support.Trace.start ();
    (match Support.Trace.with_span ~cat:"cli" name f with
    | v -> (
      let report = Support.Trace.stop () in
      match Support.Trace.write_chrome_json report path with
      | () ->
        Format.eprintf "%a" Support.Trace.pp_summary report;
        Format.eprintf "[trace] wrote %s@." path;
        Ok v
      | exception Sys_error msg -> Error (`Msg msg))
    | exception e ->
      ignore (Support.Trace.stop ());
      raise e)

let cache_dir_arg =
  let doc =
    "Artifact cache directory (overrides the $(b,REPRO_CACHE) environment variable). Synthesis \
     and LUT-mapping results, pre-characterised unit delays and MILP solutions are stored \
     content-addressed and reused across runs, processes and $(b,--jobs) domains; stdout is \
     byte-identical with and without the cache. See `regulate cache` for stats and maintenance."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let open_cache dir =
  Result.map_error (fun msg -> `Msg ("--cache-dir: " ^ msg)) (Cache.Session.of_flag dir)

let with_cache_session dir f =
  Result.bind (open_cache dir) @@ fun cache ->
  Fun.protect ~finally:(fun () -> Cache.Session.finish cache) (fun () -> f cache)

let no_narrow_arg =
  let doc =
    "Disable the abstract-interpretation narrowing stage (on by default: the flow shrinks unit \
     widths to their proven value envelopes, folds constant units and deletes dead branches \
     before synthesis, gated by random-simulation equivalence). See `regulate absint`."
  in
  Arg.(value & flag & info [ "no-narrow" ] ~doc)
