(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VI) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything below in order
     dune exec bench/main.exe -- table1       -- Table I (E1, E3, E4)
     dune exec bench/main.exe -- figure5      -- Figure 5 (E2)
     dune exec bench/main.exe -- ablation-penalty     -- A1 (Eq. 1 vs Eq. 3)
     dune exec bench/main.exe -- ablation-iterations  -- A2 (one-shot vs iterative)
     dune exec bench/main.exe -- ablation-routing     -- A3 (wire-aware model)
     dune exec bench/main.exe -- ablation-slack       -- A4 (transparent sizing)
     dune exec bench/main.exe -- ablation-balance     -- A5 (AND re-association)
     dune exec bench/main.exe -- sweep        -- E5 (level-target sweep; not in the default
                                                 run: it re-runs both flows several times)
     dune exec bench/main.exe -- ablation-width       -- A6 (8- vs 16-bit datapath; not in
                                                         the default run either)

   Options (before or after the targets; see --help):

     -j N / --jobs N     run independent flow tasks on N worker domains
                         (default: $REPRO_JOBS, else 1); any width
                         produces byte-identical tables — task results
                         are returned in submission order
     --kernels a,b,c     restrict table1/figure5 to a kernel subset
                         (CI smoke runs use a two-kernel subset)
     --trace FILE        Chrome trace JSON of the run; one span per target
     --cache-dir DIR     artifact cache shared across runs and processes
     --no-narrow         rerun without the value-range narrowing stage

   The options are the shared terms of [Cli], parsed exactly as
   `regulate` parses them: a bad value (an unknown kernel or target,
   --jobs 0) is a usage error with exit code 124.

   Timing lines and the run summary go to stderr so that stdout (the
   tables, the CSV) is byte-identical whatever the jobs width.

   Absolute numbers come from the OCaml substrate (simulated synthesis,
   placement and routing), so they differ from the paper's Stratix-IV
   runs; the comparison SHAPE — who wins, by roughly what factor — is the
   reproduction target.  See EXPERIMENTS.md. *)

let fmt = Format.std_formatter

let banner title =
  Format.fprintf fmt "@\n============================================================@\n";
  Format.fprintf fmt "%s@\n" title;
  Format.fprintf fmt "============================================================@\n@."

(* ------------------------------------------------------------------ *)
(* one bench run: the session every flow runs under, the pool width,
   and the Table I rows, computed once and shared between table1 and
   figure5 *)

type run = { session : Core.Session.t; jobs : int; rows : Core.Experiment.row list Lazy.t }

let table_rows ~session ~jobs ~kernels ~narrow =
  Printf.eprintf "[bench] running %d kernels x 2 flavors, jobs=%d\n%!"
    (List.length (Option.value kernels ~default:Hls.Kernels.all))
    jobs;
  let config = { Core.Flow.default_config with Core.Flow.narrow } in
  let r, timings, wall = Core.Experiment.run_all_timed ~config ~session ~jobs ?kernels () in
  List.iter
    (fun t ->
      Printf.eprintf "[bench]   %-15s %-9s %8.2fs\n%!" t.Core.Experiment.t_bench
        t.Core.Experiment.t_flavor t.Core.Experiment.t_seconds)
    timings;
  let seq = List.fold_left (fun a t -> a +. t.Core.Experiment.t_seconds) 0. timings in
  Printf.eprintf
    "[bench] wall-clock %.2fs at jobs=%d; sequential-equivalent (sum of tasks) %.2fs; speedup %.2fx\n%!"
    wall jobs seq
    (if wall > 0. then seq /. wall else 1.);
  r

(* One flow run under the bench's session, measured. *)
let metrics run ?config flavor k =
  fst (Core.Experiment.run_flow ?config ~session:run.session ~flavor k)

(* Ablation drivers fan their independent flow runs through the same
   pool: tasks are submitted up front and awaited in submission order, so
   the printed tables never depend on the jobs width. *)
let pooled run tasks =
  Support.Pool.run ~jobs:run.jobs (fun pool ->
      List.map (Support.Pool.submit pool) tasks |> List.map Support.Pool.await)

(* Every ablation submits two tasks per row label; [print_pairs] walks the
   awaited results two at a time alongside the labels. *)
let rec print_pairs print_row labels results =
  match (labels, results) with
  | label :: labels, a :: b :: results ->
    print_row label a b;
    print_pairs print_row labels results
  | _ -> ()

let table1 run =
  banner "Table I: iterative mapping-aware (Iter.) vs mapping-agnostic (Prev.)";
  let r = Lazy.force run.rows in
  Core.Report.table1 fmt r;
  Format.fprintf fmt "@\n";
  Core.Report.iterations fmt r;
  Format.pp_print_flush fmt ();
  (try
     Out_channel.with_open_text "results.csv" (fun oc ->
         let cfmt = Format.formatter_of_out_channel oc in
         Core.Report.csv cfmt r;
         Format.pp_print_flush cfmt ())
   with Sys_error msg ->
     Printf.eprintf "bench: cannot write results.csv: %s\n" msg;
     exit 1);
  Format.fprintf fmt "(wrote results.csv)@."

let figure5 run =
  banner "Figure 5: normalised execution time and resources";
  Core.Report.figure5 fmt (Lazy.force run.rows);
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A1: the penalty term of Eq. 3 against the plain Eq. 1 objective *)

let ablation_penalty run =
  banner "Ablation A1: Eq. 3 penalty term on/off (iterative flow, subset)";
  let subset = [ "gsum"; "gsumif"; "matrix" ] in
  let no_penalty =
    {
      Core.Flow.default_config with
      Core.Flow.milp =
        { Core.Flow.default_config.Core.Flow.milp with Buffering.Formulation.use_penalty = false };
    }
  in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics run `Iterative k);
             (fun () -> metrics run ~config:no_penalty `Iterative k);
           ])
         subset)
  in
  Format.fprintf fmt "%-12s | %18s | %18s@\n" "kernel" "with penalty" "without penalty";
  Format.fprintf fmt "%-12s | %8s %9s | %8s %9s@\n" "" "buffers" "levels" "buffers" "levels";
  print_pairs
    (fun name (with_pen : _) (without : _) ->
      Format.fprintf fmt "%-12s | %8d %9d | %8d %9d@\n" name with_pen.Core.Experiment.buffers
        with_pen.Core.Experiment.levels without.Core.Experiment.buffers
        without.Core.Experiment.levels)
    subset results;
  Format.fprintf fmt
    "(the penalty steers buffers away from channels with shared logic;@\n\
    \ without it the same period target is met with more disruptive placements)@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A2: iteration budget 1 (one-shot mapping-aware) vs full iterative *)

let ablation_iterations run =
  banner "Ablation A2: one-shot mapping-aware vs full iterative (subset)";
  let subset = [ "gsum"; "gsumif"; "matrix" ] in
  let one_cfg = { Core.Flow.default_config with Core.Flow.max_iterations = 1 } in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics run ~config:one_cfg `Iterative k);
             (fun () -> metrics run `Iterative k);
           ])
         subset)
  in
  Format.fprintf fmt "%-12s | %22s | %22s@\n" "kernel" "max_iterations = 1" "full iterative";
  Format.fprintf fmt "%-12s | %9s %12s | %9s %12s@\n" "" "levels" "target met" "levels" "target met";
  print_pairs
    (fun name (one : _) (full : _) ->
      Format.fprintf fmt "%-12s | %9d %12b | %9d %12b@\n" name one.Core.Experiment.levels
        one.Core.Experiment.met_target full.Core.Experiment.levels full.Core.Experiment.met_target)
    subset results;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A3: routing-aware timing model (the paper's future-work enhancement) *)

let ablation_routing run =
  banner "Ablation A3: routing-aware timing model on/off (subset)";
  let subset = [ "gsum"; "gsumif" ] in
  let aware_cfg = { Core.Flow.default_config with Core.Flow.routing_aware = true } in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics run `Iterative k);
             (fun () -> metrics run ~config:aware_cfg `Iterative k);
           ])
         subset)
  in
  Format.fprintf fmt "%-12s | %24s | %24s@\n" "kernel" "mapping-aware" "+ routing aware";
  Format.fprintf fmt "%-12s | %9s %6s %7s | %9s %6s %7s@\n" "" "cp(ns)" "bufs" "levels" "cp(ns)"
    "bufs" "levels";
  print_pairs
    (fun name (plain : _) (aware : _) ->
      Format.fprintf fmt "%-12s | %9.2f %6d %7d | %9.2f %6d %7d@\n" name plain.Core.Experiment.cp
        plain.Core.Experiment.buffers plain.Core.Experiment.levels aware.Core.Experiment.cp
        aware.Core.Experiment.buffers aware.Core.Experiment.levels)
    subset results;
  Format.fprintf fmt
    "(wire-delay surcharges make the model stricter: more buffers, achieved CP closer to target)@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A4: slack matching (transparent-buffer sizing) *)

let ablation_slack run =
  banner "Ablation A4: slack matching on/off (subset)";
  let subset = [ "matrix"; "mvt" ] in
  let sized_cfg = { Core.Flow.default_config with Core.Flow.slack_match = true } in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics run `Iterative k);
             (fun () -> metrics run ~config:sized_cfg `Iterative k);
           ])
         subset)
  in
  Format.fprintf fmt "%-12s | %14s | %14s@\n" "kernel" "no sizing" "slack matched";
  Format.fprintf fmt "%-12s | %14s | %14s@\n" "" "cycles" "cycles";
  print_pairs
    (fun name (plain : _) (sized : _) ->
      Format.fprintf fmt "%-12s | %14d | %14d@\n" name plain.Core.Experiment.cycles
        sized.Core.Experiment.cycles)
    subset results;
  Format.fprintf fmt "(transparent capacity on shallow reconvergent paths absorbs stalls)@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A5: AND-tree balancing before mapping *)

let ablation_balance run =
  banner "Ablation A5: AND re-association (balance) before mapping (subset)";
  let subset = [ "gsum"; "matrix" ] in
  let balance_cfg = { Core.Flow.default_config with Core.Flow.balance = true } in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics run `Iterative k);
             (fun () -> metrics run ~config:balance_cfg `Iterative k);
           ])
         subset)
  in
  Format.fprintf fmt "%-12s | %20s | %20s@\n" "kernel" "if -K 6 only" "balance; if -K 6";
  Format.fprintf fmt "%-12s | %9s %10s | %9s %10s@\n" "" "levels" "luts" "levels" "luts";
  print_pairs
    (fun name (plain : _) (balanced : _) ->
      Format.fprintf fmt "%-12s | %9d %10d | %9d %10d@\n" name plain.Core.Experiment.levels
        plain.Core.Experiment.luts balanced.Core.Experiment.levels balanced.Core.Experiment.luts)
    subset results;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A6: datapath width (8-bit default vs 16-bit) *)

let ablation_width run =
  banner "Ablation A6: datapath width 8 vs 16 bits (iterative flow)";
  (* one kernel: the 16-bit MILP instances are several times larger *)
  let subset = [ "gsum" ] in
  let place k width =
    let g = Hls.Kernels.graph ~width k in
    let outcome = Core.Flow.iterative ~session:run.session g in
    let net = outcome.Core.Flow.net and lg = outcome.Core.Flow.lutgraph in
    let pr = Placeroute.Sta.analyze ~seed:7 net lg in
    (* functional check at the matching width *)
    let sim = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) outcome.Core.Flow.graph in
    assert (sim.Sim.Elastic.exit_value = Some (Hls.Kernels.reference ~width k));
    pr
  in
  let results =
    pooled run
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [ (fun () -> place k 8); (fun () -> place k 16) ])
         subset)
  in
  Format.fprintf fmt "%-12s | %26s | %26s@\n" "kernel" "8-bit" "16-bit";
  Format.fprintf fmt "%-12s | %7s %7s %9s | %7s %7s %9s@\n" "" "luts" "ffs" "cp(ns)" "luts" "ffs"
    "cp(ns)";
  print_pairs
    (fun name (w8 : _) (w16 : _) ->
      Format.fprintf fmt "%-12s | %7d %7d %9.2f | %7d %7d %9.2f@\n" name w8.Placeroute.Sta.n_luts
        w8.Placeroute.Sta.n_ffs w8.Placeroute.Sta.cp w16.Placeroute.Sta.n_luts
        w16.Placeroute.Sta.n_ffs w16.Placeroute.Sta.cp)
    subset results;
  Format.fprintf fmt
    "(resources scale with the datapath; levels and CP grow with the wider carry chains,@\n\
    \ which is why the reproduction runs 8-bit by default)@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* E5: target sweep — §VI-B's "achieved CP unpredictably diverges for
   slight target changes" on the baseline, vs the iterative flow *)

let sweep run =
  banner "Target sweep (E5): achieved levels under varying level targets (gsumif)";
  let k = Hls.Kernels.by_name "gsumif" in
  let targets = [ 5; 6; 7; 8 ] in
  let results =
    pooled run
      (List.concat_map
         (fun target ->
           let config = Core.Flow.with_levels target Core.Flow.default_config in
           [
             (fun () -> metrics run ~config `Baseline k);
             (fun () -> metrics run ~config `Iterative k);
           ])
         targets)
  in
  Format.fprintf fmt "%-8s | %20s | %20s@\n" "target" "baseline" "iterative";
  Format.fprintf fmt "%-8s | %9s %10s | %9s %10s@\n" "levels" "achieved" "cp(ns)" "achieved" "cp(ns)";
  print_pairs
    (fun target (prev : _) (iter : _) ->
      Format.fprintf fmt "%-8d | %9d %10.2f | %9d %10.2f@\n" target prev.Core.Experiment.levels
        prev.Core.Experiment.cp iter.Core.Experiment.levels iter.Core.Experiment.cp)
    targets results;
  Format.fprintf fmt
    "(the iterative flow tracks the target; the baseline's levels do not respond to it)@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)

open Cmdliner

let targets =
  [
    ("table1", table1);
    ("figure5", figure5);
    ("ablation-penalty", ablation_penalty);
    ("ablation-iterations", ablation_iterations);
    ("ablation-routing", ablation_routing);
    ("ablation-slack", ablation_slack);
    ("ablation-balance", ablation_balance);
    ("sweep", sweep);
    ("ablation-width", ablation_width);
  ]

(* the default run: every target except the sweep and the width ablation *)
let default_targets =
  [ "table1"; "figure5"; "ablation-penalty"; "ablation-iterations"; "ablation-routing";
    "ablation-slack"; "ablation-balance" ]

let bench names jobs kernels trace cache_dir no_narrow =
  let names = if names = [] then default_targets else names in
  (* one cache session for the whole run: synth/map results, unit delays
     and MILP solutions persist across processes; stdout stays
     byte-identical either way *)
  Cli.with_cache_session cache_dir @@ fun cache ->
  Option.iter
    (fun s -> Printf.eprintf "[bench] artifact cache at %s\n%!" (Cache.Store.dir s))
    (Cache.Session.store cache);
  let session = Core.Session.make ~cache () in
  let rows = lazy (table_rows ~session ~jobs ~kernels ~narrow:(not no_narrow)) in
  let run = { session; jobs; rows } in
  (* Each bench target becomes one span of the trace, so the trace's
     durations account for the whole run. Stdout stays byte-identical
     with tracing on or off: the summary table and the "wrote"
     confirmation go to stderr, the events to the JSON file. *)
  Cli.traced ~name:"bench" trace @@ fun () ->
  List.iter
    (fun name ->
      Support.Trace.with_span ~cat:"bench" ("bench:" ^ name) (fun () ->
          (List.assoc name targets) run))
    names

let () =
  let names =
    let doc =
      "Targets to run, in order (default: every target but $(b,sweep) and $(b,ablation-width))."
    in
    let target = Arg.enum (List.map (fun (n, _) -> (n, n)) targets) in
    Arg.(value & pos_all target [] & info [] ~docv:"TARGET" ~doc)
  in
  let kernels =
    Cli.kernel_list_arg ~tool:"bench"
      ~doc:"Restrict table1/figure5 to a comma-separated kernel subset."
  in
  let info =
    Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures and the ablations."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            term_result
              (const bench $ names $ Cli.jobs_arg $ kernels $ Cli.trace_arg $ Cli.cache_dir_arg
             $ Cli.no_narrow_arg))))
