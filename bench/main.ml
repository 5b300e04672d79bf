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
     dune exec bench/main.exe -- micro        -- B1 (Bechamel stage timings)

   Options (before or after the targets):

     -j N / --jobs N     run independent flow tasks on N worker domains
                         (default: $REPRO_JOBS, else 1); any width
                         produces byte-identical tables — task results
                         are returned in submission order
     --kernels a,b,c     restrict table1/figure5 to a kernel subset
                         (CI smoke runs use a two-kernel subset)

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
(* run configuration (set by the argument parser below) *)

let jobs = ref (Support.Pool.default_jobs ())
let kernel_subset : string list option ref = ref None
let trace_file : string option ref = ref None
let cache_dir : string option ref = ref None
let narrow = ref true

(* rows are computed once and shared between table1 and figure5 *)
let rows_cache : Core.Experiment.row list option ref = ref None

let rows session =
  match !rows_cache with
  | Some r -> r
  | None ->
    let names = !kernel_subset in
    Printf.eprintf "[bench] running %d kernels x 2 flavors, jobs=%d\n%!"
      (match names with Some ns -> List.length ns | None -> List.length Hls.Kernels.all)
      !jobs;
    let config = { Core.Flow.default_config with Core.Flow.narrow = !narrow } in
    let r, timings, wall = Core.Experiment.run_all_timed ~config ~session ~jobs:!jobs ?names () in
    List.iter
      (fun t ->
        Printf.eprintf "[bench]   %-15s %-9s %8.2fs\n%!" t.Core.Experiment.t_bench
          t.Core.Experiment.t_flavor t.Core.Experiment.t_seconds)
      timings;
    let seq = List.fold_left (fun a t -> a +. t.Core.Experiment.t_seconds) 0. timings in
    Printf.eprintf
      "[bench] wall-clock %.2fs at jobs=%d; sequential-equivalent (sum of tasks) %.2fs; speedup %.2fx\n%!"
      wall !jobs seq
      (if wall > 0. then seq /. wall else 1.);
    rows_cache := Some r;
    r

(* One flow run under the bench's session, measured. *)
let metrics session ?config flavor k =
  fst (Core.Experiment.run_flow ?config ~session ~flavor k)

(* Ablation drivers fan their independent flow runs through the same
   pool: tasks are submitted up front and awaited in submission order, so
   the printed tables never depend on the jobs width. *)
let pooled tasks =
  Support.Pool.run ~jobs:!jobs (fun pool ->
      List.map (Support.Pool.submit pool) tasks |> List.map Support.Pool.await)

(* Every ablation submits two tasks per row label; [print_pairs] walks the
   awaited results two at a time alongside the labels. *)
let rec print_pairs print_row labels results =
  match (labels, results) with
  | label :: labels, a :: b :: results ->
    print_row label a b;
    print_pairs print_row labels results
  | _ -> ()

let table1 session =
  banner "Table I: iterative mapping-aware (Iter.) vs mapping-agnostic (Prev.)";
  let r = rows session in
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

let figure5 session =
  banner "Figure 5: normalised execution time and resources";
  Core.Report.figure5 fmt (rows session);
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* A1: the penalty term of Eq. 3 against the plain Eq. 1 objective *)

let ablation_penalty session =
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
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics session `Iterative k);
             (fun () -> metrics session ~config:no_penalty `Iterative k);
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

let ablation_iterations session =
  banner "Ablation A2: one-shot mapping-aware vs full iterative (subset)";
  let subset = [ "gsum"; "gsumif"; "matrix" ] in
  let one_cfg = { Core.Flow.default_config with Core.Flow.max_iterations = 1 } in
  let results =
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics session ~config:one_cfg `Iterative k);
             (fun () -> metrics session `Iterative k);
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

let ablation_routing session =
  banner "Ablation A3: routing-aware timing model on/off (subset)";
  let subset = [ "gsum"; "gsumif" ] in
  let aware_cfg = { Core.Flow.default_config with Core.Flow.routing_aware = true } in
  let results =
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics session `Iterative k);
             (fun () -> metrics session ~config:aware_cfg `Iterative k);
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

let ablation_slack session =
  banner "Ablation A4: slack matching on/off (subset)";
  let subset = [ "matrix"; "mvt" ] in
  let sized_cfg = { Core.Flow.default_config with Core.Flow.slack_match = true } in
  let results =
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics session `Iterative k);
             (fun () -> metrics session ~config:sized_cfg `Iterative k);
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

let ablation_balance session =
  banner "Ablation A5: AND re-association (balance) before mapping (subset)";
  let subset = [ "gsum"; "matrix" ] in
  let balance_cfg = { Core.Flow.default_config with Core.Flow.balance = true } in
  let results =
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [
             (fun () -> metrics session `Iterative k);
             (fun () -> metrics session ~config:balance_cfg `Iterative k);
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

let ablation_width session =
  banner "Ablation A6: datapath width 8 vs 16 bits (iterative flow)";
  (* one kernel: the 16-bit MILP instances are several times larger *)
  let subset = [ "gsum" ] in
  let run k width =
    let g = Hls.Kernels.graph ~width k in
    let outcome = Core.Flow.iterative ~session g in
    let net = outcome.Core.Flow.net and lg = outcome.Core.Flow.lutgraph in
    let pr = Placeroute.Sta.analyze ~seed:7 net lg in
    (* functional check at the matching width *)
    let sim = Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) outcome.Core.Flow.graph in
    assert (sim.Sim.Elastic.exit_value = Some (Hls.Kernels.reference ~width k));
    pr
  in
  let results =
    pooled
      (List.concat_map
         (fun name ->
           let k = Hls.Kernels.by_name name in
           [ (fun () -> run k 8); (fun () -> run k 16) ])
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

let sweep session =
  banner "Target sweep (E5): achieved levels under varying level targets (gsumif)";
  let k = Hls.Kernels.by_name "gsumif" in
  let targets = [ 5; 6; 7; 8 ] in
  let results =
    pooled
      (List.concat_map
         (fun target ->
           let config = Core.Flow.with_levels target Core.Flow.default_config in
           [
             (fun () -> metrics session ~config `Baseline k);
             (fun () -> metrics session ~config `Iterative k);
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
(* B1: Bechamel micro-benchmarks of the flow's stages *)

let micro _session =
  banner "Micro-benchmarks (Bechamel): per-stage cost on gsum";
  let open Bechamel in
  let k = Hls.Kernels.by_name "gsum" in
  let g0 = Hls.Kernels.graph k in
  let _ = Core.Flow.seed_back_edges g0 in
  let net = Elaborate.run g0 in
  let synth = Techmap.Synth.run net in
  (* map with the flow's configured LUT size: the stage timing must
     measure the configuration the experiments actually run *)
  let lut_k = Core.Flow.default_config.Core.Flow.lut_k in
  let lg = Techmap.Mapper.run ~k:lut_k synth in
  let tests =
    [
      Test.make ~name:"elaborate" (Staged.stage (fun () -> ignore (Elaborate.run g0)));
      Test.make ~name:"synthesize-aig" (Staged.stage (fun () -> ignore (Techmap.Synth.run net)));
      Test.make ~name:"lut-map" (Staged.stage (fun () -> ignore (Techmap.Mapper.run ~k:lut_k synth)));
      Test.make ~name:"timing-model"
        (Staged.stage (fun () -> ignore (Timing.Mapping_aware.build g0 ~net lg)));
      Test.make ~name:"cfdfc-extract"
        (Staged.stage (fun () -> ignore (Buffering.Cfdfc.extract g0)));
      Test.make ~name:"place-and-sta"
        (Staged.stage (fun () -> ignore (Placeroute.Sta.analyze ~seed:7 ~effort:0.2 net lg)));
      Test.make ~name:"simulate"
        (Staged.stage (fun () ->
             ignore (Sim.Elastic.run ~memories:(k.Hls.Kernels.mems ()) g0)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Format.fprintf fmt "  %-18s %12.1f ns/run@\n" name est
          | _ -> Format.fprintf fmt "  %-18s (no estimate)@\n" name)
        analysed)
    tests;
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [-j N|--jobs N] [--kernels a,b,c] [--trace FILE] [--cache-dir DIR] \
     [--no-narrow] [table1|figure5|ablation-*|sweep|micro]*";
  exit 1

(* A repeated kernel would be run and reported twice for no new
   information: keep the first occurrence, warn on stderr so stdout
   (the tables) stays byte-identical with the deduplicated spec. *)
let dedupe_kernels names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then begin
        Printf.eprintf "[bench] warning: duplicate kernel %S ignored\n%!" n;
        false
      end
      else begin
        Hashtbl.add seen n ();
        true
      end)
    names

let set_kernels spec =
  let names = String.split_on_char ',' spec |> List.filter (( <> ) "") in
  let known = List.map (fun k -> k.Hls.Kernels.name) Hls.Kernels.all in
  (match List.filter (fun n -> not (List.mem n known)) names with
   | [] -> ()
   | bad ->
     Printf.eprintf "unknown kernel%s: %s (known: %s)\n"
       (if List.length bad > 1 then "s" else "")
       (String.concat ", " bad) (String.concat ", " known);
     exit 1);
  kernel_subset := Some (dedupe_kernels names)

let rec parse_args targets = function
  | [] -> List.rev targets
  | ("-j" | "--jobs") :: n :: rest -> (
    match int_of_string_opt n with
    | Some j when j >= 1 ->
      jobs := j;
      parse_args targets rest
    | _ -> usage ())
  | ("-j" | "--jobs") :: [] -> usage ()
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
    match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
    | Some j when j >= 1 ->
      jobs := j;
      parse_args targets rest
    | _ -> usage ())
  | "--kernels" :: names :: rest ->
    set_kernels names;
    parse_args targets rest
  | "--kernels" :: [] -> usage ()
  | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--kernels=" ->
    set_kernels (String.sub arg 10 (String.length arg - 10));
    parse_args targets rest
  | "--trace" :: file :: rest ->
    trace_file := Some file;
    parse_args targets rest
  | "--trace" :: [] -> usage ()
  | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--trace=" ->
    trace_file := Some (String.sub arg 8 (String.length arg - 8));
    parse_args targets rest
  | "--cache-dir" :: dir :: rest ->
    cache_dir := Some dir;
    parse_args targets rest
  | "--cache-dir" :: [] -> usage ()
  | arg :: rest when String.length arg > 12 && String.sub arg 0 12 = "--cache-dir=" ->
    cache_dir := Some (String.sub arg 12 (String.length arg - 12));
    parse_args targets rest
  | "--no-narrow" :: rest ->
    (* rerun the tables without the value-range narrowing stage — the
       on/off delta quoted in EXPERIMENTS.md E1 comes from diffing the
       two results.csv files *)
    narrow := false;
    parse_args targets rest
  | target :: rest -> parse_args (target :: targets) rest

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
    ("micro", micro);
  ]

(* the default run: every target except the sweep and the width ablation *)
let default_targets =
  [ "table1"; "figure5"; "ablation-penalty"; "ablation-iterations"; "ablation-routing";
    "ablation-slack"; "ablation-balance"; "micro" ]

let () =
  let names = parse_args [] (Array.to_list Sys.argv |> List.tl) in
  let names = if names = [] then default_targets else names in
  (* one cache session for the whole run: synth/map results, unit delays
     and MILP solutions persist across processes; stdout stays
     byte-identical either way *)
  let cache =
    match Cache.Session.of_flag !cache_dir with
    | Ok cache -> cache
    | Error msg ->
      Printf.eprintf "bench: --cache-dir: %s\n" msg;
      exit 1
  in
  Option.iter
    (fun s -> Printf.eprintf "[bench] artifact cache at %s\n%!" (Cache.Store.dir s))
    (Cache.Session.store cache);
  let session = Core.Session.make ~cache () in
  if !trace_file <> None then Support.Trace.start ();
  (* Each bench target becomes one top-level span of the trace, so the
     trace's root durations account for the whole run. Stdout stays
     byte-identical with tracing on or off: the summary table and the
     "wrote" confirmation go to stderr, the events to the JSON file. *)
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some target ->
        Support.Trace.with_span ~cat:"bench" ("bench:" ^ name) (fun () -> target session)
      | None ->
        Printf.eprintf "unknown bench target %S\n" name;
        exit 1)
    names;
  (match !trace_file with
  | None -> ()
  | Some path -> (
    let report = Support.Trace.stop () in
    match Support.Trace.write_chrome_json report path with
    | () ->
      Format.eprintf "%a" Support.Trace.pp_summary report;
      Printf.eprintf "[bench] wrote trace %s\n%!" path
    | exception Sys_error msg ->
      Printf.eprintf "bench: --trace: %s\n" msg;
      exit 1));
  (* appends the session's hit/miss counters to the store's stats.log *)
  Cache.Session.finish cache
