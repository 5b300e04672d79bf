(* The repository's benchmark: compile time, serve latency and circuit
   quality, measured from outside the program.

     main.exe --workload cold-compile|warm-recompile|serve-hits
              [--seed N] [--seconds S] [--trace 0|1]

   Each workload runs in this one sequential process on one domain: the
   serve-hits daemon has [jobs = 1], so it runs each admitted request in
   place on the dispatching domain. Only public entry points are
   driven: [Core.Experiment.run_flow] with an explicit [Core.Session],
   and [Serve.Server.create] / [handle_line]. Every output is checked,
   and the last stdout line is one JSON object holding the end-to-end
   metrics ([--trace 0]) or the per-layer metrics of a traced run
   ([--trace 1]). A failed check makes the run exit 1. The metrics, the
   workloads and what each metric should move are documented in
   README.md next to this file. *)

module P = Serve.Protocol
module T = Support.Trace

(* ---- fixed inputs ---- *)

(* Deterministic work is the only binding MILP budget: the node budget
   binds and the wall budget is out of reach, so every output and every
   counter is a function of the inputs, never of machine speed. *)
let milp_nodes = 200
let milp_budget_s = 1e9
let default_seed = 1
let serve_pass_requests = 4000
let serve_window = 2
let rounds_with_priming = 2

type task = { kernel : Hls.Kernels.t; flavor : P.flavor }

let task_name t = t.kernel.Hls.Kernels.name ^ "." ^ P.flavor_name t.flavor

let all_tasks =
  List.concat_map
    (fun k ->
      List.map (fun flavor -> { kernel = Hls.Kernels.by_name k; flavor }) [ `Iterative; `Baseline ])
    [ "gsum"; "gsumif" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("luts_geomean", "count");
    ("ffs_geomean", "count");
  ]

let per_layer =
  [
    ("milp.bb_s", "s");
    ("milp.pivots_per_s", "1/s");
    ("milp.nodes", "count");
    ("milp.pivots", "count");
    ("milp.relaxations", "count");
    ("milp.refactors", "count");
    ("milp.fathom_frac", "ratio");
    ("milp.proved_frac", "ratio");
    ("buffering.build_s", "s");
    ("timing.model_s", "s");
    ("techmap.map_s", "s");
    ("techmap.synth_s", "s");
    ("techmap.cut_keep_frac", "ratio");
    ("absint.self_s", "s");
    ("tv.narrow_gate_s", "s");
    ("tv.equiv_s", "s");
    ("sim.measure_s", "s");
    ("sim.cycles", "count");
    ("sim.ns_per_cycle", "ns");
    ("placeroute.place_s", "s");
    ("analysis.certify_s", "s");
    ("analysis.howard_iters", "count");
    ("lint.self_s", "s");
    ("core.self_s", "s");
    ("hls.frontend_s", "s");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.bytes", "bytes");
    ("cache.hit_rate", "ratio");
    ("serve.decode_us", "us");
    ("serve.encode_us", "us");
    ("serve.server_ms_p50", "ms");
    ("serve.queue_wait_ms_p99", "ms");
  ]
  @ List.map (fun t -> ("task." ^ task_name t ^ "_s", "s")) all_tasks
  @ [ ("trace.overhead_frac", "ratio"); ("quality.exec_ns_geomean", "ns") ]

(* ---- options ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tasks : task list;
  nodes : int;
  plant : bool;  (** corrupt one observed digest: the run must fail *)
  work : string;
}

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20. in
  let trace = ref 0 and tasks = ref "" and nodes = ref milp_nodes in
  let plant = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME cold-compile | warm-recompile | serve-hits");
      ("--seed", Arg.Set_int seed, "N workload seed: task and request order (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics of a traced run");
      ("--tasks", Arg.Set_string tasks, "LIST kernel.flavor subset, comma-separated (self-test)");
      ("--milp-nodes", Arg.Set_int nodes, "N MILP node budget (self-test; default 200)");
      ("--plant-mismatch", Arg.Set plant, " corrupt one observed digest (self-test)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  if not (List.mem !workload [ "cold-compile"; "warm-recompile"; "serve-hits" ]) then
    die "unknown workload %S" !workload;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 0. then die "--seconds must be >= 0";
  if !nodes < 1 then die "--milp-nodes must be >= 1";
  let tasks =
    if !tasks = "" then all_tasks
    else
      String.split_on_char ',' !tasks
      |> List.map (fun n ->
             match List.find_opt (fun t -> task_name t = n) all_tasks with
             | Some t -> t
             | None -> die "unknown task %S" n)
  in
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    tasks;
    nodes = !nodes;
    plant = !plant;
    work = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ()));
  }

(* ---- small helpers ---- *)

let now = Unix.gettimeofday

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* the mean of the middle half: smooth in the mix of fast and slow
   samples, like a mean, and deaf to a few spikes, like a median *)
let interquartile_mean = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let mid = Array.sub a (n / 4) (n - (2 * (n / 4))) in
    Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* nearest-rank percentile *)
let percentile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let geomean = function
  | [] -> 0.
  | l -> exp (List.fold_left (fun s x -> s +. log x) 0. l /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  in
  match try from_proc () with Sys_error _ -> None with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- output checks ---- *)

let attempted = ref 0
let failed = ref 0

let count ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("perfbench: check failed: " ^ what)
  end

(* What every repetition of a task must reproduce: its outcome digest
   and its measured circuit quality. The first observation of a task
   (the first cold pass, the priming pass, the direct set-up flow) is
   the reference for all later ones. *)
type observed = { digest : string; exec_ns : float; luts : int; ffs : int }

let expected : (string, observed) Hashtbl.t = Hashtbl.create 8
let planted = ref false

let matches opts name obs =
  let obs =
    if opts.plant && (not !planted) && Hashtbl.mem expected name then begin
      planted := true;
      { obs with digest = obs.digest ^ "-planted" }
    end
    else obs
  in
  match Hashtbl.find_opt expected name with
  | None ->
    Hashtbl.replace expected name obs;
    true
  | Some e -> e = obs

let problems checks = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* One finished operation: a compile task or a served request. *)
type op = {
  o_task : string;
  o_t0 : float;
  o_t1 : float;
  o_cycles : int;  (** cycles of the circuit's simulation *)
  o_server_ms : float;  (** serve: the daemon's own wall time *)
  o_proved : int;  (** MILP solves proved optimal *)
  o_solves : int;
}

let op_of ?(cycles = 0) ?(server_ms = 0.) ?(proved = 0) ?(solves = 0) o_task o_t0 o_t1 =
  { o_task; o_t0; o_t1; o_cycles = cycles; o_server_ms = server_ms; o_proved = proved; o_solves = solves }

(* ---- compile operations ---- *)

let session_of opts cache = Core.Session.make ~cache ~milp_nodes:opts.nodes ~milp_budget_s ()

let run_compile session task =
  let t0 = now () in
  let r =
    try Ok (Core.Experiment.run_flow ~session ~flavor:task.flavor task.kernel) with e -> Error e
  in
  (task, t0, now (), r)

(* Checked outside any timed window. On a task's first observation the
   benchmark re-simulates the final circuit itself and compares its exit
   value with the reference interpreter's; later observations must
   repeat its digest, which covers the circuit. The program's own
   verdicts are checked every time. *)
let check_compile opts refs (task, t0, t1, r) =
  let name = task_name task in
  match r with
  | Error e ->
    count false (name ^ ": flow raised " ^ Printexc.to_string e);
    op_of name t0 t1
  | Ok ((m : Core.Experiment.metrics), (o : Core.Flow.outcome)) ->
    let resimulated () =
      let sim = Sim.Elastic.run ~memories:(task.kernel.Hls.Kernels.mems ()) o.Core.Flow.graph in
      sim.Sim.Elastic.exit_value = Some (Hashtbl.find refs task.kernel.Hls.Kernels.name)
    in
    let value_ok = Hashtbl.mem expected name || resimulated () in
    let obs = { digest = P.outcome_digest o; exec_ns = m.exec_ns; luts = m.luts; ffs = m.ffs } in
    let bad =
      problems
        [
          (value_ok, "exit value differs from the reference interpreter");
          (m.value_ok, "the flow reports a wrong exit value");
          (m.met_target, "level target missed");
          (matches opts name obs, "digest or quality differs from the first observation");
        ]
    in
    count (bad = []) (name ^ ": " ^ String.concat "; " bad);
    let its = o.Core.Flow.iterations in
    op_of name t0 t1 ~cycles:m.cycles
      ~proved:(List.length (List.filter (fun i -> i.Core.Flow.milp_proved) its))
      ~solves:(List.length its)

(* ---- set-up ---- *)

let store_seq = ref 0

(* A path no store has used yet; opening a store there creates it empty. *)
let fresh_store_dir opts =
  incr store_seq;
  Filename.concat opts.work (Printf.sprintf "store-%d" !store_seq)

(* The front end over the workload's kernels: parse and compile each
   (timed as hls.frontend_s) and interpret its reference exit value. *)
let front_end opts =
  let kernels = List.sort_uniq compare (List.map (fun t -> t.kernel.Hls.Kernels.name) opts.tasks) in
  let kernels = List.map Hls.Kernels.by_name kernels in
  let t0 = now () in
  List.iter (fun k -> ignore (Hls.Kernels.graph k)) kernels;
  let fe = now () -. t0 in
  let refs = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace refs k.Hls.Kernels.name (Hls.Kernels.reference k)) kernels;
  (refs, fe)

(* ---- per-layer metrics ---- *)

let latencies_ms ops = List.map (fun o -> (o.o_t1 -. o.o_t0) *. 1000.) ops

(* Layer times of one traced pass, from the program's own spans and
   counters. [self] is a span's time minus its direct children's;
   [total] includes them. Every span is attributed to exactly one
   layer, so the layer times partition the traced work. [codec] is the
   benchmark-timed protocol decode/encode cost, on serve-hits only. *)
let layer_metrics ops ~codec r =
  let rows = T.summary r in
  let sum_rows pred f =
    List.fold_left (fun s row -> if pred row.T.row_name then s +. f row else s) 0. rows
  in
  let self n = sum_rows (String.equal n) (fun row -> row.T.row_self) in
  let total n = sum_rows (String.equal n) (fun row -> row.T.row_total) in
  let starts pre n = String.starts_with ~prefix:pre n in
  let c n = float_of_int (T.counter r n) in
  (* the narrowing gate's equivalence check is the flow:tv span under
     lint:tv-narrow; the other flow:tv spans validate translations *)
  let narrow_tv =
    List.fold_left
      (fun s sp ->
        if sp.T.sp_name = "flow:tv" && sp.T.sp_parent = Some "lint:tv-narrow" then
          s +. (sp.T.sp_stop -. sp.T.sp_start)
        else s)
      0. r.T.r_spans
  in
  let attributed = [ "flow:milp"; "flow:model"; "flow:absint"; "flow:certify"; "flow:tv" ] in
  let core n =
    (starts "flow:" n && not (List.mem n attributed)) || starts "experiment:" n || n = "placeroute:sta"
  in
  (* an op's cycles count only when its simulation ran inside its window *)
  let sims = List.filter (fun sp -> sp.T.sp_name = "sim:elastic") r.T.r_spans in
  let simulated o = List.exists (fun sp -> sp.T.sp_start >= o.o_t0 && sp.T.sp_stop <= o.o_t1) sims in
  let sum_ops f = float_of_int (List.fold_left (fun s o -> s + f o) 0 ops) in
  let cycles = sum_ops (fun o -> if simulated o then o.o_cycles else 0) in
  let bb_s = self "milp:bb" and sim_s = total "sim:elastic" in
  let hits = c "cache.hit" and misses = c "cache.miss" in
  let serve_ms = List.map (fun o -> o.o_server_ms) ops in
  let waits = List.map2 (fun l s -> l -. s) (latencies_ms ops) serve_ms in
  let decode_us, encode_us = Option.value codec ~default:(0., 0.) in
  let on_serve v = if codec = None then 0. else v in
  [
    ("milp.bb_s", bb_s);
    ("milp.pivots_per_s", ratio (c "milp.simplex.pivots") bb_s);
    ("milp.nodes", c "milp.bb.nodes");
    ("milp.pivots", c "milp.simplex.pivots");
    ("milp.relaxations", c "milp.lp.relaxations");
    ("milp.refactors", c "milp.simplex.refactors");
    ("milp.fathom_frac", ratio (c "milp.bb.fathomed_by_cert") (c "milp.bb.nodes"));
    ("milp.proved_frac", ratio (sum_ops (fun o -> o.o_proved)) (sum_ops (fun o -> o.o_solves)));
    ("buffering.build_s", self "flow:milp");
    ("timing.model_s", self "flow:model");
    ("techmap.map_s", self "techmap:map");
    ("techmap.synth_s", self "techmap:synth");
    ("techmap.cut_keep_frac", ratio (c "techmap.cuts.kept") (c "techmap.cuts.enumerated"));
    ("absint.self_s", self "flow:absint");
    ("tv.narrow_gate_s", total "lint:tv-narrow");
    ( "tv.equiv_s",
      total "tv:equiv" +. total "tv:labels" +. total "tv:refine" +. self "flow:tv" -. narrow_tv );
    ("sim.measure_s", sim_s);
    ("sim.cycles", cycles);
    ("sim.ns_per_cycle", ratio (sim_s *. 1e9) cycles);
    ("placeroute.place_s", total "placeroute:place");
    ("analysis.certify_s", total "flow:certify");
    ("analysis.howard_iters", c "perf.howard.iters");
    ("lint.self_s", sum_rows (starts "lint:") (fun row -> row.T.row_self));
    ("core.self_s", sum_rows core (fun row -> row.T.row_self));
    ("cache.hits", hits);
    ("cache.misses", misses);
    ("cache.bytes", c "cache.bytes");
    ("cache.hit_rate", ratio hits (hits +. misses));
    ("serve.decode_us", decode_us);
    ("serve.encode_us", encode_us);
    ("serve.server_ms_p50", on_serve (median serve_ms));
    ("serve.queue_wait_ms_p99", on_serve (percentile 0.99 waits));
  ]

(* ---- passes ---- *)

(* What a pass leaves behind: summaries only, so memory does not grow
   with the number of passes a run fits in. *)
type pass = {
  p_wall : float;
  p_ops : int;
  p_p50_ms : float;
  p_p99_ms : float;
  p_task_s : (string * float) list;  (** median latency per task *)
  p_layers : (string * float) list option;  (** traced passes only *)
}

let summarize ?codec ~wall ops report =
  let lats = latencies_ms ops in
  let task_s t =
    (t, median (List.filter_map (fun o -> if o.o_task = t then Some (o.o_t1 -. o.o_t0) else None) ops))
  in
  {
    p_wall = wall;
    p_ops = List.length ops;
    p_p50_ms = percentile 0.50 lats;
    p_p99_ms = percentile 0.99 lats;
    p_task_s = List.map task_s (List.sort_uniq compare (List.map (fun o -> o.o_task) ops));
    p_layers = Option.map (layer_metrics ops ~codec) report;
  }

(* compile ops run back to back: the pass time is their sum, which
   leaves the checks between them out *)
let ops_wall ops = List.fold_left (fun s o -> s +. (o.o_t1 -. o.o_t0)) 0. ops

let traced on f =
  if not on then (f (), None)
  else begin
    T.start ();
    let v = f () in
    (v, Some (T.stop ()))
  end

type run = {
  mutable setups : float list;
  mutable frontends : float list;
  mutable passes : pass list;  (** most recent first *)
}

let new_run () = { setups = []; frontends = []; passes = [] }
let trace_next opts run = opts.trace && List.length run.passes mod 2 = 0

let add_pass run timed pass =
  timed := !timed +. pass.p_wall;
  run.passes <- pass :: run.passes;
  Printf.eprintf "perfbench: pass %d%s %.4f s\n%!" (List.length run.passes)
    (if pass.p_layers = None then "" else " (traced)")
    pass.p_wall

(* cold-compile: every pass starts from an empty store. The set-up (a
   fresh store and the front end) takes under a millisecond, so each
   pass sets up [cold_setups] times for a steadier median and compiles
   into the last store. *)
let cold_setups = 5

let cold_compile opts rng run =
  let timed = ref 0. in
  while List.length run.passes < 3 || !timed < opts.seconds do
    let setup () =
      let t0 = now () in
      let dir = fresh_store_dir opts in
      let cache = Cache.Session.of_dir dir in
      let refs, fe = front_end opts in
      run.setups <- (now () -. t0) :: run.setups;
      run.frontends <- fe :: run.frontends;
      (dir, cache, refs)
    in
    for _ = 2 to cold_setups do
      let dir, _, _ = setup () in
      rm_rf dir
    done;
    let dir, cache, refs = setup () in
    let session = session_of opts cache in
    let order = shuffle rng opts.tasks in
    let raw, report = traced (trace_next opts run) (fun () -> List.map (run_compile session) order) in
    Cache.Session.finish cache;
    let ops = List.map (check_compile opts refs) raw in
    rm_rf dir;
    add_pass run timed (summarize ~wall:(ops_wall ops) ops report)
  done

(* warm-recompile: each round's set-up primes a fresh store with one
   cold pass; every timed pass then reopens the store, as a new compiler
   process would, and recompiles every task from it. *)
let warm_recompile opts rng run =
  for _ = 1 to rounds_with_priming do
    let t0 = now () in
    let dir = fresh_store_dir opts in
    let cache = Cache.Session.of_dir dir in
    let refs, fe = front_end opts in
    let prep = now () -. t0 in
    let prime = List.map (run_compile (session_of opts cache)) (shuffle rng opts.tasks) in
    Cache.Session.finish cache;
    run.setups <- (prep +. ops_wall (List.map (check_compile opts refs) prime)) :: run.setups;
    run.frontends <- fe :: run.frontends;
    let timed = ref 0. and n = ref 0 in
    while !n < 2 || !timed < opts.seconds /. float_of_int rounds_with_priming do
      let order = shuffle rng opts.tasks in
      let (raw, open_s), report =
        traced (trace_next opts run) (fun () ->
            let t0 = now () in
            let cache = Cache.Session.of_dir dir in
            let open_s = now () -. t0 in
            let raw = List.map (run_compile (session_of opts cache)) order in
            Cache.Session.finish cache;
            (raw, open_s))
      in
      let ops = List.map (check_compile opts refs) raw in
      add_pass run timed (summarize ~wall:(open_s +. ops_wall ops) ops report);
      incr n
    done;
    rm_rf dir
  done

(* ---- the in-process serve client ---- *)

(* Events reach the client as encoded lines, exactly as a transport
   would write them; the client decodes each one. *)
type client = { mu : Mutex.t; cond : Condition.t; lines : string Queue.t }

let new_client () = { mu = Mutex.create (); cond = Condition.create (); lines = Queue.create () }

let emit c ev =
  let line = P.event_to_line ev in
  Mutex.protect c.mu (fun () ->
      Queue.push line c.lines;
      Condition.signal c.cond)

let next_event c =
  Mutex.lock c.mu;
  while Queue.is_empty c.lines do
    Condition.wait c.cond c.mu
  done;
  let line = Queue.pop c.lines in
  Mutex.unlock c.mu;
  P.event_of_line line

type request = { r_id : string; r_task : task; r_line : string }

let request_of id task =
  let line =
    P.request_to_line
      {
        P.id;
        kernel = Some task.kernel.Hls.Kernels.name;
        source = None;
        flavor = task.flavor;
        levels = None;
        milp_nodes = None;
        milp_budget_s = None;
      }
  in
  { r_id = id; r_task = task; r_line = line }

let check_done opts id task (result : P.completion) =
  let name = task_name task in
  match result.P.r_measured with
  | None ->
    count false (id ^ ": done event without measured metrics");
    0
  | Some m ->
    let obs = { digest = result.P.r_digest; exec_ns = m.P.m_exec_ns; luts = m.P.m_luts; ffs = m.P.m_ffs } in
    let bad =
      problems
        [
          (m.P.m_value_ok, "the daemon reports a wrong exit value");
          (result.P.r_met_target, "level target missed");
          (matches opts name obs, "digest or quality differs from the direct flow's");
        ]
    in
    count (bad = []) (id ^ " (" ^ name ^ "): " ^ String.concat "; " bad);
    m.P.m_cycles

(* A closed loop with [serve_window] requests outstanding: the next
   request is sent as soon as one reaches its terminal event. Latency
   runs from the send to the decoded terminal event. Returns the ops,
   the pass wall time and the decoded done events. *)
let closed_loop opts server client (reqs : request array) =
  let n = Array.length reqs in
  let pending = Hashtbl.create (2 * serve_window) in
  let finished = ref [] and dones = ref [] and next = ref 0 and completed = ref 0 in
  let send () =
    let r = reqs.(!next) in
    incr next;
    Hashtbl.replace pending r.r_id (r, now ());
    ignore (Serve.Server.handle_line server ~emit:(emit client) r.r_line)
  in
  let t_start = now () in
  for _ = 1 to min serve_window n do
    send ()
  done;
  let terminal id outcome =
    let t1 = now () in
    match Hashtbl.find_opt pending id with
    | None -> count false ("event for unknown request " ^ id)
    | Some (r, t0) ->
      Hashtbl.remove pending id;
      incr completed;
      finished := (r, t0, t1, outcome) :: !finished;
      if !next < n then send ()
  in
  while !completed < n do
    match next_event client with
    | Ok (P.Accepted _ | P.Status _) -> ()
    | Ok (P.Done { id; wall_ms; result } as ev) ->
      dones := ev :: !dones;
      terminal id (Ok (wall_ms, result))
    | Ok (P.Failed { id = Some id; code; message } | P.Rejected { id; code; message }) ->
      terminal id (Error (code ^ ": " ^ message))
    | Ok (P.Cancelled { id }) -> terminal id (Error "cancelled")
    (* an event no request can own would leave the loop waiting forever *)
    | Ok ev -> die "unexpected event %s" (P.event_to_line ev)
    | Error msg -> die "undecodable event: %s" msg
  done;
  let wall = now () -. t_start in
  let ops =
    List.rev_map
      (fun (r, t0, t1, outcome) ->
        let name = task_name r.r_task in
        match outcome with
        | Error msg ->
          count false (r.r_id ^ " (" ^ name ^ "): " ^ msg);
          op_of name t0 t1
        | Ok (wall_ms, result) ->
          let cycles = check_done opts r.r_id r.r_task result in
          op_of name t0 t1 ~cycles ~server_ms:wall_ms)
      !finished
  in
  (ops, wall, Array.of_list !dones)

(* Benchmark-timed codec cost per message, in microseconds. *)
let per_message_us f items =
  let t0 = now () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
  ratio ((now () -. t0) *. 1e6) (float_of_int (Array.length items))

(* serve-hits: each round's set-up runs the direct flows into a fresh
   store, starts a daemon on it and primes one completion per task; the
   timed passes are then all completion-memo hits. *)
let serve_hits opts rng run =
  let n_tasks = List.length opts.tasks in
  let reqs =
    Array.init serve_pass_requests (fun i ->
        request_of (Printf.sprintf "q%d" i) (List.nth opts.tasks (Random.State.int rng n_tasks)))
  in
  for _ = 1 to rounds_with_priming do
    let t0 = now () in
    let dir = fresh_store_dir opts in
    let cache = Cache.Session.of_dir dir in
    let refs, fe = front_end opts in
    let prep = now () -. t0 in
    let direct = List.map (run_compile (session_of opts cache)) (shuffle rng opts.tasks) in
    let direct_s = ops_wall (List.map (check_compile opts refs) direct) in
    let client = new_client () in
    let t1 = now () in
    let server =
      Serve.Server.create
        {
          Serve.Server.default_config with
          jobs = 1;
          milp_nodes = Some opts.nodes;
          milp_budget_s = Some milp_budget_s;
          cache;
        }
    in
    let create_s = now () -. t1 in
    let primes = Array.of_list (List.mapi (fun i t -> request_of (Printf.sprintf "p%d" i) t) opts.tasks) in
    let _, prime_s, _ = closed_loop opts server client primes in
    run.setups <- (prep +. direct_s +. create_s +. prime_s) :: run.setups;
    run.frontends <- fe :: run.frontends;
    let timed = ref 0. and n = ref 0 in
    while !n < 2 || !timed < opts.seconds /. float_of_int rounds_with_priming do
      let (ops, wall, dones), report =
        traced (trace_next opts run) (fun () -> closed_loop opts server client reqs)
      in
      let codec =
        Option.map
          (fun _ ->
            ( per_message_us (fun r -> P.command_of_line r.r_line) reqs,
              per_message_us P.event_to_line dones ))
          report
      in
      add_pass run timed (summarize ?codec ~wall ops report);
      incr n
    done;
    Serve.Server.drain server;
    rm_rf dir
  done

(* ---- results ---- *)

let quality opts =
  let obs = List.filter_map (fun t -> Hashtbl.find_opt expected (task_name t)) opts.tasks in
  let g f = geomean (List.map f obs) in
  (g (fun o -> o.exec_ns), g (fun o -> float_of_int o.luts), g (fun o -> float_of_int o.ffs))

(* Pass-level figures are interquartile means over the run's passes,
   not medians: on a shared host the CPU's speed can switch between two
   levels for seconds at a time, and a median jumps between the levels
   as the share of fast passes crosses one half, while a mean follows
   that share smoothly. Dropping the outer quarters keeps a few spiking
   passes out of the tail figure. *)
let end_to_end_metrics opts run =
  let over f = interquartile_mean (List.map f run.passes) in
  let sum f = List.fold_left (fun s p -> s +. f p) 0. run.passes in
  let _, luts, ffs = quality opts in
  [
    ("setup_s", median run.setups);
    ("pass_s", over (fun p -> p.p_wall));
    ("ops_per_s", ratio (sum (fun p -> float_of_int p.p_ops)) (sum (fun p -> p.p_wall)));
    ("latency_p50_ms", over (fun p -> p.p_p50_ms));
    ("latency_p99_ms", over (fun p -> p.p_p99_ms));
    ("peak_rss_mb", peak_rss_mb ());
    ("luts_geomean", luts);
    ("ffs_geomean", ffs);
  ]

(* Counters that must repeat exactly between traced passes: the
   clock-independence guard. *)
let guarded = [ "milp.nodes"; "milp.pivots"; "cache.hits"; "sim.cycles" ]

let per_layer_metrics opts run =
  let traced = List.filter_map (fun p -> p.p_layers) run.passes in
  (match traced with
  | first :: rest ->
    List.iter
      (fun m ->
        List.iter
          (fun k ->
            let a = List.assoc k m and b = List.assoc k first in
            count (a = b) (Printf.sprintf "counter %s differs between traced passes (%g vs %g)" k a b))
          guarded)
      rest
  | [] -> ());
  let layer name = median (List.map (List.assoc name) traced) in
  let walls on =
    List.filter_map (fun p -> if (p.p_layers <> None) = on then Some p.p_wall else None) run.passes
  in
  let task_s t = median (List.filter_map (fun p -> List.assoc_opt (task_name t) p.p_task_s) run.passes) in
  let exec_ns, _, _ = quality opts in
  List.map (fun (name, _) -> (name, layer name)) (match traced with m :: _ -> m | [] -> [])
  @ [ ("hls.frontend_s", median run.frontends) ]
  @ List.map (fun t -> ("task." ^ task_name t ^ "_s", task_s t)) all_tasks
  @ [
      ("trace.overhead_frac", ratio (median (walls true)) (median (walls false)) -. 1.);
      ("quality.exec_ns_geomean", exec_ns);
    ]

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result names values =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number (List.assoc name values)) unit)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " metrics)

let () =
  let opts = parse_args () in
  let rng = Random.State.make [| opts.seed |] in
  let run = new_run () in
  let workload =
    match opts.workload with
    | "cold-compile" -> cold_compile
    | "warm-recompile" -> warm_recompile
    | _ -> serve_hits
  in
  at_exit (fun () ->
      rm_rf opts.work;
      try Unix.rmdir (Filename.dirname opts.work) with Unix.Unix_error _ -> ());
  workload opts rng run;
  if opts.plant then count !planted "the planted digest mismatch was never compared";
  Printf.printf "perfbench %s: seed %d, %d passes (%d traced), MILP node budget %d\n"
    opts.workload opts.seed (List.length run.passes)
    (List.length (List.filter (fun p -> p.p_layers <> None) run.passes))
    opts.nodes;
  List.iter
    (fun t ->
      match Hashtbl.find_opt expected (task_name t) with
      | Some o ->
        Printf.printf "  %-18s digest %s  exec %.1f ns  %d LUTs  %d FFs\n" (task_name t)
          (String.sub o.digest 0 (min 16 (String.length o.digest)))
          o.exec_ns o.luts o.ffs
      | None -> ())
    opts.tasks;
  if opts.trace then print_result per_layer (per_layer_metrics opts run)
  else print_result end_to_end (end_to_end_metrics opts run);
  exit (if !failed = 0 then 0 else 1)
