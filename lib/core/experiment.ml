module G = Dataflow.Graph
module Trace = Support.Trace

type metrics = {
  cp : float;
  cycles : int;
  exec_ns : float;
  luts : int;
  ffs : int;
  levels : int;
  buffers : int;
  iterations : int;
  met_target : bool;
  value_ok : bool;
}

type row = {
  bench : string;
  prev : metrics;
  iter : metrics;
}

(* Place & route of the final circuit, memoised in the session (kind
   [sta]): the placement is a pure function of the netlist and its LUT
   graph, which the final synthesis's key determines, and of the
   placer's seed and effort. *)
let place_seed = 7
let place_effort = 1.0

let place_and_route ~(session : Session.t) (outcome : Flow.outcome) =
  let analyze () =
    Placeroute.Sta.analyze ~seed:place_seed ~effort:place_effort outcome.Flow.net
      outcome.Flow.lutgraph
  in
  (* an outcome from an uncached flow carries no synthesis key to extend *)
  match outcome.Flow.synth_key with
  | None -> analyze ()
  | Some synth_key ->
    Cache.Session.memo session.Session.cache ~kind:"sta"
      ~key:(fun () ->
        [ synth_key; Printf.sprintf "place:seed=%d;effort=%h" place_seed place_effort ])
      analyze

(* The measurement simulation, memoised in the session (kind [sim]):
   [Sim.Elastic] is deterministic, so what it reports is a pure function
   of the circuit's content, the initial memory image and the simulator
   config. The key hashes [mems] before the run mutates it in place; the
   cached value carries the final image, so a warm hit still checks the
   memories against the interpreter's. *)
type sim_run = {
  finished : bool;
  exit_value : int option;
  cycles : int;
  final_mems : (string * int array) list;
}

let simulate ~(session : Session.t) g mems =
  let config = Sim.Elastic.default_config in
  Cache.Session.memo session.Session.cache ~kind:"sim"
    ~key:(fun () ->
      [
        Cache.Hash.dfg g;
        Cache.Hash.memories mems;
        Printf.sprintf "elastic:max_cycles=%d;deadlock_window=%d" config.Sim.Elastic.max_cycles
          config.Sim.Elastic.deadlock_window;
      ])
    (fun () ->
      let r =
        Trace.with_span ~cat:"sim" "sim:elastic" (fun () -> Sim.Elastic.run ~config ~memories:mems g)
      in
      {
        finished = r.Sim.Elastic.finished;
        exit_value = r.Sim.Elastic.exit_value;
        cycles = r.Sim.Elastic.cycles;
        final_mems = mems;
      })

let measure ~session (outcome : Flow.outcome) kernel =
  Trace.with_span ~cat:"experiment" "experiment:measure" @@ fun () ->
  let g = outcome.Flow.graph in
  (* the flow already synthesised its final circuit; measuring from the
     outcome's netlist avoids a full re-synthesis per kernel run *)
  let lg = outcome.Flow.lutgraph in
  let pr = place_and_route ~session outcome in
  let sim = simulate ~session g (kernel.Hls.Kernels.mems ()) in
  (* the circuit must agree with the interpreter on everything the
     kernel observes: the exit value and the final memory image, both
     run from fresh copies of the kernel's inputs *)
  let ref_mems = kernel.Hls.Kernels.mems () in
  let reference = Hls.Interp.run (Hls.Kernels.func kernel) ~args:[] ~memories:ref_mems in
  let value_ok = sim.finished && sim.exit_value = Some reference && sim.final_mems = ref_mems in
  {
    cp = pr.Placeroute.Sta.cp;
    cycles = sim.cycles;
    exec_ns = pr.Placeroute.Sta.cp *. float_of_int sim.cycles;
    luts = pr.Placeroute.Sta.n_luts;
    ffs = pr.Placeroute.Sta.n_ffs;
    levels = lg.Techmap.Lutgraph.max_level;
    buffers = List.length (G.buffered_channels g);
    iterations = List.length outcome.Flow.iterations;
    met_target = outcome.Flow.met_target;
    value_ok;
  }

let run_flow ?(config = Flow.default_config) ?(session = Session.make ()) ~flavor kernel =
  let g = Hls.Kernels.graph kernel in
  let outcome = Flow.run ~config ~session flavor g in
  (measure ~session outcome kernel, outcome)

(* ------------------------------------------------------------------ *)
(* Domain-parallel engine: one task per kernel x flavor. Each task
   compiles its own kernel graph (nothing mutable is shared across
   domains; placement RNGs are created per run from fixed seeds), so a
   task's result is independent of scheduling and [jobs] only changes
   wall-clock, never a number. *)

type task_timing = { t_bench : string; t_flavor : string; t_seconds : float }

let run_all ?(config = Flow.default_config) ?session ~jobs kernels =
  Trace.with_span ~cat:"experiment" "experiment:run_all" @@ fun () ->
  (* captured before submission: task spans re-root under this span's
     path whichever domain runs them, so the trace nests identically at
     any [jobs] width *)
  let ctx = Trace.current_context () in
  let wall0 = Unix.gettimeofday () in
  let results =
    Support.Pool.run ~jobs (fun pool ->
        let submit k flavor =
          let label = Printf.sprintf "task:%s:%s" k.Hls.Kernels.name (Flow.flavor_name flavor) in
          Support.Pool.submit pool (fun () ->
              Trace.with_context ctx (fun () ->
                  Trace.timed ~cat:"task" label (fun () ->
                      fst (run_flow ~config ?session ~flavor k))))
        in
        kernels
        |> List.map (fun k -> (k, submit k `Baseline, submit k `Iterative))
        |> List.map (fun (k, fb, fi) ->
               let name = k.Hls.Kernels.name in
               let prev, t_prev = Support.Pool.await fb in
               let iter, t_iter = Support.Pool.await fi in
               ( { bench = name; prev; iter },
                 [
                   { t_bench = name; t_flavor = Flow.flavor_name `Baseline; t_seconds = t_prev };
                   { t_bench = name; t_flavor = Flow.flavor_name `Iterative; t_seconds = t_iter };
                 ] )))
  in
  let rows = List.map fst results in
  let timings = List.concat_map snd results in
  (rows, timings, Unix.gettimeofday () -. wall0)
