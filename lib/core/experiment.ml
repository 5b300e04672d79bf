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

let measure (outcome : Flow.outcome) kernel =
  Trace.with_span ~cat:"experiment" "experiment:measure" @@ fun () ->
  let g = outcome.Flow.graph in
  (* the flow already synthesised its final circuit; measuring from the
     outcome's netlist avoids a full re-synthesis per kernel run *)
  let net = outcome.Flow.net and lg = outcome.Flow.lutgraph in
  let pr = Placeroute.Sta.analyze ~seed:7 net lg in
  let mems = kernel.Hls.Kernels.mems () in
  let sim = Trace.with_span ~cat:"sim" "sim:elastic" (fun () -> Sim.Elastic.run ~memories:mems g) in
  let reference = Hls.Kernels.reference kernel in
  let value_ok =
    sim.Sim.Elastic.finished && sim.Sim.Elastic.exit_value = Some reference
  in
  {
    cp = pr.Placeroute.Sta.cp;
    cycles = sim.Sim.Elastic.cycles;
    exec_ns = pr.Placeroute.Sta.cp *. float_of_int sim.Sim.Elastic.cycles;
    luts = pr.Placeroute.Sta.n_luts;
    ffs = pr.Placeroute.Sta.n_ffs;
    levels = lg.Techmap.Lutgraph.max_level;
    buffers = List.length (G.buffered_channels g);
    iterations = List.length outcome.Flow.iterations;
    met_target = outcome.Flow.met_target;
    value_ok;
  }

let run_flow ?(config = Flow.default_config) ?session ~flavor kernel =
  let g = Hls.Kernels.graph kernel in
  let outcome = Flow.run ~config ?session flavor g in
  (measure outcome kernel, outcome)

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
