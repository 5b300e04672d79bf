(* Differential testing of the dirty-set elastic simulator
   ({!Sim.Elastic}) against the retained full-sweep simulator
   ({!Elastic_reference}, which lives here with the tests).

   The two must agree exactly — cycles, exit value, finished/deadlocked
   flags, transfers, per-channel statistics and final memories — on every
   paper kernel as seeded, as buffered by the iterative flow and as
   buffered by the baseline flow, each on zero and random memory images,
   and on a range of generated programs. The diagnostic outputs (the
   deadlock dump and the VCD waveform) must be byte-identical, and both
   must stop at [max_cycles] and reject a combinational cycle the same
   way. *)

module G = Dataflow.Graph
module E = Sim.Elastic

let check = Alcotest.check

(* ---- inputs ---------------------------------------------------------- *)

let seeded g =
  ignore (Core.Flow.seed_back_edges g);
  g

(* The flows' buffered graphs, at a small node budget: they only need to
   be realistic circuits to simulate, not good ones. A flow on a large
   kernel costs 4-17 s even so, mostly in the MILP's root relaxation, so
   by default only gsum and gsumif are run through the flows; setting
   REPRO_SIM_DIFF_ALL_FLOWS=1 runs all nine (the CI step does). *)
let all_flows = Sys.getenv_opt "REPRO_SIM_DIFF_ALL_FLOWS" = Some "1"

let variants (k : Hls.Kernels.t) =
  let g = Hls.Kernels.graph k in
  let config = Fixtures.cheap_flow_config in
  ("seeded", seeded (G.copy g))
  ::
  (if all_flows || List.mem k.Hls.Kernels.name [ "gsum"; "gsumif" ] then
     [
       ("iterative", (Core.Flow.iterative ~config g).Core.Flow.graph);
       ("baseline", (Core.Flow.baseline ~config g).Core.Flow.graph);
     ]
   else [])

(* Runs are compared over at most this many cycles: enough for seeded gsum,
   gsumif, insertion_sort, mvt and gemver to finish, and a bounded cost
   for the reference on the long-running kernels, which are compared on
   their state at the cap. *)
let kernel_config = { E.default_config with E.max_cycles = 2_000 }

(* the zero image plus [n_random] random ones, per declared memory *)
let images ?(n_random = 3) g =
  let image seed =
    let rng = Support.Rng.create seed in
    List.map
      (fun (name, size) ->
        (name, Array.init size (fun _ -> if seed = 0 then 0 else Support.Rng.int rng 65536)))
      (G.memories g)
  in
  List.init (n_random + 1) (fun i -> (Printf.sprintf "image %d" i, image (i * 7919)))

let copy_mems = List.map (fun (n, a) -> (n, Array.copy a))

(* ---- comparison ------------------------------------------------------ *)

let outcome f = match f () with r -> Ok r | exception Failure msg -> Error msg

let agree ?config ~what g mems =
  let m_ref = copy_mems mems and m_new = copy_mems mems in
  let r_ref = outcome (fun () -> Elastic_reference.run ?config ~memories:m_ref g) in
  let r_new = outcome (fun () -> E.run ?config ~memories:m_new g) in
  match (r_ref, r_new) with
  | Error a, Error b -> check Alcotest.string (what ^ ": failure") a b
  | Ok a, Ok b ->
    check Alcotest.int (what ^ ": cycles") a.E.cycles b.E.cycles;
    check (Alcotest.option Alcotest.int) (what ^ ": exit value") a.E.exit_value b.E.exit_value;
    check Alcotest.bool (what ^ ": finished") a.E.finished b.E.finished;
    check Alcotest.bool (what ^ ": deadlocked") a.E.deadlocked b.E.deadlocked;
    check Alcotest.int (what ^ ": transfers") a.E.transfers b.E.transfers;
    check Alcotest.bool (what ^ ": channel stats") true (a.E.channel_stats = b.E.channel_stats);
    check Alcotest.bool (what ^ ": final memories") true (m_ref = m_new)
  | Ok _, Error msg -> Alcotest.failf "%s: only the new simulator failed: %s" what msg
  | Error msg, Ok _ -> Alcotest.failf "%s: only the reference failed: %s" what msg

let test_kernel (k : Hls.Kernels.t) () =
  List.iter
    (fun (flavor, g) ->
      List.iter
        (fun (img, mems) ->
          agree ~config:kernel_config
            ~what:(Printf.sprintf "%s %s %s" k.Hls.Kernels.name flavor img)
            g mems)
        (images g))
    (variants k)

let test_generated () =
  for seed = 0 to 39 do
    let p = Hls.Generate.generate seed in
    let g = seeded (Hls.Compile.compile ~args:p.Hls.Generate.args p.Hls.Generate.func) in
    agree ~what:(Printf.sprintf "generated seed %d" seed) g (Hls.Generate.fresh_memories p);
    List.iter
      (fun (img, mems) -> agree ~what:(Printf.sprintf "generated seed %d %s" seed img) g mems)
      (images ~n_random:1 g)
  done

let test_max_cycles () =
  let g = seeded (Hls.Kernels.graph (Hls.Kernels.by_name "gsumif")) in
  List.iter
    (fun max_cycles ->
      let config = { E.default_config with E.max_cycles } in
      agree ~config ~what:(Printf.sprintf "max_cycles %d" max_cycles) g (List.assoc "image 1" (images g)))
    [ 0; 1; 17; 250 ]

let test_combinational_failure () =
  let g, _ = Fixtures.loop ~buffered:false () in
  agree ~what:"unbuffered loop" g [];
  match E.run g with
  | _ -> Alcotest.fail "expected a combinational-cycle failure"
  | exception Failure _ -> ()

(* the single loop token fills a one-slot back edge *)
let deadlocking () =
  let g, back = Fixtures.loop () in
  G.set_buffer g back (Some { G.transparent = false; slots = 1 });
  g

let with_temp_file f =
  let path = Filename.temp_file "simdiff" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc);
      In_channel.with_open_bin path In_channel.input_all)

let test_deadlock_dump () =
  let g = deadlocking () in
  let config = { E.default_config with E.deadlock_window = 16 } in
  let a = with_temp_file (fun oc -> ignore (Elastic_reference.run ~config ~dump_deadlock:oc g)) in
  let b = with_temp_file (fun oc -> ignore (E.run ~config ~dump_deadlock:oc g)) in
  check Alcotest.bool "dump written" true (String.length a > 0);
  check Alcotest.string "deadlock dump" a b;
  agree ~config ~what:"deadlocking loop" g []

let test_vcd () =
  List.iter
    (fun (what, g, mems) ->
      let a =
        with_temp_file (fun oc ->
            ignore (Elastic_reference.run ~vcd:oc ~memories:(copy_mems mems) g))
      in
      let b = with_temp_file (fun oc -> ignore (E.run ~vcd:oc ~memories:(copy_mems mems) g)) in
      check Alcotest.bool (what ^ ": waveform written") true (String.length a > 0);
      check Alcotest.bool (what ^ ": byte-identical VCD") true (String.equal a b))
    [
      ("loop", fst (Fixtures.loop ()), []);
      ( "gsumif",
        seeded (Hls.Kernels.graph (Hls.Kernels.by_name "gsumif")),
        (Hls.Kernels.by_name "gsumif").Hls.Kernels.mems () );
    ]

let suite =
  List.map
    (fun (k : Hls.Kernels.t) -> ("kernel " ^ k.Hls.Kernels.name, `Quick, test_kernel k))
    Hls.Kernels.all
  @ [
      ("generated programs", `Quick, test_generated);
      ("max_cycles stop", `Quick, test_max_cycles);
      ("combinational-cycle failure", `Quick, test_combinational_failure);
      ("deadlock dump", `Quick, test_deadlock_dump);
      ("vcd output", `Quick, test_vcd);
    ]
