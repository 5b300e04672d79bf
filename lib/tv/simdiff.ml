(* Random-simulation equivalence of two circuit variants (the translation
   validation gate behind [Absint.Narrow]): simulate both on the same
   initial memories and compare the observable outcome — exit value and
   final memory state.

   Round 0 uses the declared zero-initialised memories (the semantics the
   kernels' reference values are defined against); the remaining rounds
   draw random memory images, which in particular exercises load-value
   masking at narrowed widths.  A round where the original does not finish
   within the cycle budget proves nothing about the variant and is
   skipped. *)

module G = Dataflow.Graph

let rounds = 3

let mems_of ~random rng g =
  List.map
    (fun (name, size) ->
      let a = Array.make size 0 in
      if random then
        for i = 0 to size - 1 do
          a.(i) <- Support.Rng.int rng 65536
        done;
      (name, a))
    (G.memories g)

let config = { Sim.Elastic.max_cycles = 200_000; deadlock_window = 256 }
let default_seed = 0xd1ff

let params =
  Printf.sprintf "simdiff:rounds=%d;seed=%d;max_cycles=%d;deadlock_window=%d" rounds default_seed
    config.Sim.Elastic.max_cycles config.Sim.Elastic.deadlock_window

let check ?(seed = default_seed) ~original ~variant () =
  let mismatches = ref [] and n_mismatches = ref 0 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        mismatches := s :: !mismatches;
        incr n_mismatches)
      fmt
  in
  let cap = 8 in
  for round = 0 to rounds - 1 do
    let rng = Support.Rng.create (seed + (round * 7919)) in
    let m1 = mems_of ~random:(round > 0) rng original in
    let m2 = List.map (fun (n, a) -> (n, Array.copy a)) m1 in
    let r1 = Sim.Elastic.run ~config ~memories:m1 original in
    if r1.Sim.Elastic.finished then begin
      let r2 = Sim.Elastic.run ~config ~memories:m2 variant in
      if not r2.Sim.Elastic.finished then
        add "round %d: original finished (exit %s) but variant %s" round
          (match r1.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "?")
          (if r2.Sim.Elastic.deadlocked then "deadlocked" else "timed out")
      else begin
        if r1.Sim.Elastic.exit_value <> r2.Sim.Elastic.exit_value then
          add "round %d: exit value %s <> %s" round
            (match r1.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "none")
            (match r2.Sim.Elastic.exit_value with Some v -> string_of_int v | None -> "none");
        List.iter
          (fun (name, a1) ->
            match List.assoc_opt name m2 with
            | Some a2 ->
                (* cap the noise; one differing cell is already fatal *)
                let i = ref 0 in
                while !i < Array.length a1 && !n_mismatches < cap do
                  if a2.(!i) <> a1.(!i) then
                    add "round %d: memory %s[%d] = %d <> %d" round name !i a1.(!i) a2.(!i);
                  incr i
                done
            | None -> add "round %d: memory %s missing in variant" round name)
          m1
      end
    end
  done;
  List.rev !mismatches
