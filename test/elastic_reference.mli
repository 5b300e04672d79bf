(** The full-sweep elastic simulator, retained as a testing oracle.

    This is the simulator {!Sim.Elastic} replaced: every cycle it resets
    the handshake network and sweeps all units and channels until no
    signal changes. It is kept solely so the [sim-differential] suite
    can check that the dirty-set simulator agrees with it exactly.
    Nothing on the production path calls it. *)

val run :
  ?config:Sim.Elastic.config ->
  ?memories:(string * int array) list ->
  ?dump_deadlock:out_channel ->
  ?vcd:out_channel ->
  Dataflow.Graph.t ->
  Sim.Elastic.result
(** Same contract as {!Sim.Elastic.run}. *)
