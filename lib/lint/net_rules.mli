(** Lint rules over the elaborated gate-level netlist.

    - [net-undriven] (error): a gate fanin left unconnected ([-1]) — an
      undriven net.
    - [net-duplicate-io] (error): two inputs or two outputs share a
      name — a multiply-driven named net (the simulator and the
      testbench address IO by name).
    - [net-comb-cycle] (error): a combinational cycle (a path of
      non-flip-flop gates back to itself); no combinational frame of
      it is well defined, and the translation validator rejects it.
    - [net-owner-invalid] (warning): a gate labelled with a dataflow
      unit id outside the graph — penalty attribution and LUT labelling
      would silently misbehave. *)

val rules : Rule.info list

val check : Dataflow.Graph.t -> Net.t -> Diagnostic.t list
