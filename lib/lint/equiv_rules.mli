(** Translation-validation lint rules (the [equiv-*] family).

    - [equiv-aig-mismatch] (error): the elaborated netlist and the
      rewritten AIG disagree at a combinational output — synthesis
      (strash, constant folding, balance) broke the function.
    - [equiv-cover-mismatch] (error): the K-feasible LUT cover does not
      implement the AIG — a LUT's output disagrees with its root, the
      cover/netlist disagree at an output, or the cover is structurally
      malformed (oversized cut, duplicate/unmapped leaf, broken root
      back-pointer).
    - [equiv-label-unsound] (error): a LUT is attributed to a unit that
      contributes no gates to its cone, corrupting [|X_fake|/|X|].
    - [equiv-domain-inconsistent] (error): a LUT's timing domain is not
      the join of its cone gates' domains.
    - [equiv-buffer-nonrefinement] (error): the buffered DFG differs
      from its input by more than the selected buffers (rogue buffer,
      dropped buffer, tampered slots, changed topology).

    The analyses live in {!Tv}; this module owns ids, severities and
    messages. *)

val rules : Rule.info list

val check_translation : Net.t -> Techmap.Lutgraph.t -> Diagnostic.t list * Tv.Equiv.result
(** Passes 1 (combinational equivalence) and 2 (label & domain
    soundness); also returns the raw equivalence result so callers can
    report signatures and counts without re-simulating. *)

val check_refinement :
  base:Dataflow.Graph.t ->
  buffered:Dataflow.Graph.t ->
  allowed:(Dataflow.Graph.channel_id * Dataflow.Graph.buffer_spec) list ->
  Diagnostic.t list
(** Pass 3 (buffer-insertion refinement). *)
