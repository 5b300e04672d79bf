(** Slack matching: transparent-buffer sizing.

    After opaque buffers fix the circuit's cycle time and cycles, unequal
    registered latencies on reconvergent paths still cost throughput: the
    shorter path's token waits with nowhere to sit, back-pressuring its
    producer. The classical cure (the sizing half of the FPGA'20
    formulation; also Najibi & Beerel's slack matching) adds {e
    transparent} capacity — queue slots without latency — on the shallow
    side.

    This implementation computes, per unit, the longest registered
    latency from the circuit entries over the acyclic skeleton (back
    edges removed), and gives every channel whose endpoint depths differ
    by more than its own latency enough transparent slots to park the
    early tokens. *)

val compute : Dataflow.Graph.t -> (Dataflow.Graph.channel_id * int) list
(** Channels needing transparent capacity, with slot counts (capped at
    4). Channels that already have a buffer are skipped. *)

val apply : Dataflow.Graph.t -> int
(** Compute and install the transparent buffers; returns how many
    channels were padded. *)
