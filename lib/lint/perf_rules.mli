(** The [perf-*] rule family: checks the MILP's performance claims and
    the timing model's domain discipline against the independent
    throughput & liveness certificate of {!Analysis.Certify}.

    {!check} compares a certificate with the MILP's per-CFDFC
    throughput [phi] and flags overclaims, combinational loops, token
    deadlocks, and (when the caller observed it) truncated cycle
    enumeration. {!check_domains} audits the node-level timing graph's
    §IV-D discipline: artificial domain-crossing pivots may only live
    in FPL'22 interaction units, and every real LUT delay node must lie
    on a launch-to-capture path (else its delay cannot constrain the
    clock period). *)

val rules : Rule.info list

val check :
  ?truncated:bool ->
  phi:(Dataflow.Graph.unit_id list * float) list ->
  Analysis.Certify.t ->
  Dataflow.Graph.t ->
  Diagnostic.t list
(** [phi] pairs each CFDFC's unit set with the throughput the MILP
    claimed for it; CFDFCs are matched to the certificate's SCCs by
    their unit sets. A slack of 1e-4 absorbs LP arithmetic noise.
    [truncated] (default false) reports that cycle enumeration hit its
    cap upstream. *)

val check_domains : Dataflow.Graph.t -> Timing.Lut_map.t -> Diagnostic.t list
