(** Scalar reference evaluators of the three logic representations the
    flow chains together — gate netlist, AIG, LUT cover — retained as
    testing oracles.

    Each evaluates one input assignment at a time, in the most direct
    way: the netlist by a fixpoint over gate order, the AIG node by node,
    a LUT by walking its AIG cone under its leaf values. They share no
    code with the 64-lane word evaluators of {!Tv.Equiv}, so the tests
    can replay the validator's counterexample lanes through them and
    check that every witness it reports really is one. Nothing on the
    production path calls this module. *)

(** {2 Netlist} *)

val eval_net : Net.t -> (int -> bool) -> bool array
(** [eval_net net stim] settles one combinational frame: [stim id] is
    the value of [Input]/[Ff] gate [id]; the result holds every gate's
    value by id (an unconnected fanin reads [false]). Raises [Failure]
    if the netlist does not settle, i.e. contains a combinational
    cycle. This is the only scalar netlist evaluator of the test
    suite. *)

type sim
(** A clocked simulation over {!eval_net}: named input values plus the
    flip-flop state. *)

val sim_create : Net.t -> sim
(** Flip-flops start at their reset values, inputs at [false]. *)

val sim_set_input : sim -> string -> bool -> unit

val sim_eval : sim -> unit
(** Settle the combinational logic from the previous settled values
    (raises [Failure] on a combinational cycle). *)

val sim_get_output : sim -> string -> bool
(** Value of the named output after the last {!sim_eval}. *)

val sim_step : sim -> unit
(** Clock edge: latch every flip-flop from its D fanin (call after
    {!sim_eval}). *)

(** {2 AIG and LUT cover} *)

val eval_aig : Techmap.Aig.t -> (int -> bool) -> bool array
(** Every node's value, given the CI values by node id. *)

val cover_equivalent : ?vectors:int -> ?seed:int -> Techmap.Lutgraph.t -> bool
(** The LUT cover and its AIG agree at every combinational output on
    [vectors] (default 256) random CI assignments. Each LUT computes the
    function of its AIG cone over its leaves; raises [Invalid_argument]
    if a LUT's cone is not cut by its leaves. *)

(** {2 Witness replay} *)

val confirms : Net.t -> Techmap.Lutgraph.t -> Tv.Equiv.mismatch -> bool
(** Replay a reported mismatch's counterexample lane through the scalar
    evaluators: [true] iff the two representations it names disagree
    there. A LUT whose cone its leaves do not cut, and a leaf that is
    neither a CI nor a mapped root, read [false] in the replay, as in the
    validator's evaluation of a malformed cover, so cover lanes are
    replayed on malformed covers too. A cover mismatch also counts as
    confirmed when the LUT's truth table ({!Techmap.Truth.lut_table})
    differs from its cone's function. [Cover_structural] itself carries
    no lane and is never confirmed. *)
