(** Seeded miscompile injection for validating the validator.

    Each mutator plants exactly one fault of a known class and returns
    the mutated artefact together with the id of the mutation site (the
    expected witness). Candidates are tried in seeded-random order;
    where a random mutation could be semantically neutral (gate flips,
    cover swaps), the first candidate proved observable by the scalar
    reference evaluators ({!Logic_reference.eval_net}, respectively
    {!Logic_reference.cover_equivalent}) is kept, so the validator under
    test never participates in selecting its own test input. [None]
    means no observable mutation of that class exists in the
    artefact. *)

val flip_gate : seed:int -> Net.t -> (Net.t * int) option
(** Flip one [And2]/[Or2]/[Xor2] gate's kind; returns the mutated
    netlist and the flipped gate id. *)

val swap_cover_leaf : seed:int -> Techmap.Lutgraph.t -> (Techmap.Lutgraph.t * int) option
(** Replace one leaf of one LUT's cut with a different legal leaf (CI
    or mapped root); returns the mutated cover and the LUT id. *)

val swap_label : seed:int -> n_units:int -> Techmap.Lutgraph.t -> (Techmap.Lutgraph.t * int) option
(** Relabel one LUT with a unit (in [[0, n_units)]) that contributes no
    gates to its cone; returns the mutated cover and the LUT id. *)

val swap_domain : seed:int -> Techmap.Lutgraph.t -> (Techmap.Lutgraph.t * int) option
(** Set one LUT's timing domain to something other than its cone join;
    returns the mutated cover and the LUT id. *)

val rogue_buffer : seed:int -> Dataflow.Graph.t -> (Dataflow.Graph.t * int) option
(** Copy the graph and add an opaque buffer on a channel nobody
    selected; returns the mutated graph and the channel id. *)

val tamper_slots : seed:int -> Dataflow.Graph.t -> (Dataflow.Graph.t * int) option
(** Copy the graph and change the slot count of an existing buffer;
    returns the mutated graph and the channel id. *)
