(** Random-simulation equivalence of two circuit variants.

    The translation-validation gate behind the narrowing optimizer
    ({!Absint.Narrow}): both graphs are simulated on identical initial
    memories and their observable outcomes — exit value and final memory
    contents — are compared over three rounds.  Round 0 runs on
    zero-initialised memories, the other two on random images (stressing
    load-value masking at narrowed widths).  Rounds where the original
    does not finish within the cycle budget prove nothing and are
    skipped. *)

val check :
  ?seed:int -> original:Dataflow.Graph.t -> variant:Dataflow.Graph.t -> unit -> string list
(** Returns human-readable mismatch descriptions; [[]] means every
    conclusive round agreed. *)

val params : string
(** The fixed parameters behind {!check}'s default verdict: rounds,
    seed and the simulator's cycle budget. With the two graphs, they
    determine the verdict, so a memo of it keys on this string. *)
