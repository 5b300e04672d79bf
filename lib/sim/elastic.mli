(** Cycle-accurate simulation of a buffered dataflow circuit (the
    ModelSim step of the paper's flow, which provides the clock-cycle
    counts of Table I).

    The simulator implements the same elastic protocol as the netlist
    elaboration: eager forks, implicit joins at operators, priority
    merges, and 2-slot opaque buffers with one cycle of latency.
    Each cycle resolves the combinational valid/ready/data network to a
    fixpoint and then fires every channel whose endpoint agreed on a
    transfer. A circuit whose handshake does not stabilise (combinational
    cycle through unbuffered channels) raises [Failure].

    {b Settle algorithm.} The fixpoint is a sequence of sweeps, each a
    unit phase followed by a channel phase. A unit reads only the signals
    channels write (consumer-side valid/data, producer-side ready) and
    writes only the signals channels read (producer-side valid/data,
    consumer-side ready); a channel does the reverse. Each phase is
    therefore a Jacobi step: its result does not depend on the order in
    which its elements are evaluated. A cycle resets every signal and
    runs one full sweep; after that a phase re-evaluates only the
    elements next to a signal that changed in the previous phase. This
    is exact: an element whose inputs did not change would recompute the
    signals it already drives, so skipping it changes nothing, the same
    signals change in the same sweep, and the sweep count — and with it
    the "does not stabilise" bound of 2(units + channels) + 8 sweeps —
    is that of sweeping everything every time. The full-sweep simulator
    is kept with the tests as a differential oracle.

    One [run] simulates one kernel invocation: the entry unit emits a
    single control token and the run ends when the exit unit consumes its
    token. *)

type config = {
  max_cycles : int;      (** hard stop (default 2_000_000) *)
  deadlock_window : int; (** cycles without any transfer before giving up *)
}

val default_config : config

type channel_stats = {
  cs_transfers : int;   (** tokens that crossed the channel *)
  cs_stalls : int;      (** cycles the producer offered but the consumer refused *)
  cs_starved : int;     (** cycles the consumer was ready but no token was offered *)
}

type result = {
  cycles : int;              (** cycles until the exit token, or until stop *)
  exit_value : int option;   (** value carried by the exit token *)
  finished : bool;           (** exit fired *)
  deadlocked : bool;
  transfers : int;           (** total channel transfers (diagnostics) *)
  channel_stats : channel_stats array;
      (** per channel id; the profiling view Dynamatic-style tools use to
          find the channels worth buffering *)
}

val run :
  ?config:config ->
  ?memories:(string * int array) list ->
  ?dump_deadlock:out_channel ->
  ?vcd:out_channel ->
  Dataflow.Graph.t ->
  result
(** [memories] provides initial contents per declared memory; missing
    memories are zero-initialised at their declared size. Stores mutate
    the provided arrays in place (so callers can inspect results).
    [vcd] streams a waveform of every channel's valid/ready/data to the
    given out channel (see {!Vcd}). *)
