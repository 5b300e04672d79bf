(** Dataflow unit kinds, following Dynamatic's elastic component library.

    Every unit communicates over point-to-point channels with the elastic
    (latency-insensitive) protocol: forward [data]+[valid], backward
    [ready]. Fan-out is made explicit with forks; control-flow joins with
    merges/muxes; conditional flow with branches. *)

type t =
  | Entry                                   (** program start: emits one control token per invocation *)
  | Exit                                    (** program end: absorbs the final control token *)
  | Fork of int                             (** eager fork, [n] outputs *)
  | Lazy_fork of int                        (** lazy fork: fires only when all successors are ready *)
  | Join of int                             (** synchronizes [n] tokens into one *)
  | Merge of int                            (** first-come merge of [n] inputs *)
  | Mux of int                              (** select input (port 0) steering [n] data inputs *)
  | Control_merge of int                    (** merge emitting the data token and the winning index *)
  | Branch                                  (** data (port 0) + condition (port 1); true/false outputs *)
  | Sink                                    (** consumes and discards tokens *)
  | Source                                  (** emits a token whenever asked *)
  | Const of int                            (** emits the constant when triggered by a control token *)
  | Operator of { op : Ops.t; latency : int; ii : int }
  | Load of { mem : string; latency : int } (** address in, data out, against memory [mem] *)
  | Store of { mem : string }               (** address + data in, completion token out *)
  | Buffer of { transparent : bool; slots : int }
      (** standalone buffer unit (placement normally uses channel
          annotations instead; see {!Graph}) *)

val in_arity : t -> int
val out_arity : t -> int

val operator : Ops.t -> t
(** [operator op] with Dynamatic's default latency and II for [op]. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val is_memory : t -> bool
(** Loads and stores. *)

val latency : t -> int
(** Internal pipeline latency of the unit in cycles. *)
