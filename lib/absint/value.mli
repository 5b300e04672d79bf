(** Abstract channel values: reduced product of an unsigned interval and a
    known-bits tri-state bitvector, relative to a channel bit width.

    A value over-approximates the set of data values carried by every token
    the channel ever transports.  [Bot] means "no token ever"; [Any] covers
    widths >= 62 bits that the elastic simulator leaves unmasked (native
    ints, possibly negative) and which the analysis therefore refuses to
    reason about. *)

type t =
  | Bot  (** channel never carries a token *)
  | Any  (** unanalyzable (width >= 62: unmasked native ints) *)
  | V of { lo : int; hi : int; zeros : int; ones : int }
      (** [lo <= v <= hi], [v land zeros = 0], [v land ones = ones] *)

val mask_of : int -> int option
(** [mask_of w] is the simulator's value mask for width [w]: [Some 0] for
    [w <= 0], [None] (unmasked) for [w >= 62], [Some (2^w - 1)] otherwise. *)

val bits : int -> int
(** Position of the highest set bit plus one; [bits 0 = 0], [bits n = 0] for
    negative [n]. *)

val reduce : int -> lo:int -> hi:int -> zeros:int -> ones:int -> t
(** Canonicalize a quadruple at the given width: clips the interval with the
    bit facts and vice versa, returns [Bot] on contradiction. *)

val top : int -> t
val const : int -> int -> t
(** [const w v] abstracts the single value [v land mask]. *)

val is_bot : t -> bool

val join : int -> t -> t -> t
val meet : int -> t -> t -> t
val widen : int -> old:t -> next:t -> t
(** Accelerated join: interval ends that moved since [old] jump to 0 / max. *)

val equal : t -> t -> bool

val mem : int -> int -> t -> bool
(** [mem w v t]: the concrete value [v] is a member of [t] at width [w]. *)

val mask_to : int -> t -> t
(** Re-interpret a value crossing into a channel of width [w] (the simulator
    masks data to the destination width on write). *)

val needed_width : int -> t -> int
(** Bits needed to represent every member at width [w]; 0 for [Bot]. *)

val pp : ?width:int -> Format.formatter -> t -> unit
val to_string : ?width:int -> t -> string
