(** Growable array, the workhorse container for graph node/edge tables.
    Indices handed out by [push] are stable, which lets the IRs use plain
    integers as node identifiers. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** Append, returning the index of the new element. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map_to_list : ('a -> 'b) -> 'a t -> 'b list
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool
val find_index : ('a -> bool) -> 'a t -> int option
