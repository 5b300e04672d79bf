(** The project's one JSON codec.

    The toolchain deliberately has no JSON dependency. Every
    machine-readable document — the Chrome trace, lint and certificate
    reports, fuzz and cache statistics, and the compile daemon's
    line protocol — is built as a {!t} and printed here, and the daemon
    parses its untrusted request lines here too. Strict enough for a
    network protocol: full string escaping (including [\uXXXX] and
    surrogate pairs, with invalid scalars replaced by U+FFFD rather than
    raised), trailing-garbage rejection, and parse failures as [Error] —
    a malformed line must never kill the daemon. Printing is canonical:
    object fields in the order given, no whitespace, integers without a
    fraction part, and non-finite numbers (NaN, ±infinity), which JSON
    cannot express, as [null] — the same value always prints to the
    same bytes, which the protocol's digest-comparison tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line, no trailing newline. *)

val of_string : string -> (t, string) result
(** Parse exactly one JSON value (plus surrounding whitespace). *)

(** {1 Accessors} — all total, [None] on shape mismatch *)

val mem : string -> t -> t option
val str : t -> string option
val num : t -> float option
val bool : t -> bool option
val int : t -> int option
val str_mem : string -> t -> string option
val num_mem : string -> t -> float option
val int_mem : string -> t -> int option
val bool_mem : string -> t -> bool option
