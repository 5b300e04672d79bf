(** Canonical content hashing of flow artifacts.

    Every hasher serialises its artifact into a {e canonical} binary form
    — ordered traversals only (unit/channel/gate/variable index order),
    with any set-like component (graph memories, netlist IO lists, LP
    terms) explicitly sorted — and returns the SHA-256 of those bytes as
    a 64-character hex string. Nothing here iterates a [Hashtbl] or
    depends on physical identity, so the same logical artifact produces
    the same key whether it was built on the main domain or inside a
    {!Support.Pool} worker, at [jobs = 1] or [jobs = 8], in this process
    or another one.

    Non-semantic carriers — graph/netlist/model names, auto-generated
    unit labels, constraint names — are deliberately excluded: two
    structurally identical circuits hash equal even if their labels
    differ, which is what lets synthesis results hit across the
    iterative flow's iterations and across experiment flavors.

    Each encoder starts with its own versioned tag (["dfg:v1"], ...);
    bump the tag when an encoding changes so stale on-disk entries can
    never be decoded under a new key scheme. *)

val dfg : Dataflow.Graph.t -> string
(** Units (kind with all parameters, basic block, width, port wiring),
    channels (endpoints, ports, width, buffer annotation, back-edge
    mark) and memories (sorted by name). *)

val memories : (string * int array) list -> string
(** A memory image: every memory's name, size and contents, sorted by
    name. *)

val netlist : Net.t -> string
(** Gates in id order (kind, fanins, owner, timing domain) plus the
    sorted input/output/register id lists. *)

val lp : Milp.Lp.t -> string
(** Variables in index order (bounds, kind), constraints in row order
    (terms sorted by variable, relation, right-hand side) and the
    objective. Variable and constraint names are excluded. *)

val combine : string list -> string
(** Collision-safe combination of already-computed hashes (or other
    strings): each part is length-prefixed before rehashing, so
    [combine \["ab"; "c"\]] never equals [combine \["a"; "bc"\]]. *)
