(** Content-addressed on-disk artifact store.

    Layout under the root directory:

    {v
    <root>/objects/ab/cd/<id>    entries; id = sha256(kind NUL key)
    <root>/tmp/                  in-flight writes (same filesystem)
    <root>/stats.log             one appended line per finished session
    v}

    Entries are sharded over two directory levels (first four hex
    characters of the id) so no single directory grows unbounded. Every
    entry carries a versioned header — format version, the writer's
    kind, and a model-version stamp that includes the OCaml version,
    because payloads are [Marshal]-encoded — plus the payload's own
    SHA-256 and length. A read that fails {e any} of those checks (or
    any I/O error) degrades to a miss and best-effort deletes the bad
    file, so truncated or corrupted entries are recomputed and
    rewritten, never crash.

    Writes go to a temp file in [<root>/tmp] and land with an atomic
    [rename], so concurrent writers — pool domains or separate
    processes — can race on the same key and readers still only ever
    see complete entries. Disk-hit reads bump the entry's mtime, which
    is the eviction order {!gc} uses.

    A bounded in-memory {!Lru} front caches payload bytes per process;
    hits there skip the file read and checksum. Hit/miss/byte counters
    are kept in atomics (safe under {!Support.Pool}) and mirrored into
    {!Support.Trace} as [cache.hit] / [cache.miss] / [cache.bytes]. *)

type t

val model_version : string
(** Stamp written into every entry header. Bump {e the constant in the
    implementation} whenever a cached value's meaning or layout changes
    (a new mapper cost function, a changed record, a change to the
    placer, its architecture model or the static-timing report that the
    [sta] kind stores); entries with a
    different stamp read as misses. The OCaml version is appended
    automatically because values are [Marshal]-encoded. *)

val open_dir : ?mem_bytes:int -> string -> t
(** Open (creating directories as needed) a store rooted at the given
    path. [mem_bytes] bounds the in-memory front (default 64 MiB; 0
    disables it). Raises [Sys_error] with a plain message if the root
    cannot be created or is not writable. *)

val dir : t -> string

val get : t -> kind:string -> key:string -> string option
val put : t -> kind:string -> key:string -> string -> unit
(** [put] never raises: a write failure (full disk, permissions) only
    forfeits the cache entry. *)

val entry_path : t -> kind:string -> key:string -> string
(** Where [put] lands the entry (exposed for tests and debugging). *)

val hits : t -> int
val misses : t -> int
val puts : t -> int

val finish : t -> unit
(** Append this session's counters to [stats.log] (atomic single-line
    append; idempotent — only the first call writes, and a session with
    no cache traffic writes nothing). *)

(** {1 Maintenance (path-based: no open store required)} *)

type disk_stats = {
  ds_entries : int;
  ds_bytes : int;          (** sum of entry file sizes *)
  ds_sessions : int;       (** lines in [stats.log] *)
  ds_hits : int;           (** summed over sessions *)
  ds_misses : int;
  ds_puts : int;
  ds_last : (int * int * int) option;  (** last session's (hits, misses, puts) *)
}

val disk_stats : string -> disk_stats
(** Stats for the store rooted at a path ([stats.log] totals plus an
    object walk). An empty or absent directory yields all zeros. *)

val stats_json : string -> Support.Json.t
(** {!disk_stats} as one JSON object, including derived [hit_rate]
    fields (cumulative and last-session). *)

val gc : string -> max_bytes:int -> int * int
(** [gc dir ~max_bytes] deletes entries, oldest mtime first, until the
    remaining entry bytes fit the budget; stale temp files are removed
    too. Returns (entries removed, bytes removed). *)

val clear : string -> unit
(** Delete all entries, temp files and [stats.log]. *)
