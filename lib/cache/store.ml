module Trace = Support.Trace

let format_version = 1

(* Bump the "m" number whenever any cached value's layout or meaning
   changes (Lutgraph fields, mapper cost function, MILP solution tuple,
   unit-delay semantics, and for the [sta] kind the Placeroute.Sta report
   fields, the annealer in Placeroute.Place and the grid and wire-delay
   model of Placeroute.Arch). The [tv-narrow] kind stores Tv.Simdiff's
   verdict as a lint report: bump on a change to what it compares or
   reports, or to its rounds, seed or config (its key names only their
   values). The [sim] kind stores what Sim.Elastic reports: bump on a
   change to the simulator's semantics. The [model] kind stores
   Timing.Lut_map's mapping and Timing.Generate's model (with the
   routing surcharge): bump on a change to either, or to Timing.Model's
   fields. The OCaml version rides along because payloads are
   Marshal-encoded and the marshal format is compiler-dependent. *)
let model_version = "m3-ocaml" ^ Sys.ocaml_version

type t = {
  root : string;
  mem : Lru.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  puts : int Atomic.t;
  bytes : int Atomic.t;  (* payload bytes served on hits + written on puts *)
  tmp_seq : int Atomic.t;
  finished : bool Atomic.t;
}

let dir t = t.root

let ( / ) = Filename.concat

let mkdir_p path =
  let rec make p =
    if not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      try Unix.mkdir p 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error (e, _, _) ->
        raise (Sys_error (Printf.sprintf "%s: %s" p (Unix.error_message e)))
    end
  in
  make path

let open_dir ?(mem_bytes = 64 * 1024 * 1024) root =
  mkdir_p (root / "objects");
  mkdir_p (root / "tmp");
  (* fail now, with a clean message, rather than on the first put *)
  if not (Sys.is_directory (root / "objects")) then
    raise (Sys_error (Printf.sprintf "%s: not a directory" (root / "objects")));
  {
    root;
    mem = Lru.create ~max_bytes:mem_bytes;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    puts = Atomic.make 0;
    bytes = Atomic.make 0;
    tmp_seq = Atomic.make 0;
    finished = Atomic.make false;
  }

let entry_id ~kind ~key = Sha256.hex (kind ^ "\x00" ^ key)

let path_of_id root id =
  root / "objects" / String.sub id 0 2 / String.sub id 2 2 / id

let entry_path t ~kind ~key = path_of_id t.root (entry_id ~kind ~key)

(* ---- entry encoding ---- *)

let header ~kind payload =
  Printf.sprintf "repro-cache %d %s %s\n%s %d\n" format_version kind model_version
    (Sha256.hex payload) (String.length payload)

(* Parse and verify an entry; any deviation is a miss. *)
let decode ~kind contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some i1 -> (
    match String.index_from_opt contents (i1 + 1) '\n' with
    | None -> None
    | Some i2 ->
      let l1 = String.sub contents 0 i1 in
      let l2 = String.sub contents (i1 + 1) (i2 - i1 - 1) in
      let payload = String.sub contents (i2 + 1) (String.length contents - i2 - 1) in
      let expect_l1 = Printf.sprintf "repro-cache %d %s %s" format_version kind model_version in
      if l1 <> expect_l1 then None
      else
        match String.split_on_char ' ' l2 with
        | [ digest; len ]
          when int_of_string_opt len = Some (String.length payload)
               && String.equal digest (Sha256.hex payload) ->
          Some payload
        | _ -> None)

let read_entry ~kind path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
    match decode ~kind contents with
    | Some payload -> Some payload
    | None ->
      (* corrupted, truncated, or written by an incompatible version:
         drop it so the rewrite is not blocked by a stale file *)
      (try Sys.remove path with Sys_error _ -> ());
      None)

let record_hit t payload =
  Atomic.incr t.hits;
  Atomic.fetch_and_add t.bytes (String.length payload) |> ignore;
  Trace.add "cache.hit" 1;
  Trace.add "cache.bytes" (String.length payload)

let get t ~kind ~key =
  let id = entry_id ~kind ~key in
  match Lru.find t.mem id with
  | Some payload ->
    record_hit t payload;
    Some payload
  | None -> (
    let path = path_of_id t.root id in
    match read_entry ~kind path with
    | Some payload ->
      record_hit t payload;
      Lru.add t.mem id payload;
      (* refresh mtime: gc evicts oldest-read first *)
      (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
      Some payload
    | None ->
      Atomic.incr t.misses;
      Trace.add "cache.miss" 1;
      None)

let put t ~kind ~key payload =
  let id = entry_id ~kind ~key in
  let path = path_of_id t.root id in
  (try
     mkdir_p (Filename.dirname path);
     let tmp =
       t.root / "tmp"
       / Printf.sprintf "%s.%d.%d" id (Unix.getpid ()) (Atomic.fetch_and_add t.tmp_seq 1)
     in
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc (header ~kind payload);
         Out_channel.output_string oc payload);
     Sys.rename tmp path
   with Sys_error _ | Unix.Unix_error _ -> ());
  Atomic.incr t.puts;
  Atomic.fetch_and_add t.bytes (String.length payload) |> ignore;
  Trace.add "cache.bytes" (String.length payload);
  Lru.add t.mem id payload

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let puts t = Atomic.get t.puts

let finish t =
  if not (Atomic.exchange t.finished true) then begin
    let h = hits t and m = misses t and p = puts t and b = Atomic.get t.bytes in
    if h + m + p > 0 then
      try
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 (t.root / "stats.log")
        in
        (* one small write: atomic enough for concurrent appenders *)
        output_string oc (Printf.sprintf "hits %d misses %d puts %d bytes %d\n" h m p b);
        close_out oc
      with Sys_error _ -> ()
  end

(* ---- path-based maintenance ---- *)

let list_entries root =
  let objects = root / "objects" in
  if not (Sys.file_exists objects) then []
  else
    let subdirs p = try Array.to_list (Sys.readdir p) with Sys_error _ -> [] in
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            List.filter_map
              (fun f ->
                let path = objects / a / b / f in
                match Unix.stat path with
                | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                  Some (path, st_size, st_mtime)
                | _ -> None
                | exception Unix.Unix_error _ -> None)
              (subdirs (objects / a / b)))
          (subdirs (objects / a)))
      (subdirs objects)

type disk_stats = {
  ds_entries : int;
  ds_bytes : int;
  ds_sessions : int;
  ds_hits : int;
  ds_misses : int;
  ds_puts : int;
  ds_last : (int * int * int) option;
}

let parse_session line =
  match String.split_on_char ' ' line with
  | "hits" :: h :: "misses" :: m :: "puts" :: p :: _ -> (
    match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt p) with
    | Some h, Some m, Some p -> Some (h, m, p)
    | _ -> None)
  | _ -> None

let disk_stats root =
  let entries = list_entries root in
  let sessions =
    match In_channel.with_open_text (root / "stats.log") In_channel.input_all with
    | exception Sys_error _ -> []
    | contents ->
      String.split_on_char '\n' contents
      |> List.filter (fun l -> l <> "")
      |> List.filter_map parse_session
  in
  let h, m, p =
    List.fold_left (fun (h, m, p) (h', m', p') -> (h + h', m + m', p + p')) (0, 0, 0) sessions
  in
  {
    ds_entries = List.length entries;
    ds_bytes = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries;
    ds_sessions = List.length sessions;
    ds_hits = h;
    ds_misses = m;
    ds_puts = p;
    ds_last = (match List.rev sessions with last :: _ -> Some last | [] -> None);
  }

let rate h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let stats_json root =
  let module J = Support.Json in
  let int i = J.Num (float_of_int i) in
  let s = disk_stats root in
  let last =
    match s.ds_last with
    | None -> J.Null
    | Some (h, m, p) ->
      J.Obj
        [ ("hits", int h); ("misses", int m); ("puts", int p); ("hit_rate", J.Num (rate h m)) ]
  in
  J.Obj
    [
      ("dir", J.Str root);
      ("entries", int s.ds_entries);
      ("bytes", int s.ds_bytes);
      ("sessions", int s.ds_sessions);
      ("hits", int s.ds_hits);
      ("misses", int s.ds_misses);
      ("puts", int s.ds_puts);
      ("hit_rate", J.Num (rate s.ds_hits s.ds_misses));
      ("last_session", last);
    ]

let remove_tmp root =
  let tmp = root / "tmp" in
  if Sys.file_exists tmp then
    Array.iter
      (fun f -> try Sys.remove (tmp / f) with Sys_error _ -> ())
      (try Sys.readdir tmp with Sys_error _ -> [||])

let gc root ~max_bytes =
  remove_tmp root;
  let entries =
    list_entries root |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
    (* oldest mtime first; hits refresh mtime, so this approximates LRU *)
  in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
  let rec drop entries total removed freed =
    if total <= max_bytes then (removed, freed)
    else
      match entries with
      | [] -> (removed, freed)
      | (path, sz, _) :: rest ->
        (try Sys.remove path with Sys_error _ -> ());
        drop rest (total - sz) (removed + 1) (freed + sz)
  in
  drop entries total 0 0

let clear root =
  remove_tmp root;
  List.iter (fun (path, _, _) -> try Sys.remove path with Sys_error _ -> ()) (list_entries root);
  (try Sys.remove (root / "stats.log") with Sys_error _ -> ());
  (* prune the now-empty shard directories *)
  let objects = root / "objects" in
  if Sys.file_exists objects then
    Array.iter
      (fun a ->
        let pa = objects / a in
        (try Array.iter (fun b -> try Unix.rmdir (pa / b) with Unix.Unix_error _ -> ())
               (Sys.readdir pa)
         with Sys_error _ -> ());
        try Unix.rmdir pa with Unix.Unix_error _ -> ())
      (try Sys.readdir objects with Sys_error _ -> [||])
