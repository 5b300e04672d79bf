(* Per-domain buffers keyed by domain-local storage: recording is
   lock-free; the registry (one mutex, touched once per domain) only
   exists so [stop] can find every buffer. Sessions are generations —
   [start] bumps the generation and buffers lazily reset on first use,
   so stale events from a previous session can never leak into a
   report even though domain-local storage outlives it. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_start : float;
  sp_stop : float;
  sp_depth : int;
  sp_parent : string option;
}

type report = {
  r_t0 : float;
  r_wall : float;
  r_spans : span list;
  r_counters : (string * int) list;
}

type buf = {
  b_tid : int;
  mutable b_gen : int;
  mutable b_stack : string list;  (* innermost first *)
  mutable b_base : string list;  (* context path under the stack *)
  mutable b_spans : span list;  (* reverse completion order *)
  b_counters : (string, int) Hashtbl.t;
}

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let session_t0 = Atomic.make 0.
let registry : buf list ref = ref []
let registry_mutex = Mutex.create ()
let now = Unix.gettimeofday

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_gen = -1;
          b_stack = [];
          b_base = [];
          b_spans = [];
          b_counters = Hashtbl.create 16;
        }
      in
      Mutex.protect registry_mutex (fun () -> registry := b :: !registry);
      b)

let buffer () =
  let b = Domain.DLS.get key in
  let gen = Atomic.get generation in
  if b.b_gen <> gen then begin
    b.b_gen <- gen;
    b.b_stack <- [];
    b.b_base <- [];
    b.b_spans <- [];
    Hashtbl.reset b.b_counters
  end;
  b

let enabled () = Atomic.get enabled_flag

let start () =
  Atomic.incr generation;
  Atomic.set session_t0 (now ());
  Atomic.set enabled_flag true

let add name n =
  if Atomic.get enabled_flag then begin
    let b = buffer () in
    Hashtbl.replace b.b_counters name
      (n + Option.value (Hashtbl.find_opt b.b_counters name) ~default:0)
  end

let with_span ?(cat = "flow") name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = buffer () in
    let parent =
      match b.b_stack with
      | p :: _ -> Some p
      | [] -> ( match b.b_base with p :: _ -> Some p | [] -> None)
    in
    let depth = List.length b.b_stack + List.length b.b_base in
    let t_start = now () in
    b.b_stack <- name :: b.b_stack;
    let finish () =
      (match b.b_stack with _ :: tl -> b.b_stack <- tl | [] -> ());
      b.b_spans <-
        {
          sp_name = name;
          sp_cat = cat;
          sp_tid = b.b_tid;
          sp_start = t_start;
          sp_stop = now ();
          sp_depth = depth;
          sp_parent = parent;
        }
        :: b.b_spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let timed ?cat name f =
  let t0 = now () in
  let v = with_span ?cat name f in
  (v, now () -. t0)

type context = string list

let current_context () =
  if not (Atomic.get enabled_flag) then []
  else
    let b = buffer () in
    b.b_stack @ b.b_base

let with_context ctx f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = buffer () in
    let saved_stack = b.b_stack and saved_base = b.b_base in
    b.b_stack <- [];
    b.b_base <- ctx;
    let finish () =
      b.b_stack <- saved_stack;
      b.b_base <- saved_base
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let stop () =
  let t0 = Atomic.get session_t0 in
  let wall = now () -. t0 in
  Atomic.set enabled_flag false;
  let gen = Atomic.get generation in
  let bufs =
    Mutex.protect registry_mutex (fun () -> List.filter (fun b -> b.b_gen = gen) !registry)
  in
  let spans =
    List.concat_map (fun b -> b.b_spans) bufs
    |> List.sort (fun a b ->
           match compare a.sp_start b.sp_start with 0 -> compare a.sp_tid b.sp_tid | c -> c)
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace totals k (v + Option.value (Hashtbl.find_opt totals k) ~default:0))
        b.b_counters)
    bufs;
  let counters = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare in
  { r_t0 = t0; r_wall = wall; r_spans = spans; r_counters = counters }

(* ---- summary sink ---- *)

type row = { row_name : string; row_calls : int; row_total : float; row_self : float }

type agg = { mutable ag_calls : int; mutable ag_total : float; mutable ag_child : float }

let summary r =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some e -> e
    | None ->
      let e = { ag_calls = 0; ag_total = 0.; ag_child = 0. } in
      Hashtbl.replace tbl name e;
      e
  in
  List.iter
    (fun s ->
      let d = s.sp_stop -. s.sp_start in
      let e = get s.sp_name in
      e.ag_calls <- e.ag_calls + 1;
      e.ag_total <- e.ag_total +. d;
      match s.sp_parent with
      | None -> ()
      | Some p ->
        let pe = get p in
        pe.ag_child <- pe.ag_child +. d)
    r.r_spans;
  Hashtbl.fold
    (fun name e acc ->
      if e.ag_calls = 0 then acc (* parent referenced but its span never closed *)
      else
        {
          row_name = name;
          row_calls = e.ag_calls;
          row_total = e.ag_total;
          row_self = Float.max 0. (e.ag_total -. e.ag_child);
        }
        :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.row_total a.row_total with
         | 0 -> compare a.row_name b.row_name
         | c -> c)

let counter r name = Option.value (List.assoc_opt name r.r_counters) ~default:0

let pp_summary fmt r =
  Format.fprintf fmt "[trace] wall %.3fs, %d spans, %d counters@\n" r.r_wall
    (List.length r.r_spans) (List.length r.r_counters);
  Format.fprintf fmt "[trace] %-36s %7s %12s %12s@\n" "stage" "calls" "total(ms)" "self(ms)";
  List.iter
    (fun row ->
      Format.fprintf fmt "[trace] %-36s %7d %12.2f %12.2f@\n" row.row_name row.row_calls
        (row.row_total *. 1000.) (row.row_self *. 1000.))
    (summary r);
  if r.r_counters <> [] then begin
    Format.fprintf fmt "[trace] %-36s %12s@\n" "counter" "value";
    List.iter
      (fun (k, v) -> Format.fprintf fmt "[trace] %-36s %12d@\n" k v)
      r.r_counters
  end

(* ---- Chrome trace-event sink ---- *)

let to_chrome_json r =
  let int i = Json.Num (float_of_int i) in
  let span s =
    Json.Obj
      [
        ("name", Json.Str s.sp_name);
        ("cat", Json.Str s.sp_cat);
        ("ph", Json.Str "X");
        ("ts", Json.Num ((s.sp_start -. r.r_t0) *. 1e6));
        ("dur", Json.Num ((s.sp_stop -. s.sp_start) *. 1e6));
        ("pid", int 1);
        ("tid", int s.sp_tid);
        ( "args",
          Json.Obj
            [
              ("parent", match s.sp_parent with None -> Json.Null | Some p -> Json.Str p);
              ("depth", int s.sp_depth);
            ] );
      ]
  in
  let counter (k, v) =
    Json.Obj
      [
        ("name", Json.Str k);
        ("ph", Json.Str "C");
        ("ts", Json.Num (r.r_wall *. 1e6));
        ("pid", int 1);
        ("tid", int 0);
        ("args", Json.Obj [ ("value", int v) ]);
      ]
  in
  let row x =
    Json.Obj
      [
        ("name", Json.Str x.row_name);
        ("calls", int x.row_calls);
        ("total_ms", Json.Num (x.row_total *. 1000.));
        ("self_ms", Json.Num (x.row_self *. 1000.));
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map span r.r_spans @ List.map counter r.r_counters));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("wall_s", Json.Num r.r_wall);
            ("counters", Json.Obj (List.map (fun (k, v) -> (k, int v)) r.r_counters));
            ("summary", Json.Arr (List.map row (summary r)));
          ] );
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  end

let ensure_parent_dir path = mkdir_p (Filename.dirname path)

let write_chrome_json r path =
  ensure_parent_dir path;
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_chrome_json r)))
