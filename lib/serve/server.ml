type config = {
  jobs : int;
  queue_limit : int;
  milp_nodes : int option;
  milp_budget_s : float option;
  cache : Cache.Session.t;
  flow : Core.Flow.config;
}

let default_config =
  {
    jobs = 1;
    queue_limit = 8;
    milp_nodes = None;
    milp_budget_s = None;
    cache = Cache.Session.disabled;
    flow = Core.Flow.default_config;
  }

type runner = Core.Session.t -> Protocol.request -> Protocol.completion

type t = {
  cfg : config;
  pool : Support.Pool.t;
  runner : runner;
  (* admission counter: accepted-but-unfinished compiles (queued or
     running). Only the dispatch domain admits, so the bound check is
     deterministic; workers only ever decrement. *)
  inflight : int Atomic.t;
  served : int Atomic.t;
  errors : int Atomic.t;
  rejected : int Atomic.t;
  cancelled : int Atomic.t;
  cancels : (string, bool Atomic.t) Hashtbl.t;
  cancels_mu : Mutex.t;
  accepting : bool Atomic.t;
  started : float;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let flow_config cfg (req : Protocol.request) =
  match req.levels with Some l -> Core.Flow.with_levels l cfg.flow | None -> cfg.flow

(* Key part for whole-completion memoisation: every input that can change
   the result — the request minus its id (program, flavor, overrides),
   and the effective flow config with the session-effective MILP
   budgets. Both are marshalled whole, so a config field added later is
   part of the key without anyone listing it; every field is a scalar
   or a string, and without sharing the encoding is a function of the
   values alone.
   The program is named, not hashed: compiling a kernel on every request
   would put the front end on the memo-hit path. Two requests with the
   same key are the same compilation, so a warm daemon answers from the
   store without re-running the flow (that is the point of a long-lived
   service; the sub-step memos inside the flow only amortise solver
   work, not the whole pipeline). *)
let completion_key cfg session (req : Protocol.request) =
  let fc = flow_config cfg req in
  let fc = { fc with Core.Flow.milp = Core.Session.milp_config session fc.Core.Flow.milp } in
  Marshal.to_string ({ req with Protocol.id = "" }, fc) [ Marshal.No_sharing ]

(* The real compile path. A named kernel runs the full evaluation
   harness (flow + P&R + simulation), exactly the work the one-shot
   `regulate flow` command does, so daemon-vs-CLI throughput comparisons
   are fair. Inline source runs the flow only: ad-hoc programs carry no
   reference workload to simulate. The whole completion is memoised
   under the session's cache, so a repeat of an identical request on a
   warm daemon is a store read, not a recompilation. *)
let default_runner cfg : runner =
 fun session req ->
  let compute () =
    let config = flow_config cfg req in
    match (req.kernel, req.source) with
    | Some name, _ ->
      let kernel = Hls.Kernels.by_name name in
      let metrics, outcome =
        Core.Experiment.run_flow ~config ~session ~flavor:req.flavor kernel
      in
      Protocol.completion_of_outcome ~flavor:req.flavor
        ~measured:(Protocol.measured_of_metrics metrics) outcome
    | None, Some src ->
      let g = Hls.Compile.compile (Hls.Parser.parse src) in
      Protocol.completion_of_outcome ~flavor:req.flavor
        (Core.Flow.run ~config ~session req.flavor g)
    | None, None -> assert false (* command_of_line requires one *)
  in
  Cache.Session.memo session.Core.Session.cache ~kind:"serve.completion"
    ~key:(fun () -> [ completion_key cfg session req ])
    compute

let create ?runner cfg =
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if cfg.queue_limit < 1 then invalid_arg "Server.create: queue_limit must be >= 1";
  {
    cfg;
    pool = Support.Pool.create ~jobs:cfg.jobs;
    runner = (match runner with Some r -> r | None -> default_runner cfg);
    inflight = Atomic.make 0;
    served = Atomic.make 0;
    errors = Atomic.make 0;
    rejected = Atomic.make 0;
    cancelled = Atomic.make 0;
    cancels = Hashtbl.create 16;
    cancels_mu = Mutex.create ();
    accepting = Atomic.make true;
    started = Unix.gettimeofday ();
  }

let stats t =
  let hits, misses =
    match Cache.Session.store t.cfg.cache with
    | Some s -> (Cache.Store.hits s, Cache.Store.misses s)
    | None -> (0, 0)
  in
  {
    Protocol.s_served = Atomic.get t.served;
    s_errors = Atomic.get t.errors;
    s_rejected = Atomic.get t.rejected;
    s_cancelled = Atomic.get t.cancelled;
    s_inflight = Atomic.get t.inflight;
    s_cache_hits = hits;
    s_cache_misses = misses;
    s_uptime_s = Unix.gettimeofday () -. t.started;
  }

let request_cancel t id =
  match with_lock t.cancels_mu (fun () -> Hashtbl.find_opt t.cancels id) with
  | Some flag ->
    Atomic.set flag true;
    true
  | None -> false

let run_compile t ~emit (req : Protocol.request) flag =
  let t0 = Unix.gettimeofday () in
  let finish ev =
    with_lock t.cancels_mu (fun () -> Hashtbl.remove t.cancels req.id);
    Atomic.decr t.inflight;
    emit ev
  in
  let session =
    Core.Session.make ~cache:t.cfg.cache
      ?milp_nodes:(match req.milp_nodes with Some _ as n -> n | None -> t.cfg.milp_nodes)
      ?milp_budget_s:
        (match req.milp_budget_s with Some _ as b -> b | None -> t.cfg.milp_budget_s)
      ~cancelled:(fun () -> Atomic.get flag)
      ~on_status:(fun stage -> emit (Protocol.Status { id = req.id; stage }))
      ()
  in
  match t.runner session req with
  | result ->
    Atomic.incr t.served;
    finish
      (Protocol.Done
         { id = req.id; wall_ms = (Unix.gettimeofday () -. t0) *. 1000.; result })
  | exception Core.Session.Cancelled ->
    Atomic.incr t.cancelled;
    finish (Protocol.Cancelled { id = req.id })
  | exception exn ->
    Atomic.incr t.errors;
    let code, message = Protocol.error_of_exn exn in
    finish (Protocol.Failed { id = Some req.id; code; message })

let submit_compile t ~emit (req : Protocol.request) =
  if not (Atomic.get t.accepting) then begin
    Atomic.incr t.rejected;
    emit
      (Protocol.Rejected
         { id = req.id; code = "shutting-down"; message = "server is draining" })
  end
  else if Atomic.get t.inflight >= t.cfg.queue_limit then begin
    Atomic.incr t.rejected;
    emit
      (Protocol.Rejected
         {
           id = req.id;
           code = "server-busy";
           message =
             Printf.sprintf "queue full: %d requests in flight (limit %d)"
               (Atomic.get t.inflight) t.cfg.queue_limit;
         })
  end
  else begin
    let flag = Atomic.make false in
    let fresh =
      with_lock t.cancels_mu (fun () ->
          if Hashtbl.mem t.cancels req.id then false
          else begin
            Hashtbl.replace t.cancels req.id flag;
            true
          end)
    in
    if not fresh then begin
      Atomic.incr t.rejected;
      emit
        (Protocol.Rejected
           {
             id = req.id;
             code = "duplicate-id";
             message = "a request with this id is already in flight";
           })
    end
    else begin
      Atomic.incr t.inflight;
      emit (Protocol.Accepted { id = req.id; inflight = Atomic.get t.inflight });
      (* the worker emits its own terminal event; the future is dropped
         and drain waits on the inflight counter instead, so a stream of
         requests does not accumulate futures *)
      ignore (Support.Pool.submit t.pool (fun () -> run_compile t ~emit req flag))
    end
  end

let handle_line t ~emit line =
  if String.trim line = "" then `Continue
  else
    match Protocol.command_of_line line with
    | Error msg ->
      Atomic.incr t.errors;
      emit (Protocol.Failed { id = None; code = "bad-request"; message = msg });
      `Continue
    | Ok (Protocol.Compile req) ->
      submit_compile t ~emit req;
      `Continue
    | Ok (Protocol.Cancel id) ->
      if not (request_cancel t id) then
        emit
          (Protocol.Failed
             { id = Some id; code = "not-in-flight"; message = "no such in-flight request" });
      `Continue
    | Ok Protocol.Stats ->
      emit (Protocol.Stats_reply (stats t));
      `Continue
    | Ok Protocol.Shutdown ->
      Atomic.set t.accepting false;
      `Stop

let drain t =
  (* reject-before-drain is already in force (accepting = false when the
     transport stops); wait for workers to finish what was admitted *)
  Atomic.set t.accepting false;
  while Atomic.get t.inflight > 0 do
    Unix.sleepf 0.002
  done;
  Support.Pool.shutdown t.pool;
  Cache.Session.finish t.cfg.cache

let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ()

(* ---- stdio transport ---- *)

let serve_channels t ic oc =
  ignore_sigpipe ();
  let mu = Mutex.create () in
  let dead = ref false in
  let emit ev =
    with_lock mu (fun () ->
        if not !dead then
          try
            output_string oc (Protocol.event_to_line ev);
            output_char oc '\n';
            flush oc
          with Sys_error _ -> dead := true)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> ( match handle_line t ~emit line with `Continue -> loop () | `Stop -> ())
  in
  loop ();
  drain t;
  emit Protocol.Bye

(* ---- unix-socket transport ---- *)

type client = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;            (* partial line from the last read *)
  c_mu : Mutex.t;              (* serialises worker writes to this client *)
  c_dead : bool ref;
  c_ids : (string, unit) Hashtbl.t;  (* this client's in-flight request ids *)
}

let client_emit t c ev =
  (* transport-level bookkeeping rides on the event stream itself: an
     accepted id belongs to this client until its terminal event, so a
     disconnect knows exactly which compiles to cancel *)
  with_lock c.c_mu (fun () ->
      (match ev with
      | Protocol.Accepted { id; _ } -> Hashtbl.replace c.c_ids id ()
      | Protocol.Done { id; _ }
      | Protocol.Cancelled { id }
      | Protocol.Rejected { id; _ }
      | Protocol.Failed { id = Some id; _ } ->
        Hashtbl.remove c.c_ids id
      | _ -> ());
      if not !(c.c_dead) then
        let line = Protocol.event_to_line ev ^ "\n" in
        try
          let n = String.length line in
          let rec push off =
            if off < n then push (off + Unix.write_substring c.c_fd line off (n - off))
          in
          push 0
        with Unix.Unix_error _ | Sys_error _ -> c.c_dead := true);
  ignore t

let disconnect t c =
  c.c_dead := true;
  (* a client that vanished mid-request takes its pending work with it:
     cancel everything it still had in flight *)
  let ids = with_lock c.c_mu (fun () -> Hashtbl.fold (fun id () acc -> id :: acc) c.c_ids []) in
  List.iter (fun id -> ignore (request_cancel t id)) ids;
  try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let feed_lines t c stop =
  (* split the buffered bytes into complete lines and dispatch each *)
  let data = Buffer.contents c.c_buf in
  Buffer.clear c.c_buf;
  let n = String.length data in
  let rec go start =
    match String.index_from_opt data start '\n' with
    | None -> Buffer.add_substring c.c_buf data start (n - start)
    | Some nl ->
      let line = String.sub data start (nl - start) in
      (match handle_line t ~emit:(client_emit t c) line with
      | `Continue -> ()
      | `Stop -> stop := true);
      go (nl + 1)
  in
  if n > 0 then go 0

let serve_socket t path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 64;
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 8 in
  let stop = ref false in
  let chunk = Bytes.create 65536 in
  while not !stop do
    let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let readable, _, _ =
      try Unix.select fds [] [] 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = srv then begin
          match Unix.accept srv with
          | cfd, _ ->
            Hashtbl.replace clients cfd
              {
                c_fd = cfd;
                c_buf = Buffer.create 256;
                c_mu = Mutex.create ();
                c_dead = ref false;
                c_ids = Hashtbl.create 4;
              }
          | exception Unix.Unix_error _ -> ()
        end
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some c -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              disconnect t c;
              Hashtbl.remove clients fd
            | n ->
              Buffer.add_subbytes c.c_buf chunk 0 n;
              feed_lines t c stop
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
              ->
              disconnect t c;
              Hashtbl.remove clients fd))
      readable
  done;
  Atomic.set t.accepting false;
  drain t;
  Hashtbl.iter
    (fun _ c ->
      client_emit t c Protocol.Bye;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
