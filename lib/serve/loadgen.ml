module J = Support.Json

type result = {
  l_sent : int;
  l_completed : int;
  l_errors : int;
  l_rejected : int;
  l_cancelled : int;
  l_wall_s : float;
  l_mean_ms : float;
  l_p50_ms : float;
  l_p99_ms : float;
  l_throughput : float;
  l_hits : int;
  l_misses : int;
  l_digests : (string * string) list;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) rank))

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let read_event ic =
  match input_line ic with
  | exception End_of_file -> failwith "loadgen: server closed the connection"
  | line -> (
    match Protocol.event_of_line line with
    | Ok ev -> ev
    | Error msg -> failwith (Printf.sprintf "loadgen: bad event line (%s): %s" msg line))

(* Ask for server stats and skip any in-flight events (none are expected
   when called outside the send loop, but interleaving is legal). *)
let query_stats ic oc =
  send oc (J.to_string (J.Obj [ ("stats", J.Bool true) ]));
  let rec wait () =
    match read_event ic with Protocol.Stats_reply s -> s | _ -> wait ()
  in
  wait ()

let run ?(window = 4) ~socket (requests : Protocol.request list) =
  if window < 1 then invalid_arg "Loadgen.run: window must be >= 1";
  let fd, ic, oc = connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let before = query_stats ic oc in
  let reqs = Array.of_list requests in
  let total = Array.length reqs in
  let sent_at : (string, float) Hashtbl.t = Hashtbl.create total in
  let digests : (string, string) Hashtbl.t = Hashtbl.create total in
  let latencies = ref [] in
  let completed = ref 0 and errors = ref 0 and rejected = ref 0 and cancelled = ref 0 in
  let next = ref 0 and outstanding = ref 0 in
  let t0 = Unix.gettimeofday () in
  let finish_one id =
    decr outstanding;
    match Hashtbl.find_opt sent_at id with
    | Some t -> latencies := (Unix.gettimeofday () -. t) *. 1000. :: !latencies
    | None -> ()
  in
  (* windowed pipelining: keep up to [window] requests in flight so the
     daemon's pool stays busy without tripping its admission limit *)
  while !completed + !errors + !rejected + !cancelled < total do
    while !next < total && !outstanding < window do
      let r = reqs.(!next) in
      Hashtbl.replace sent_at r.Protocol.id (Unix.gettimeofday ());
      send oc (Protocol.request_to_line r);
      incr next;
      incr outstanding
    done;
    match read_event ic with
    | Protocol.Done { id; result; _ } ->
      Hashtbl.replace digests id result.Protocol.r_digest;
      incr completed;
      finish_one id
    | Protocol.Failed { id = Some id; _ } when Hashtbl.mem sent_at id ->
      incr errors;
      finish_one id
    | Protocol.Failed _ -> incr errors
    | Protocol.Rejected { id; _ } ->
      incr rejected;
      finish_one id
    | Protocol.Cancelled { id } ->
      incr cancelled;
      finish_one id
    | Protocol.Accepted _ | Protocol.Status _ | Protocol.Stats_reply _ | Protocol.Bye ->
      ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let after = query_stats ic oc in
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let mean =
    if Array.length lats = 0 then 0.
    else Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats)
  in
  {
    l_sent = !next;
    l_completed = !completed;
    l_errors = !errors;
    l_rejected = !rejected;
    l_cancelled = !cancelled;
    l_wall_s = wall;
    l_mean_ms = mean;
    l_p50_ms = percentile lats 0.50;
    l_p99_ms = percentile lats 0.99;
    l_throughput = (if wall > 0. then float_of_int !completed /. wall else 0.);
    l_hits = after.Protocol.s_cache_hits - before.Protocol.s_cache_hits;
    l_misses = after.Protocol.s_cache_misses - before.Protocol.s_cache_misses;
    l_digests =
      Array.to_list reqs
      |> List.filter_map (fun r ->
             Option.map
               (fun d -> (r.Protocol.id, d))
               (Hashtbl.find_opt digests r.Protocol.id));
  }

let shutdown ~socket =
  let fd, ic, oc = connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc (J.to_string (J.Obj [ ("shutdown", J.Bool true) ]));
  let rec wait () = match read_event ic with Protocol.Bye -> () | _ -> wait () in
  (* the daemon drains before it byes; treat a dropped connection as done *)
  try wait () with Failure _ -> ()

let result_to_json r =
  J.Obj
    [
      ("sent", J.Num (float_of_int r.l_sent));
      ("completed", J.Num (float_of_int r.l_completed));
      ("errors", J.Num (float_of_int r.l_errors));
      ("rejected", J.Num (float_of_int r.l_rejected));
      ("cancelled", J.Num (float_of_int r.l_cancelled));
      ("wall_s", J.Num r.l_wall_s);
      ("mean_ms", J.Num r.l_mean_ms);
      ("p50_ms", J.Num r.l_p50_ms);
      ("p99_ms", J.Num r.l_p99_ms);
      ("throughput_rps", J.Num r.l_throughput);
      ("cache_hits", J.Num (float_of_int r.l_hits));
      ("cache_misses", J.Num (float_of_int r.l_misses));
      ("hit_rate", J.Num (Protocol.hit_rate r.l_hits r.l_misses));
    ]

(* ---- sequential one-shot comparison ---- *)

type oneshot = { o_wall_s : float; o_digests : (string * string) list }

(* Run each request through the one-shot CLI (`regulate flow <kernel>
   --digest`), sequentially, as a cold process each time — the thing a
   user without the daemon would do. Only named-kernel requests can go
   this way. *)
let run_oneshot ~exe (requests : Protocol.request list) =
  let t0 = Unix.gettimeofday () in
  let digests =
    List.map
      (fun (r : Protocol.request) ->
        let kernel =
          match r.Protocol.kernel with
          | Some k -> k
          | None -> invalid_arg "Loadgen.run_oneshot: inline-source request"
        in
        let cmd =
          String.concat " "
            ([ Filename.quote exe; "flow"; Filename.quote kernel; "--digest" ]
            @ [ "--flavor"; Protocol.flavor_name r.Protocol.flavor ]
            @ (match r.Protocol.levels with
              | Some l -> [ "--levels"; string_of_int l ]
              | None -> [])
            @ (match r.Protocol.milp_nodes with
              | Some n -> [ "--milp-nodes"; string_of_int n ]
              | None -> [])
            @
            match r.Protocol.milp_budget_s with
            | Some b -> [ "--milp-budget-s"; Printf.sprintf "%g" b ]
            | None -> [])
        in
        let ic = Unix.open_process_in cmd in
        let digest = ref None in
        (try
           while true do
             let line = input_line ic in
             if String.length line > 7 && String.sub line 0 7 = "digest=" then
               digest := Some (String.sub line 7 (String.length line - 7))
           done
         with End_of_file -> ());
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith (Printf.sprintf "loadgen: one-shot run failed: %s" cmd));
        match !digest with
        | Some d -> (r.Protocol.id, d)
        | None -> failwith (Printf.sprintf "loadgen: no digest line from: %s" cmd))
      requests
  in
  { o_wall_s = Unix.gettimeofday () -. t0; o_digests = digests }
