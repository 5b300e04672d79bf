module J = Support.Json

type flavor = Core.Flow.flavor

let flavor_name = Core.Flow.flavor_name

type request = {
  id : string;
  kernel : string option;
  source : string option;
  flavor : flavor;
  levels : int option;
  milp_nodes : int option;
  milp_budget_s : float option;
}

type command = Compile of request | Cancel of string | Stats | Shutdown

(* ---- requests ---- *)

let request_to_json (r : request) =
  let opt k f v rest = match v with None -> rest | Some v -> (k, f v) :: rest in
  J.Obj
    (("id", J.Str r.id)
     :: opt "kernel" (fun s -> J.Str s) r.kernel
          (opt "source" (fun s -> J.Str s) r.source
             (("flavor", J.Str (flavor_name r.flavor))
              :: opt "levels" (fun i -> J.Num (float_of_int i)) r.levels
                   (opt "milp_nodes" (fun i -> J.Num (float_of_int i)) r.milp_nodes
                      (opt "milp_budget_s" (fun f -> J.Num f) r.milp_budget_s [])))))

let request_to_line r = J.to_string (request_to_json r)

let ( let* ) = Result.bind

let parse_request j =
  let* id =
    match J.str_mem "id" j with
    | Some id when id <> "" -> Ok id
    | Some _ -> Error "empty request id"
    | None -> (
      match J.mem "id" j with
      | Some _ -> Error "request id must be a non-empty string"
      | None -> Error "missing request id")
  in
  let* kernel, source =
    match (J.mem "kernel" j, J.mem "source" j) with
    | Some _, Some _ -> Error "request has both \"kernel\" and \"source\""
    | None, None -> Error "request needs a \"kernel\" name or inline \"source\""
    | Some k, None -> (
      match J.str k with
      | Some k when k <> "" -> Ok (Some k, None)
      | _ -> Error "\"kernel\" must be a non-empty string")
    | None, Some s -> (
      match J.str s with
      | Some s when s <> "" -> Ok (None, Some s)
      | _ -> Error "\"source\" must be a non-empty string")
  in
  let* flavor =
    match J.mem "flavor" j with
    | None -> Ok `Iterative
    | Some v -> (
      match Option.bind (J.str v) (fun f -> List.assoc_opt f Core.Flow.flavors) with
      | Some flavor -> Ok flavor
      | None -> Error "\"flavor\" must be \"iterative\" or \"baseline\"")
  in
  let pos_int k =
    match J.mem k j with
    | None -> Ok None
    | Some v -> (
      match J.int v with
      | Some i when i >= 1 -> Ok (Some i)
      | _ -> Error (Printf.sprintf "%S must be an integer >= 1" k))
  in
  let* levels = pos_int "levels" in
  let* milp_nodes = pos_int "milp_nodes" in
  let* milp_budget_s =
    match J.mem "milp_budget_s" j with
    | None -> Ok None
    | Some v -> (
      match J.num v with
      | Some f when f > 0. -> Ok (Some f)
      | _ -> Error "\"milp_budget_s\" must be a number > 0")
  in
  Ok (Compile { id; kernel; source; flavor; levels; milp_nodes; milp_budget_s })

let command_of_line line =
  let* j =
    match J.of_string line with
    | Ok (J.Obj _ as j) -> Ok j
    | Ok _ -> Error "request must be a JSON object"
    | Error msg -> Error ("bad JSON: " ^ msg)
  in
  if J.bool_mem "shutdown" j = Some true then Ok Shutdown
  else if J.bool_mem "stats" j = Some true then Ok Stats
  else if J.bool_mem "cancel" j = Some true then
    match J.str_mem "id" j with
    | Some id when id <> "" -> Ok (Cancel id)
    | _ -> Error "cancel needs the \"id\" of the in-flight request"
  else parse_request j

(* ---- responses ---- *)

type measured = {
  m_cp : float;
  m_cycles : int;
  m_exec_ns : float;
  m_luts : int;
  m_ffs : int;
  m_value_ok : bool;
}

type completion = {
  r_digest : string;
  r_flavor : flavor;
  r_levels : int;
  r_met_target : bool;
  r_buffers : int;
  r_iterations : int;
  r_phi : float;
  r_certified : float;
  r_measured : measured option;
}

type stats = {
  s_served : int;
  s_errors : int;
  s_rejected : int;
  s_cancelled : int;
  s_inflight : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_uptime_s : float;
}

type event =
  | Accepted of { id : string; inflight : int }
  | Rejected of { id : string; code : string; message : string }
  | Status of { id : string; stage : string }
  | Done of { id : string; wall_ms : float; result : completion }
  | Failed of { id : string option; code : string; message : string }
  | Cancelled of { id : string }
  | Stats_reply of stats
  | Bye

let hit_rate hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

let event_to_json = function
  | Accepted { id; inflight } ->
    J.Obj
      [
        ("id", J.Str id);
        ("event", J.Str "accepted");
        ("inflight", J.Num (float_of_int inflight));
      ]
  | Rejected { id; code; message } ->
    J.Obj
      [
        ("id", J.Str id);
        ("event", J.Str "rejected");
        ("code", J.Str code);
        ("message", J.Str message);
      ]
  | Status { id; stage } ->
    J.Obj [ ("id", J.Str id); ("event", J.Str "status"); ("stage", J.Str stage) ]
  | Done { id; wall_ms; result = r } ->
    let base =
      [
        ("id", J.Str id);
        ("event", J.Str "done");
        ("flavor", J.Str (flavor_name r.r_flavor));
        ("digest", J.Str r.r_digest);
        ("levels", J.Num (float_of_int r.r_levels));
        ("met_target", J.Bool r.r_met_target);
        ("buffers", J.Num (float_of_int r.r_buffers));
        ("iterations", J.Num (float_of_int r.r_iterations));
        ("phi", J.Num r.r_phi);
        ("certified_bound", J.Num r.r_certified);
        ("wall_ms", J.Num wall_ms);
      ]
    in
    let measured =
      match r.r_measured with
      | None -> []
      | Some m ->
        [
          ( "measured",
            J.Obj
              [
                ("cp_ns", J.Num m.m_cp);
                ("cycles", J.Num (float_of_int m.m_cycles));
                ("exec_ns", J.Num m.m_exec_ns);
                ("luts", J.Num (float_of_int m.m_luts));
                ("ffs", J.Num (float_of_int m.m_ffs));
                ("value_ok", J.Bool m.m_value_ok);
              ] );
        ]
    in
    J.Obj (base @ measured)
  | Failed { id; code; message } ->
    J.Obj
      [
        ("id", match id with Some id -> J.Str id | None -> J.Null);
        ("event", J.Str "error");
        ("code", J.Str code);
        ("message", J.Str message);
      ]
  | Cancelled { id } -> J.Obj [ ("id", J.Str id); ("event", J.Str "cancelled") ]
  | Stats_reply s ->
    J.Obj
      [
        ("event", J.Str "stats");
        ("served", J.Num (float_of_int s.s_served));
        ("errors", J.Num (float_of_int s.s_errors));
        ("rejected", J.Num (float_of_int s.s_rejected));
        ("cancelled", J.Num (float_of_int s.s_cancelled));
        ("inflight", J.Num (float_of_int s.s_inflight));
        ("cache_hits", J.Num (float_of_int s.s_cache_hits));
        ("cache_misses", J.Num (float_of_int s.s_cache_misses));
        ("hit_rate", J.Num (hit_rate s.s_cache_hits s.s_cache_misses));
        ("uptime_s", J.Num s.s_uptime_s);
      ]
  | Bye -> J.Obj [ ("event", J.Str "bye") ]

let event_to_line e = J.to_string (event_to_json e)

(* The client-side decoder. Unknown event names are surfaced as errors so
   a protocol skew between loadgen and daemon is loud, not silent. *)
let event_of_line line =
  let* j =
    match J.of_string line with
    | Ok (J.Obj _ as j) -> Ok j
    | Ok _ -> Error "event must be a JSON object"
    | Error msg -> Error ("bad JSON: " ^ msg)
  in
  let id () =
    match J.str_mem "id" j with Some id -> Ok id | None -> Error "event without id"
  in
  match J.str_mem "event" j with
  | Some "accepted" ->
    let* id = id () in
    Ok (Accepted { id; inflight = Option.value (J.int_mem "inflight" j) ~default:0 })
  | Some "rejected" ->
    let* id = id () in
    Ok
      (Rejected
         {
           id;
           code = Option.value (J.str_mem "code" j) ~default:"";
           message = Option.value (J.str_mem "message" j) ~default:"";
         })
  | Some "status" ->
    let* id = id () in
    Ok (Status { id; stage = Option.value (J.str_mem "stage" j) ~default:"" })
  | Some "done" ->
    let* id = id () in
    let* flavor =
      match J.str_mem "flavor" j with
      | None -> Ok `Iterative
      | Some f -> Option.to_result ~none:("unknown flavor " ^ f) (List.assoc_opt f Core.Flow.flavors)
    in
    let int k = Option.value (J.int_mem k j) ~default:0 in
    let num k = Option.value (J.num_mem k j) ~default:0. in
    let measured =
      match J.mem "measured" j with
      | None -> None
      | Some m ->
        let mint k = Option.value (J.int_mem k m) ~default:0 in
        let mnum k = Option.value (J.num_mem k m) ~default:0. in
        Some
          {
            m_cp = mnum "cp_ns";
            m_cycles = mint "cycles";
            m_exec_ns = mnum "exec_ns";
            m_luts = mint "luts";
            m_ffs = mint "ffs";
            m_value_ok = Option.value (J.bool_mem "value_ok" m) ~default:false;
          }
    in
    Ok
      (Done
         {
           id;
           wall_ms = num "wall_ms";
           result =
             {
               r_digest = Option.value (J.str_mem "digest" j) ~default:"";
               r_flavor = flavor;
               r_levels = int "levels";
               r_met_target = Option.value (J.bool_mem "met_target" j) ~default:false;
               r_buffers = int "buffers";
               r_iterations = int "iterations";
               r_phi = num "phi";
               r_certified = num "certified_bound";
               r_measured = measured;
             };
         })
  | Some "error" ->
    Ok
      (Failed
         {
           id = J.str_mem "id" j;
           code = Option.value (J.str_mem "code" j) ~default:"";
           message = Option.value (J.str_mem "message" j) ~default:"";
         })
  | Some "cancelled" ->
    let* id = id () in
    Ok (Cancelled { id })
  | Some "stats" ->
    let int k = Option.value (J.int_mem k j) ~default:0 in
    Ok
      (Stats_reply
         {
           s_served = int "served";
           s_errors = int "errors";
           s_rejected = int "rejected";
           s_cancelled = int "cancelled";
           s_inflight = int "inflight";
           s_cache_hits = int "cache_hits";
           s_cache_misses = int "cache_misses";
           s_uptime_s = Option.value (J.num_mem "uptime_s" j) ~default:0.;
         })
  | Some "bye" -> Ok Bye
  | Some e -> Error ("unknown event " ^ e)
  | None -> Error "missing event field"

(* ---- outcome digest ---- *)

(* The same request must digest identically whether it was served by the
   daemon at any -j width or run serially through the one-shot CLI
   (`regulate flow --digest`), and whether the cache was cold or warm. *)
let outcome_digest o = Cache.Hash.combine [ Core.Flow.summary o ]

let completion_of_outcome ~flavor ?measured (o : Core.Flow.outcome) =
  let phi =
    match List.rev o.Core.Flow.iterations with
    | last :: _ -> last.Core.Flow.milp_phi
    | [] -> 1.
  in
  {
    r_digest = outcome_digest o;
    r_flavor = flavor;
    r_levels = o.Core.Flow.final_levels;
    r_met_target = o.Core.Flow.met_target;
    r_buffers = o.Core.Flow.total_buffers;
    r_iterations = List.length o.Core.Flow.iterations;
    r_phi = phi;
    r_certified = o.Core.Flow.certified.Analysis.Certify.throughput;
    r_measured = measured;
  }

let measured_of_metrics (m : Core.Experiment.metrics) =
  {
    m_cp = m.Core.Experiment.cp;
    m_cycles = m.Core.Experiment.cycles;
    m_exec_ns = m.Core.Experiment.exec_ns;
    m_luts = m.Core.Experiment.luts;
    m_ffs = m.Core.Experiment.ffs;
    m_value_ok = m.Core.Experiment.value_ok;
  }

(* ---- structured errors ---- *)

(* Map a flow exception to a protocol error code. A MILP without a
   placement, a lint gate's report and anything else (an internal
   error) must all come back as error events, never kill the daemon. *)
let error_of_exn exn =
  match exn with
  | Lint.Engine.Lint_error report ->
    ("lint-failed", Format.asprintf "%a" Lint.Engine.pp_report report)
  | Core.Flow.Milp_failed (name, failure) ->
    ( (match failure with
      | Buffering.Formulation.Exhausted -> "milp-exhausted"
      | Infeasible -> "milp-infeasible"
      | Unbounded -> "milp-unbounded"),
      Core.Flow.milp_failed_message name failure )
  | Failure msg -> ("flow-failed", msg)
  | Not_found -> ("unknown-kernel", "no benchmark kernel by that name (see `regulate list`)")
  | exn -> (
    match Hls.Parser.error_message exn with
    | Some msg -> ("compile-failed", msg)
    | None -> ("internal-error", Printexc.to_string exn))
