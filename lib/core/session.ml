exception Cancelled

type t = {
  cache : Cache.Session.t;
  milp_nodes : int option;
  milp_budget_s : float option;
  cancelled : unit -> bool;
  on_status : (string -> unit) option;
}

let make ?(cache = Cache.Session.disabled) ?milp_nodes ?milp_budget_s
    ?(cancelled = fun () -> false) ?on_status () =
  { cache; milp_nodes; milp_budget_s; cancelled; on_status }

let check_cancel t = if t.cancelled () then raise Cancelled

let status t msg = match t.on_status with None -> () | Some f -> f msg

let milp_config t (cfg : Buffering.Formulation.config) =
  {
    cfg with
    Buffering.Formulation.node_limit =
      Option.value t.milp_nodes ~default:cfg.Buffering.Formulation.node_limit;
    time_limit = Option.value t.milp_budget_s ~default:cfg.Buffering.Formulation.time_limit;
  }
