type finding = {
  f_seed : int;
  f_kind : string;
  f_flavor : string;
  f_detail : string;
  f_source : string;
  f_minimized : string;
  f_min_stmts : int;
}

type stats = {
  s_kernels : int;
  s_violations : int;
  s_explained : int;
  s_failures_by_kind : (string * int) list;
  s_explained_by_kind : (string * int) list;
  s_features : (string * int) list;
  s_duration_s : float;
  s_budget_hit : bool;
}

type t = { stats : stats; findings : finding list }

let bump tbl k n = Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Shrink one finding's kernel: the predicate re-runs the single-seed
   oracle on the candidate and demands the same (kind, flavor) violation.
   Capped at [max_checks] oracle runs so a stubborn failure cannot eat
   the campaign budget. *)
let minimize_finding ?config ~max_checks (p : Hls.Generate.program) (v : Oracle.check) =
  let checks = ref 0 in
  let still_fails (f : Hls.Ast.func) =
    incr checks;
    !checks <= max_checks
    &&
    let source = Format.asprintf "%a" Hls.Ast.pp_func f in
    let candidate = { p with Hls.Generate.func = f; source } in
    let mutations = if String.length v.Oracle.kind >= 6 && String.sub v.Oracle.kind 0 6 = "mutant" then 2 else 0 in
    let r = Oracle.check_program ?config ~mutations candidate in
    List.exists
      (fun (c : Oracle.check) -> c.Oracle.kind = v.Oracle.kind && c.Oracle.flavor = v.Oracle.flavor)
      r.Oracle.violations
  in
  let small = Minimize.shrink_func still_fails p.Hls.Generate.func in
  (Format.asprintf "%a" Hls.Ast.pp_func small, Minimize.size small)

let run ?gen_cfg ?config ?mutations ?budget_s ?(minimize = true) ?(log = ignore) ~pool
    ~start_seed ~seeds () =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let failures = Hashtbl.create 16 in
  let explained = Hashtbl.create 16 in
  let features = Hashtbl.create 32 in
  let findings = ref [] in
  let kernels = ref 0 in
  let violations = ref 0 in
  let explained_n = ref 0 in
  let budget_hit = ref false in
  let batch = max 8 (4 * Support.Pool.jobs pool) in
  let next = ref start_seed in
  let stop = start_seed + seeds in
  while !next < stop && not !budget_hit do
    let n = min batch (stop - !next) in
    let batch_seeds = List.init n (fun i -> !next + i) in
    next := !next + n;
    let reports =
      Support.Pool.map_list pool
        (fun seed -> Oracle.check ?gen_cfg ?config ?mutations seed)
        batch_seeds
    in
    List.iter
      (fun (r : Oracle.report) ->
        incr kernels;
        List.iter (fun (k, c) -> bump features k c) r.Oracle.features;
        List.iter
          (fun (c : Oracle.check) ->
            incr explained_n;
            bump explained c.Oracle.kind 1)
          r.Oracle.explained;
        (* one finding per distinct (kind, flavor) per seed *)
        let seen = Hashtbl.create 4 in
        List.iter
          (fun (c : Oracle.check) ->
            incr violations;
            bump failures c.Oracle.kind 1;
            let key = (c.Oracle.kind, c.Oracle.flavor) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              let p =
                match gen_cfg with
                | None -> Hls.Generate.generate r.Oracle.seed
                | Some cfg -> Hls.Generate.generate ~cfg r.Oracle.seed
              in
              let minimized, min_stmts =
                if minimize then minimize_finding ?config ~max_checks:200 p c
                else (r.Oracle.source, Minimize.size p.Hls.Generate.func)
              in
              findings :=
                {
                  f_seed = r.Oracle.seed;
                  f_kind = c.Oracle.kind;
                  f_flavor = c.Oracle.flavor;
                  f_detail = c.Oracle.detail;
                  f_source = r.Oracle.source;
                  f_minimized = minimized;
                  f_min_stmts = min_stmts;
                }
                :: !findings
            end)
          r.Oracle.violations)
      reports;
    log
      (Printf.sprintf "fuzz: %d/%d kernels, %d violations, %.1fs" !kernels seeds !violations
         (elapsed ()));
    match budget_s with
    | Some b when elapsed () > b && !next < stop ->
      budget_hit := true;
      log (Printf.sprintf "fuzz: wall-clock budget %.0fs exhausted at seed %d" b !next)
    | _ -> ()
  done;
  let stats =
    {
      s_kernels = !kernels;
      s_violations = !violations;
      s_explained = !explained_n;
      s_failures_by_kind = sorted_bindings failures;
      s_explained_by_kind = sorted_bindings explained;
      s_features = sorted_bindings features;
      s_duration_s = elapsed ();
      s_budget_hit = !budget_hit;
    }
  in
  { stats; findings = List.rev !findings }

let stats_to_json s =
  let module J = Support.Json in
  let int i = J.Num (float_of_int i) in
  let hist kv = J.Obj (List.map (fun (k, v) -> (k, int v)) kv) in
  (* feature coverage includes zero rows for never-emitted features *)
  let full_features =
    List.map
      (fun k -> (k, Option.value (List.assoc_opt k s.s_features) ~default:0))
      Hls.Generate.feature_keys
  in
  J.Obj
    [
      ("kernels", int s.s_kernels);
      ("violations", int s.s_violations);
      ("explained", int s.s_explained);
      ("duration_s", J.Num s.s_duration_s);
      ("budget_hit", J.Bool s.s_budget_hit);
      ("failures_by_kind", hist s.s_failures_by_kind);
      ("explained_by_kind", hist s.s_explained_by_kind);
      ("features", hist full_features);
    ]

let write_repro ~dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "fuzz_seed%d_%s.c" f.f_seed f.f_kind)
  in
  let oc = open_out path in
  Printf.fprintf oc "// fuzz repro: seed=%d invariant=%s flavor=%s\n" f.f_seed f.f_kind
    f.f_flavor;
  String.split_on_char '\n' f.f_detail
  |> List.iter (fun l -> Printf.fprintf oc "// %s\n" l);
  Printf.fprintf oc "%s\n" f.f_minimized;
  close_out oc;
  path
