type t = { store : Store.t option }

let disabled = { store = None }
let of_store s = { store = Some s }
let of_dir ?mem_bytes dir = of_store (Store.open_dir ?mem_bytes dir)
let enabled t = t.store <> None
let store t = t.store

let resolve_dir flag =
  match (flag, Sys.getenv_opt "REPRO_CACHE") with
  | Some _, _ -> flag
  | None, Some d when String.trim d <> "" -> Some d
  | None, _ -> None

let of_flag ?mem_bytes flag =
  match resolve_dir flag with
  | None -> Ok disabled
  | Some dir -> ( try Ok (of_dir ?mem_bytes dir) with Sys_error msg -> Error msg)

let memo t ~kind ~key f =
  match t.store with
  | None -> f ()
  | Some s -> (
    match Store.get s ~kind ~key with
    | Some payload -> Marshal.from_string payload 0
    | None ->
      let v = f () in
      Store.put s ~kind ~key (Marshal.to_string v []);
      v)

let finish t = match t.store with None -> () | Some s -> Store.finish s
