(* Artifact cache: canonical hashing, the content-addressed store, and
   the end-to-end guarantee the subsystem exists for — a warm run prints
   byte-for-byte what the cold run printed, at any jobs width. *)

module G = Dataflow.Graph
module K = Dataflow.Unit_kind

let temp_dir () = Filename.temp_dir "repro-cache-test" ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store ?mem_bytes f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir (Cache.Store.open_dir ?mem_bytes dir))

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let replace_first s ~sub ~by =
  match find_sub s sub with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

(* One session over [dir] for the duration of [f], finished afterwards:
   what a CLI invocation with --cache-dir does. *)
let with_session dir f =
  let s = Cache.Session.of_dir dir in
  Fun.protect ~finally:(fun () -> Cache.Session.finish s) (fun () -> f s)

(* A traced gsum compile and measurement at 200 MILP nodes. Returns what
   the run decided (metrics, [Flow.summary], lint report), its final
   netlist's hash, and which memoised stages it computed rather than
   read from the store. *)
let run_gsum ?(balance = false) ?(routing_aware = false) ?cache flavor =
  let config = { Core.Flow.default_config with Core.Flow.balance; routing_aware } in
  let session = Core.Session.make ?cache ~milp_nodes:200 ~milp_budget_s:1e9 () in
  Support.Trace.start ();
  let result =
    try Ok (Core.Experiment.run_flow ~config ~session ~flavor (Hls.Kernels.by_name "gsum"))
    with e -> Error e
  in
  let report = Support.Trace.stop () in
  let metrics, outcome = match result with Ok r -> r | Error e -> raise e in
  let opened ?parent name =
    List.exists
      (fun sp ->
        sp.Support.Trace.sp_name = name && (parent = None || sp.Support.Trace.sp_parent = parent))
      report.Support.Trace.r_spans
  in
  ( (metrics, Core.Flow.summary outcome, outcome.Core.Flow.lint),
    Cache.Hash.netlist outcome.Core.Flow.net,
    function
    | `Place -> opened "placeroute:place"
    | `Sim -> opened "sim:elastic"
    | `Narrow -> opened ~parent:"lint:tv-narrow" "flow:tv"
    | `Model -> opened "flow:model" )

(* Flip one payload byte of every entry of the given kinds. *)
let flip_entries dir kinds =
  let flipped = ref 0 in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    else begin
      let contents = In_channel.with_open_bin path In_channel.input_all in
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' contents)) with
      | "repro-cache" :: _ :: kind :: _ when List.mem kind kinds ->
        let b = Bytes.of_string contents in
        let i = Bytes.length b - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
        incr flipped
      | _ -> ()
    end
  in
  walk (Filename.concat dir "objects");
  !flipped

(* ------------------------------------------------------------------ *)
(* SHA-256 against FIPS 180-4 test vectors *)

let test_sha_vectors () =
  Alcotest.(check string)
    "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Cache.Sha256.hex "");
  Alcotest.(check string)
    "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Cache.Sha256.hex "abc");
  Alcotest.(check string)
    "two blocks" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Cache.Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string)
    "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Cache.Sha256.hex (String.make 1_000_000 'a'))

(* ------------------------------------------------------------------ *)
(* canonical hashing *)

let test_hash_stable () =
  (* rebuilt from scratch -> identical hash; hashing is a pure function
     of structure, not of physical ids or construction order *)
  let g1, _ = Fixtures.loop () and g2, _ = Fixtures.loop () in
  Alcotest.(check string) "same structure, same hash" (Cache.Hash.dfg g1) (Cache.Hash.dfg g2);
  let n1 = Elaborate.run g1 and n2 = Elaborate.run g2 in
  Alcotest.(check string) "same netlist hash" (Cache.Hash.netlist n1) (Cache.Hash.netlist n2)

let test_hash_sensitive () =
  let g1, _ = Fixtures.loop () in
  let g2, back = Fixtures.loop () in
  G.set_buffer g2 back (Some { G.transparent = true; slots = 7 });
  Alcotest.(check bool) "buffer annotation changes the hash" false
    (Cache.Hash.dfg g1 = Cache.Hash.dfg g2);
  Alcotest.(check bool) "combine is length-prefixed" false
    (Cache.Hash.combine [ "ab"; "c" ] = Cache.Hash.combine [ "a"; "bc" ])

let test_hash_across_domains () =
  (* the jobs=1 / jobs=8 determinism contract: a key computed inside a
     pool worker equals the key computed on the main domain *)
  let reference = Cache.Hash.dfg (fst (Fixtures.loop ())) in
  let hashes =
    Support.Pool.run ~jobs:4 (fun pool ->
        List.init 4 (fun _ ->
            Support.Pool.submit pool (fun () -> Cache.Hash.dfg (fst (Fixtures.loop ()))))
        |> List.map Support.Pool.await)
  in
  List.iter (Alcotest.(check string) "worker-domain hash" reference) hashes

(* ------------------------------------------------------------------ *)
(* store behaviour *)

let test_store_roundtrip () =
  with_store @@ fun _dir store ->
  Alcotest.(check (option string)) "empty store misses" None
    (Cache.Store.get store ~kind:"k" ~key:"a");
  Cache.Store.put store ~kind:"k" ~key:"a" "payload-bytes";
  Alcotest.(check (option string)) "roundtrip" (Some "payload-bytes")
    (Cache.Store.get store ~kind:"k" ~key:"a");
  Alcotest.(check (option string)) "kind partitions the namespace" None
    (Cache.Store.get store ~kind:"other" ~key:"a");
  Alcotest.(check int) "one hit" 1 (Cache.Store.hits store);
  Alcotest.(check int) "two misses" 2 (Cache.Store.misses store)

let test_store_corruption () =
  (* mem_bytes:0 bypasses the LRU front so every get hits the disk path *)
  with_store ~mem_bytes:0 @@ fun _dir store ->
  let path = Cache.Store.entry_path store ~kind:"k" ~key:"x" in
  Cache.Store.put store ~kind:"k" ~key:"x" "the payload";
  (* truncate mid-payload: checksum/length verification must fail *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 4)));
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Cache.Store.get store ~kind:"k" ~key:"x");
  Alcotest.(check bool) "bad entry deleted" false (Sys.file_exists path);
  (* pure garbage *)
  Cache.Store.put store ~kind:"k" ~key:"x" "the payload";
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a cache entry");
  Alcotest.(check (option string)) "garbage entry is a miss" None
    (Cache.Store.get store ~kind:"k" ~key:"x");
  (* a rewrite recovers *)
  Cache.Store.put store ~kind:"k" ~key:"x" "the payload";
  Alcotest.(check (option string)) "rewritten entry reads back" (Some "the payload")
    (Cache.Store.get store ~kind:"k" ~key:"x");
  (* a flipped byte in a flow's narrowing verdict, simulation or timing
     model: a miss, so each stage recomputes and the run decides and
     measures what it did *)
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let run () = with_session dir (fun cache -> run_gsum ~cache `Iterative) in
  let cold, _, _ = run () in
  Alcotest.(check int) "one entry per flipped kind" 3
    (flip_entries dir [ "tv-narrow"; "sim"; "model" ]);
  let again, _, opened = run () in
  List.iter
    (fun (stage, what) -> Alcotest.(check bool) ("corrupt entry recomputed: " ^ what) true (opened stage))
    [ (`Narrow, "narrowing"); (`Sim, "simulation"); (`Model, "timing model") ];
  Alcotest.(check bool) "outcome unchanged" true (again = cold)

let test_store_version_invalidation () =
  with_store ~mem_bytes:0 @@ fun _dir store ->
  let path = Cache.Store.entry_path store ~kind:"k" ~key:"v" in
  Cache.Store.put store ~kind:"k" ~key:"v" "versioned";
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* same checksummed payload, but stamped by a different model version:
     must read as a miss, never be decoded *)
  let swapped = replace_first full ~sub:Cache.Store.model_version ~by:"m0-other" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc swapped);
  Alcotest.(check (option string)) "other model version is a miss" None
    (Cache.Store.get store ~kind:"k" ~key:"v")

let test_store_concurrent_writers () =
  with_store ~mem_bytes:0 @@ fun _dir store ->
  let payload = String.concat "" (List.init 200 string_of_int) in
  Support.Pool.run ~jobs:2 (fun pool ->
      List.init 8 (fun _ ->
          Support.Pool.submit pool (fun () ->
              Cache.Store.put store ~kind:"k" ~key:"racy" payload))
      |> List.iter Support.Pool.await);
  Alcotest.(check (option string)) "racing writers leave a valid entry" (Some payload)
    (Cache.Store.get store ~kind:"k" ~key:"racy")

let test_store_gc_clear () =
  with_store @@ fun dir store ->
  List.iter
    (fun i -> Cache.Store.put store ~kind:"k" ~key:(string_of_int i) (String.make 100 'x'))
    [ 1; 2; 3; 4 ];
  let s = Cache.Store.disk_stats dir in
  Alcotest.(check int) "entries on disk" 4 s.Cache.Store.ds_entries;
  Alcotest.(check bool) "bytes accounted" true (s.Cache.Store.ds_bytes > 400);
  let removed, freed = Cache.Store.gc dir ~max_bytes:(s.Cache.Store.ds_bytes / 2) in
  Alcotest.(check int) "gc removed" 2 removed;
  Alcotest.(check bool) "gc freed bytes" true (freed > 0);
  Cache.Store.clear dir;
  Alcotest.(check int) "clear empties" 0 (Cache.Store.disk_stats dir).Cache.Store.ds_entries;
  (* stats_json of the cleared store parses back: zero rate, no last session *)
  let module J = Support.Json in
  match J.of_string (J.to_string (Cache.Store.stats_json dir)) with
  | Error msg -> Alcotest.failf "stats_json does not parse: %s" msg
  | Ok j ->
    Alcotest.(check (option (float 0.))) "hit_rate" (Some 0.) (J.num_mem "hit_rate" j);
    Alcotest.(check (option int)) "entries" (Some 0) (J.int_mem "entries" j);
    Alcotest.(check bool) "no last session" true (J.mem "last_session" j = Some J.Null)

(* ------------------------------------------------------------------ *)
(* memoization through Cache.Session *)

let test_memo () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let calls = ref 0 in
  let f () = incr calls; [ !calls * 10 ] in
  let memo s = Cache.Session.memo s ~kind:"t" ~key:(fun () -> [ "k" ]) f in
  let ints = Alcotest.(list int) in
  (* the disabled session always computes *)
  Alcotest.(check bool) "disabled" false (Cache.Session.enabled Cache.Session.disabled);
  Alcotest.check ints "disabled memo is transparent" [ 10 ] (memo Cache.Session.disabled);
  Alcotest.check ints "and computes every time" [ 20 ] (memo Cache.Session.disabled);
  Alcotest.(check (pair ints (option string)))
    "and hashes nothing" ([ 30 ], None)
    (Cache.Session.memo_keyed Cache.Session.disabled ~kind:"t"
       ~key:(fun () -> Alcotest.fail "key built on the disabled session")
       f);
  with_session dir (fun s ->
      Alcotest.check ints "first enabled call computes" [ 40 ] (memo s);
      Alcotest.check ints "second call served from cache" [ 40 ] (memo s);
      Alcotest.(check int) "f ran four times in total" 4 !calls;
      (* a second session over the same open store shares the artifacts *)
      let shared = Cache.Session.of_store (Option.get (Cache.Session.store s)) in
      Alcotest.check ints "shared store" [ 40 ] (memo shared);
      Alcotest.(check int) "still four computes" 4 !calls);
  (* a fresh process-equivalent: new session, same directory *)
  with_session dir (fun s ->
      Alcotest.check ints "persists across sessions" [ 40 ] (memo s);
      Alcotest.(check int) "no recomputation" 4 !calls);
  (* each finished session appended its counters to stats.log *)
  Alcotest.(check int) "two sessions logged" 2 (Cache.Store.disk_stats dir).Cache.Store.ds_sessions

let test_memo_corruption_rewrite () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let calls = ref 0 in
  let f () = incr calls; "value" in
  let memo_keyed s = Cache.Session.memo_keyed s ~kind:"t" ~key:(fun () -> [ "c" ]) f in
  let memo s = fst (memo_keyed s) in
  with_session dir (fun s ->
      let v, key = memo_keyed s in
      Alcotest.(check string) "computed" "value" v;
      Alcotest.(check (option string)) "the key combines its parts"
        (Some (Cache.Hash.combine [ "c" ])) key;
      let store = Option.get (Cache.Session.store s) in
      let path = Cache.Store.entry_path store ~kind:"t" ~key:(Option.get key) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "garbage"));
  (* new session: the in-memory front is gone, the disk entry is garbage *)
  with_session dir (fun s ->
      Alcotest.(check string) "recomputed after corruption" "value" (memo s);
      Alcotest.(check int) "f ran again" 2 !calls);
  with_session dir (fun s ->
      Alcotest.(check string) "rewritten entry hits" "value" (memo s);
      Alcotest.(check int) "no third run" 2 !calls)

(* ------------------------------------------------------------------ *)
(* LRU front *)

let test_lru () =
  let l = Cache.Lru.create ~max_bytes:10 in
  Cache.Lru.add l "a" "12345";
  Cache.Lru.add l "b" "12345";
  Alcotest.(check int) "at capacity" 10 (Cache.Lru.bytes l);
  ignore (Cache.Lru.find l "a");
  (* touch a, then overflow: b is the least recently used *)
  Cache.Lru.add l "c" "123";
  Alcotest.(check (option string)) "recently-used survives" (Some "12345") (Cache.Lru.find l "a");
  Alcotest.(check (option string)) "lru evicted" None (Cache.Lru.find l "b");
  Alcotest.(check bool) "bound respected" true (Cache.Lru.bytes l <= 10);
  let z = Cache.Lru.create ~max_bytes:0 in
  Cache.Lru.add z "a" "x";
  Alcotest.(check (option string)) "zero budget retains nothing" None (Cache.Lru.find z "a")

(* ------------------------------------------------------------------ *)
(* the end-to-end guarantee: warm output == cold output, at any width *)

let render_report rows =
  Format.asprintf "%a@\n%a@\n%a" Core.Report.table1 rows Core.Report.figure5 rows
    Core.Report.iterations rows

let run_compare ?cache ~jobs () =
  render_report
    (let rows, _, _ =
       Core.Experiment.run_all ~config:Fixtures.cheap_flow_config
         ~session:(Core.Session.make ?cache ()) ~jobs Fixtures.tiny_kernels
     in
     rows)

let test_cold_warm_identical () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cold = with_session dir (fun cache -> run_compare ~cache ~jobs:1 ()) in
  let warm1, warm_hits =
    with_session dir (fun cache ->
        let out = run_compare ~cache ~jobs:1 () in
        (out, Cache.Store.hits (Option.get (Cache.Session.store cache))))
  in
  let warm2 = with_session dir (fun cache -> run_compare ~cache ~jobs:2 ()) in
  Alcotest.(check string) "warm jobs=1 == cold" cold warm1;
  Alcotest.(check string) "warm jobs=2 == cold" cold warm2;
  Alcotest.(check bool) "warm run actually hit the cache" true (warm_hits > 0);
  (* and the cache changes nothing vs. no cache at all *)
  let uncached = run_compare ~jobs:1 () in
  Alcotest.(check string) "uncached == cached" uncached cold

(* The pre-characterised unit delays persist only through the session:
   a fresh store misses every signature of the graph exactly once (the
   build dedupes within the graph), and a second process-like session
   on the same directory answers every one of them from disk. *)
let test_unitdelay_session_only () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let g = Hls.Kernels.graph (Hls.Kernels.by_name "gsum") in
  let build () =
    let store = Cache.Store.open_dir dir in
    let model = Timing.Precharacterized.build ~cache:(Cache.Session.of_store store) g in
    Cache.Store.finish store;
    (model, Cache.Store.hits store, Cache.Store.misses store)
  in
  let cold, cold_hits, cold_misses = build () in
  let warm, warm_hits, warm_misses = build () in
  Alcotest.(check int) "cold run hits nothing" 0 cold_hits;
  Alcotest.(check bool) "cold run characterises" true (cold_misses > 0);
  Alcotest.(check int) "warm run hits every signature" cold_misses warm_hits;
  Alcotest.(check int) "warm run misses nothing" 0 warm_misses;
  Alcotest.(check bool) "same model" true (cold = warm)

(* Every pure stage behind the flow's gates is memoised per content: a
   warm run places nothing (kind [sta], keyed by the final synthesis's
   key plus the placer's seed and effort), simulates nothing (kind
   [sim]), re-runs no narrowing verdict (kind [tv-narrow]) and, in the
   iterative flavor, builds no timing model (kind [model]; its
   [flow:model] span opens only around a build). The warm run still
   decides, lints and measures exactly what the cold and the uncached
   runs did. The balance switch is part of the synthesis key: gsum's
   baseline synthesises the same netlist with and without it, but maps
   it differently, so a balanced run must not read the unbalanced entry;
   likewise the routing-aware model must not be read from a plain run's
   entry. *)
let test_sta_memo () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* one store per flavor: the flavors share their narrowing verdict *)
  let cached ?balance ?routing_aware flavor =
    with_session
      (Filename.concat dir (Core.Flow.flavor_name flavor))
      (fun cache -> run_gsum ?balance ?routing_aware ~cache flavor)
  in
  List.iter
    (fun flavor ->
      let name = Core.Flow.flavor_name flavor in
      let cold, _, cold_opened = cached flavor in
      let warm, _, warm_opened = cached flavor in
      let uncached, _, _ = run_gsum flavor in
      List.iter
        (fun (stage, what) ->
          Alcotest.(check bool) (name ^ ": cold run " ^ what) true (cold_opened stage);
          Alcotest.(check bool) (name ^ ": warm run never " ^ what) false (warm_opened stage))
        ([ (`Place, "places"); (`Sim, "simulates"); (`Narrow, "checks the narrowing") ]
        @ if flavor = `Iterative then [ (`Model, "builds a timing model") ] else []);
      Alcotest.(check bool) (name ^ ": warm metrics, summary, lint == cold") true (warm = cold);
      Alcotest.(check bool) (name ^ ": cached == uncached") true (cold = uncached))
    [ `Iterative; `Baseline ];
  let _, plain_net, _ = cached `Baseline in
  let balanced, balanced_net, balanced_opened = cached ~balance:true `Baseline in
  let balanced_uncached, _, _ = run_gsum ~balance:true `Baseline in
  Alcotest.(check string) "balance keeps the baseline's netlist" plain_net balanced_net;
  Alcotest.(check bool) "balanced run misses the unbalanced entry" true (balanced_opened `Place);
  Alcotest.(check bool) "balanced metrics == uncached" true (balanced = balanced_uncached);
  let routed, _, routed_opened = cached ~routing_aware:true `Iterative in
  let routed_uncached, _, _ = run_gsum ~routing_aware:true `Iterative in
  Alcotest.(check bool) "routing-aware run misses the plain model" true (routed_opened `Model);
  Alcotest.(check bool) "routing-aware == its uncached run" true (routed = routed_uncached)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha_vectors;
    Alcotest.test_case "hash stable across rebuilds" `Quick test_hash_stable;
    Alcotest.test_case "hash sensitive to structure" `Quick test_hash_sensitive;
    Alcotest.test_case "hash stable across domains" `Quick test_hash_across_domains;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store corruption tolerated" `Quick test_store_corruption;
    Alcotest.test_case "store version invalidation" `Quick test_store_version_invalidation;
    Alcotest.test_case "store concurrent writers" `Quick test_store_concurrent_writers;
    Alcotest.test_case "store gc and clear" `Quick test_store_gc_clear;
    Alcotest.test_case "memo persists across sessions" `Quick test_memo;
    Alcotest.test_case "memo rewrites corrupted entries" `Quick test_memo_corruption_rewrite;
    Alcotest.test_case "lru front" `Quick test_lru;
    Alcotest.test_case "unit delays via session only" `Quick test_unitdelay_session_only;
    Alcotest.test_case "cold vs warm byte-identical" `Slow test_cold_warm_identical;
    Alcotest.test_case "place & route memoised per synthesis" `Slow test_sta_memo;
  ]
