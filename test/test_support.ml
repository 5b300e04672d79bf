let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Support.Rng.create 42 and b = Support.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Support.Rng.int a 1000) (Support.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Support.Rng.create 1 and b = Support.Rng.create 2 in
  let xs = List.init 10 (fun _ -> Support.Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Support.Rng.int b 1_000_000) in
  check Alcotest.bool "different streams" true (xs <> ys)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 1 1_000))
    (fun (seed, bound) ->
      let rng = Support.Rng.create seed in
      let v = Support.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" ~count:200
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Support.Rng.create seed in
      let v = Support.Rng.float rng 3.5 in
      v >= 0. && v < 3.5)

let test_rng_shuffle_permutation () =
  let rng = Support.Rng.create 7 in
  let a = Array.init 50 (fun i -> i) in
  Support.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let rng = Support.Rng.create 9 in
  let child = Support.Rng.split rng in
  let a = Support.Rng.int rng 1000 and b = Support.Rng.int child 1000 in
  (* not a strong property, but the streams should diverge *)
  let a2 = Support.Rng.int rng 1000 and b2 = Support.Rng.int child 1000 in
  check Alcotest.bool "streams diverge" true ((a, a2) <> (b, b2))

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_get () =
  let v = Support.Vec.create () in
  for i = 0 to 99 do
    check Alcotest.int "index returned" i (Support.Vec.push v (i * 2))
  done;
  check Alcotest.int "length" 100 (Support.Vec.length v);
  check Alcotest.int "get" 84 (Support.Vec.get v 42);
  Support.Vec.set v 42 7;
  check Alcotest.int "set" 7 (Support.Vec.get v 42)

let test_vec_bounds () =
  let v = Support.Vec.create () in
  ignore (Support.Vec.push v 1);
  (match Support.Vec.get v 1 with
  | _ -> Alcotest.fail "expected out of bounds"
  | exception Invalid_argument _ -> ());
  match Support.Vec.get v (-1) with
  | _ -> Alcotest.fail "expected out of bounds"
  | exception Invalid_argument _ -> ()

let test_vec_iterators () =
  let v = Support.Vec.create () in
  List.iter (fun x -> ignore (Support.Vec.push v x)) [ 1; 2; 3; 4 ];
  check Alcotest.int "fold" 10 (Support.Vec.fold ( + ) 0 v);
  check Alcotest.(list int) "to_list" [ 1; 2; 3; 4 ] (Support.Vec.to_list v);
  check Alcotest.(list int) "map_to_list" [ 2; 4; 6; 8 ] (Support.Vec.map_to_list (fun x -> 2 * x) v);
  check Alcotest.bool "exists" true (Support.Vec.exists (fun x -> x = 3) v);
  check (Alcotest.option Alcotest.int) "find_index" (Some 2)
    (Support.Vec.find_index (fun x -> x = 3) v)

(* ------------------------------------------------------------------ *)
(* Digraph *)

(* The ordering contract of digraph.mli, worked by hand. *)
let test_digraph_orders () =
  check
    Alcotest.(list (list int))
    "sccs: reverse completion order, members root first"
    [ [ 4 ]; [ 0; 1 ]; [ 2; 3 ] ]
    (Support.Digraph.sccs [| [ 1 ]; [ 0; 2 ]; [ 3 ]; [ 2 ]; [] |]);
  let order, rest = Support.Digraph.topo [| []; []; [ 1; 0 ]; [ 4 ]; [ 3; 5 ]; []; [] |] in
  check Alcotest.(list int) "topo: seeds ascending, successors in list order" [ 2; 6; 1; 0 ]
    (Array.to_list order);
  check Alcotest.(list int) "topo: the cycle and what it feeds stay" [ 3; 4; 5 ] rest

(* Both kernels against brute-force reachability (Floyd-Warshall over
   walks of one or more edges) on random small digraphs, self-loops and
   parallel edges included. *)
let prop_digraph_vs_reachability =
  QCheck.Test.make ~name:"digraph sccs and topo vs reachability" ~count:300
    QCheck.(pair (int_range 1 10) (list_of_size (Gen.int_range 0 25) (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let edges = List.map (fun (a, b) -> (a mod n, b mod n)) pairs in
      let adj = Array.make n [] in
      List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
      let reach = Array.make_matrix n n false in
      List.iter (fun (a, b) -> reach.(a).(b) <- true) edges;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let all = List.init n Fun.id in
      let comps = Support.Digraph.sccs adj in
      let comp_of = Array.make n (-1) in
      List.iteri (fun i c -> List.iter (fun v -> comp_of.(v) <- i) c) comps;
      let sccs_ok =
        List.sort compare (List.concat comps) = all
        && List.for_all
             (fun u ->
               List.for_all
                 (fun v -> comp_of.(u) = comp_of.(v) = (u = v || (reach.(u).(v) && reach.(v).(u))))
                 all)
             all
        (* a component precedes every component it reaches *)
        && List.for_all (fun (a, b) -> comp_of.(a) <= comp_of.(b)) edges
      in
      let order, rest = Support.Digraph.topo adj in
      let pos = Array.make n (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      let on_cycle c = reach.(c).(c) in
      let behind_cycle v = List.exists (fun c -> on_cycle c && (c = v || reach.(c).(v))) all in
      let topo_ok =
        List.sort compare (Array.to_list order @ rest) = all
        && List.sort compare rest = rest
        && List.for_all (fun (a, b) -> pos.(b) < 0 || (pos.(a) >= 0 && pos.(a) < pos.(b))) edges
        && rest = List.filter behind_cycle all
        && (rest <> []) = List.exists on_cycle all
      in
      sccs_ok && topo_ok)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    qtest prop_rng_bounds;
    qtest prop_rng_float_bounds;
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("rng split", `Quick, test_rng_split_independent);
    ("vec push/get/set", `Quick, test_vec_push_get);
    ("vec bounds checked", `Quick, test_vec_bounds);
    ("vec iterators", `Quick, test_vec_iterators);
    ("digraph orders", `Quick, test_digraph_orders);
    qtest prop_digraph_vs_reachability;
  ]
