module L = Techmap.Lutgraph

let check = Alcotest.check

let mapped_fig2 () =
  let g, _, _, _, _ = Fixtures.fig2 () in
  let net = Elaborate.run g in
  let synth = Techmap.Synth.run net in
  let lg = Techmap.Mapper.run synth in
  (net, lg)

let test_arch_monotone_wire () =
  check Alcotest.bool "monotone" true (Placeroute.Arch.wire_delay 10 > Placeroute.Arch.wire_delay 1);
  check Alcotest.bool "positive at zero" true (Placeroute.Arch.wire_delay 0 > 0.)

let test_arch_grid_side () =
  check Alcotest.bool "fits" true (Placeroute.Arch.grid_side 100 * Placeroute.Arch.grid_side 100 >= 100);
  check Alcotest.bool "min side" true (Placeroute.Arch.grid_side 1 >= 1)

let test_place_deterministic () =
  let net, lg = mapped_fig2 () in
  let p1 = Placeroute.Place.run ~seed:5 net lg in
  let p2 = Placeroute.Place.run ~seed:5 net lg in
  check Alcotest.int "same wirelength" p1.Placeroute.Place.wirelength p2.Placeroute.Place.wirelength

let test_place_seed_matters () =
  let net, lg = mapped_fig2 () in
  let p1 = Placeroute.Place.run ~seed:1 net lg in
  let p2 = Placeroute.Place.run ~seed:2 net lg in
  (* not strictly guaranteed, but overwhelmingly likely on this size *)
  let positions p =
    Hashtbl.fold (fun it xy acc -> (it, xy) :: acc) p.Placeroute.Place.pos [] |> List.sort compare
  in
  check Alcotest.bool "different result" true
    (p1.Placeroute.Place.wirelength <> p2.Placeroute.Place.wirelength
    || positions p1 <> positions p2)

let test_place_effort_improves () =
  let net, lg = mapped_fig2 () in
  let weak = Placeroute.Place.run ~seed:3 ~effort:0.05 net lg in
  let strong = Placeroute.Place.run ~seed:3 ~effort:2.0 net lg in
  check Alcotest.bool "more effort, no worse" true
    (strong.Placeroute.Place.wirelength <= weak.Placeroute.Place.wirelength + 5)

let test_sta_cp_lower_bound () =
  let net, lg = mapped_fig2 () in
  let r = Placeroute.Sta.analyze ~seed:7 net lg in
  (* cp >= levels * level_delay: wires only add *)
  check Alcotest.bool "cp dominates pure logic" true
    (r.Placeroute.Sta.cp
    >= (float_of_int lg.L.max_level *. Techmap.Lutgraph.level_delay) -. 1e-9);
  check Alcotest.int "levels carried" lg.L.max_level r.Placeroute.Sta.logic_levels;
  check Alcotest.int "luts counted" (L.n_luts lg) r.Placeroute.Sta.n_luts;
  check Alcotest.int "ffs counted" (Net.count_ffs net) r.Placeroute.Sta.n_ffs

let test_sta_deterministic () =
  let net, lg = mapped_fig2 () in
  let a = Placeroute.Sta.analyze ~seed:7 net lg in
  let b = Placeroute.Sta.analyze ~seed:7 net lg in
  check (Alcotest.float 1e-9) "same cp" a.Placeroute.Sta.cp b.Placeroute.Sta.cp

let test_distance_metric () =
  let net, lg = mapped_fig2 () in
  let p = Placeroute.Place.run ~seed:1 net lg in
  (* distance is symmetric and zero to itself *)
  match lg.L.edges with
  | { L.e_src; e_dst } :: _ ->
    let a = Placeroute.Place.item_of_endpoint e_src in
    let b = Placeroute.Place.item_of_endpoint e_dst in
    check Alcotest.int "symmetric" (Placeroute.Place.distance p a b) (Placeroute.Place.distance p b a);
    check Alcotest.int "self distance" 0 (Placeroute.Place.distance p a a)
  | [] -> Alcotest.fail "no edges"

let suite =
  [
    ("arch wire delay monotone", `Quick, test_arch_monotone_wire);
    ("arch grid side", `Quick, test_arch_grid_side);
    ("placement deterministic", `Quick, test_place_deterministic);
    ("placement seed sensitivity", `Quick, test_place_seed_matters);
    ("placement effort helps", `Quick, test_place_effort_improves);
    ("sta cp lower bound", `Quick, test_sta_cp_lower_bound);
    ("sta deterministic", `Quick, test_sta_deterministic);
    ("distance metric", `Quick, test_distance_metric);
  ]
