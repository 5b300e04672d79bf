(* Differential testing of the dense-array placer ({!Placeroute.Place})
   against the retained hashtable placer ({!Place_reference}, which lives
   here with the tests). Both draw the same random numbers and compute
   the same integer deltas, so the grid side, the wirelength and every
   item's position must be equal, on every paper kernel's mapped circuit
   at several seeds and efforts. *)

module P = Placeroute.Place

let check = Alcotest.check

let positions (t : P.t) = Hashtbl.fold (fun it xy acc -> (it, xy) :: acc) t.P.pos [] |> List.sort compare

let mapped (k : Hls.Kernels.t) =
  let g = Hls.Kernels.graph k in
  ignore (Core.Flow.seed_back_edges g);
  let net, lg, _ = Core.Flow.synthesize Core.Flow.default_config g in
  (net, lg)

let test_kernel (k : Hls.Kernels.t) () =
  let net, lg = mapped k in
  List.iter
    (fun seed ->
      List.iter
        (fun effort ->
          let what = Printf.sprintf "%s seed %d effort %g" k.Hls.Kernels.name seed effort in
          let a = Place_reference.run ~seed ~effort net lg in
          let b = P.run ~seed ~effort net lg in
          check Alcotest.int (what ^ ": side") a.P.side b.P.side;
          check Alcotest.int (what ^ ": wirelength") a.P.wirelength b.P.wirelength;
          check Alcotest.bool (what ^ ": positions") true (positions a = positions b))
        [ 0.05; 0.3; 1.0 ])
    [ 1; 3; 7 ]

let suite =
  List.map
    (fun (k : Hls.Kernels.t) -> ("kernel " ^ k.Hls.Kernels.name, `Quick, test_kernel k))
    Hls.Kernels.all
