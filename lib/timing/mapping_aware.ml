let build_with_graph ?lut_extra g ~net lg =
  let tg = Lut_map.build ?lut_extra g ~net lg in
  (tg, Generate.run tg g)

let build ?lut_extra g ~net lg =
  snd (build_with_graph ?lut_extra g ~net lg)
