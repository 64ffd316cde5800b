(* Random dataflow graphs shared by the property tests. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph

(* small random DAG over word and bit values, with constants, the
   commutative add/mul/smax/and, and sub, slt and mux: between 2 and
   [size] + 1 operations, one output *)
let random ?(size = 6) st =
  let b = G.Builder.create () in
  let words = ref [ G.Builder.add0 b (Op.Input "x"); G.Builder.add0 b (Op.Input "y") ] in
  let bits = ref [ G.Builder.add0 b (Op.Bit_input "p") ] in
  let pick l = List.nth !l (Random.State.int st (List.length !l)) in
  for _ = 1 to 2 + Random.State.int st size do
    match Random.State.int st 9 with
    | 0 -> words := G.Builder.add0 b (Op.Const (Random.State.int st 4)) :: !words
    | 1 -> bits := G.Builder.add2 b Op.Slt (pick words) (pick words) :: !bits
    | 2 -> words := G.Builder.add3 b Op.Mux (pick bits) (pick words) (pick words) :: !words
    | k ->
        let op = [| Op.Add; Op.Sub; Op.Mul; Op.Smax; Op.And; Op.Add |].(k - 3) in
        words := G.Builder.add2 b op (pick words) (pick words) :: !words
  done;
  ignore (G.Builder.add1 b (Op.Output "o") (List.hd !words));
  G.Builder.finish b
