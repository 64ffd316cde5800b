(* Unit and property tests for the dataflow-graph IR. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Sem = Apex_dfg.Sem
module Interp = Apex_dfg.Interp

let check = Alcotest.check
let int = Alcotest.int

(* ((i0*w0) + (i1*w1) + (i2*w2) + (i3*w3)) + c — the Fig. 3 convolution *)
let conv4 () =
  let b = G.Builder.create () in
  let i = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "i%d" k))) in
  let w = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "w%d" k))) in
  let c = G.Builder.add0 b (Op.Input "c") in
  let m = Array.init 4 (fun k -> G.Builder.add2 b Op.Mul i.(k) w.(k)) in
  let s1 = G.Builder.add2 b Op.Add m.(0) m.(1) in
  let s2 = G.Builder.add2 b Op.Add s1 m.(2) in
  let s3 = G.Builder.add2 b Op.Add s2 m.(3) in
  let s4 = G.Builder.add2 b Op.Add s3 c in
  ignore (G.Builder.add1 b (Op.Output "out") s4);
  G.Builder.finish b

let test_builder_validate () =
  let g = conv4 () in
  (match G.validate g with
  | Ok () -> ()
  | Error m -> Alcotest.failf "conv4 invalid: %s" m);
  check int "length" 18 (G.length g);
  check int "compute nodes" 8 (List.length (G.compute_ids g));
  check int "inputs" 9 (List.length (G.io_inputs g));
  check int "outputs" 1 (List.length (G.io_outputs g))

let test_builder_rejects_bad_arity () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  Alcotest.check_raises "bad arity" (Invalid_argument "Builder.add: add expects 2 args, got 1")
    (fun () -> ignore (G.Builder.add b Op.Add [| x |]))

let test_builder_rejects_forward_ref () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  Alcotest.check_raises "forward ref"
    (Invalid_argument "Builder.add: add arg id 7 not yet defined") (fun () ->
      ignore (G.Builder.add b Op.Add [| x; 7 |]))

let test_builder_masks_constants () =
  (* oversized literals are normalized at construction time, so every
     downstream consumer (interp, analysis, bit-blasting) sees a value
     that fits the declared width *)
  let b = G.Builder.create () in
  let c = G.Builder.add0 b (Op.Const 0x1_0005) in
  let x = G.Builder.add0 b (Op.Input "x") in
  let s = G.Builder.add2 b Op.Add c x in
  let t0 = G.Builder.add0 b (Op.Bit_const true) in
  let l = G.Builder.add3 b (Op.Lut 0x1ff) t0 t0 t0 in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  ignore (G.Builder.add1 b (Op.Bit_output "p") l);
  let g = G.Builder.finish b in
  (match (G.nodes g).(c).G.op with
  | Op.Const v -> check int "const masked to 16 bits" 5 v
  | op -> Alcotest.failf "expected a const, got %s" (Op.mnemonic op));
  match (G.nodes g).(l).G.op with
  | Op.Lut tt -> check int "lut truth table masked to 8 bits" 0xff tt
  | op -> Alcotest.failf "expected a lut, got %s" (Op.mnemonic op)

let test_interp_conv () =
  let g = conv4 () in
  let env =
    [ ("i0", 1); ("i1", 2); ("i2", 3); ("i3", 4);
      ("w0", 10); ("w1", 20); ("w2", 30); ("w3", 40); ("c", 5) ]
  in
  match Interp.run g env with
  | [ ("out", v) ] -> check int "conv result" ((1 * 10) + (2 * 20) + (3 * 30) + (4 * 40) + 5) v
  | other -> Alcotest.failf "unexpected outputs: %d" (List.length other)

let test_interp_wraps () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Add x y in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  let g = G.Builder.finish b in
  match Interp.run g [ ("x", 0xffff); ("y", 1) ] with
  | [ ("o", v) ] -> check int "wraparound" 0 v
  | _ -> Alcotest.fail "missing output"

let test_signed_ops () =
  check int "to_signed max" 32767 (Sem.to_signed 0x7fff);
  check int "to_signed min" (-32768) (Sem.to_signed 0x8000);
  check int "abs of -1" 1 (Sem.eval Op.Abs [| 0xffff |]);
  check int "abs of min stays min" 0x8000 (Sem.eval Op.Abs [| 0x8000 |]);
  check int "smax" 1 (Sem.eval Op.Smax [| 1; 0xffff |]);
  check int "umax" 0xffff (Sem.eval Op.Umax [| 1; 0xffff |]);
  check int "slt" 1 (Sem.eval Op.Slt [| 0xffff; 0 |]);
  check int "ult" 0 (Sem.eval Op.Ult [| 0xffff; 0 |]);
  check int "ashr sign fill" 0xffff (Sem.eval Op.Ashr [| 0x8000; 15 |]);
  check int "lshr" 1 (Sem.eval Op.Lshr [| 0x8000; 15 |]);
  check int "shift saturates" 0 (Sem.eval Op.Shl [| 1; 20 |]);
  check int "mux true" 7 (Sem.eval Op.Mux [| 1; 7; 9 |]);
  check int "mux false" 9 (Sem.eval Op.Mux [| 0; 7; 9 |]);
  check int "lut" 1 (Sem.eval (Op.Lut 0x80) [| 1; 1; 1 |]);
  check int "lut low" 0 (Sem.eval (Op.Lut 0x80) [| 1; 1; 0 |])

let test_induced () =
  let g = conv4 () in
  (* take the two last adds: they form an add-add chain *)
  let adds =
    G.compute_ids g
    |> List.filter (fun i -> Op.equal (G.node g i).op Op.Add)
  in
  let last_two = List.filteri (fun i _ -> i >= 2) adds in
  let sub, mapping = G.induced g last_two in
  (match G.validate sub with
  | Ok () -> ()
  | Error m -> Alcotest.failf "induced invalid: %s" m);
  check int "mapping size" 2 (List.length mapping);
  check int "sub compute nodes" 2 (List.length (G.compute_ids sub));
  (* 3 external feeds: s2, m3, c *)
  check int "sub inputs" 3 (List.length (G.io_inputs sub))

let test_succs_fanout () =
  let g = conv4 () in
  let adds =
    G.compute_ids g |> List.filter (fun i -> Op.equal (G.node g i).op Op.Add)
  in
  List.iteri
    (fun k a ->
      let expected = 1 in
      check int (Printf.sprintf "fanout of add %d" k) expected (G.fanout g a))
    adds;
  (* fanout counts consuming ports without the successor table; the two
     must agree on every node of every built-in app *)
  List.iter
    (fun (a : Apex_halide.Apps.t) ->
      let g = a.Apex_halide.Apps.graph in
      let succs = G.succs g in
      for i = 0 to G.length g - 1 do
        check int
          (Printf.sprintf "%s node %d" a.Apex_halide.Apps.name i)
          (List.length succs.(i)) (G.fanout g i)
      done)
    (Apex_halide.Apps.evaluated () @ Apex_halide.Apps.unseen ())

let test_histogram () =
  let g = conv4 () in
  let h = G.op_histogram g in
  check int "adds" 4 (List.assoc "add" h);
  check int "muls" 4 (List.assoc "mul" h)

let test_map_ops () =
  let g = conv4 () in
  let g' = G.map_ops g (fun op -> if Op.equal op Op.Add then Op.Sub else op) in
  let h = G.op_histogram g' in
  check int "subs" 4 (List.assoc "sub" h);
  Alcotest.(check bool) "no adds" true (not (List.mem_assoc "add" h))

let contains_line l s =
  let re = Str.regexp_string s in
  try ignore (Str.search_forward re l 0); true with Not_found -> false

let test_dot_export () =
  let g = conv4 () in
  let dot = Apex_dfg.Dot.to_string ~name:"conv" ~highlight:[ 13 ] g in
  let contains s =
    let re = Str.regexp_string s in
    try ignore (Str.search_forward re dot 0); true with Not_found -> false
  in
  Alcotest.(check bool) "digraph header" true (contains "digraph conv");
  Alcotest.(check bool) "highlight" true (contains "fillcolor=lightblue");
  Alcotest.(check bool) "port labels" true (contains "label=\"1\"");
  (* one node line per graph node *)
  let count =
    List.length
      (List.filter
         (fun l -> contains_line l "shape=")
         (String.split_on_char '\n' dot))
  in
  check int "node lines" (G.length g) count

(* property tests *)

let word = QCheck.(map (fun v -> v land 0xffff) int)

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"add then sub is identity" ~count:500
    QCheck.(pair word word)
    (fun (a, b) ->
      Sem.eval Op.Sub [| Sem.eval Op.Add [| a; b |]; b |] = Sem.mask a)

let prop_signed_roundtrip =
  QCheck.Test.make ~name:"to_signed/of_signed roundtrip" ~count:500 word
    (fun v -> Sem.of_signed (Sem.to_signed v) = Sem.mask v)

let prop_minmax =
  QCheck.Test.make ~name:"smin <= smax" ~count:500
    QCheck.(pair word word)
    (fun (a, b) ->
      Sem.to_signed (Sem.eval Op.Smin [| a; b |])
      <= Sem.to_signed (Sem.eval Op.Smax [| a; b |]))

let prop_commutative_ops =
  QCheck.Test.make ~name:"commutative ops commute" ~count:300
    QCheck.(pair word word)
    (fun (a, b) ->
      List.for_all
        (fun op ->
          (not (Op.is_commutative op)) || Op.arity op <> 2
          || Sem.eval op [| a; b |] = Sem.eval op [| b; a |])
        Op.all_compute)

let prop_abs_nonneg =
  QCheck.Test.make ~name:"abs is nonnegative except INT_MIN" ~count:500 word
    (fun a ->
      let r = Sem.eval Op.Abs [| a |] in
      r = 0x8000 || Sem.to_signed r >= 0)

let prop_interp_total =
  (* interp never raises on a valid random graph *)
  let gen =
    QCheck.Gen.(
      let* n_ops = int_range 1 30 in
      let* seed = int in
      return (n_ops, seed))
  in
  QCheck.Test.make ~name:"interp total on random graphs" ~count:100
    (QCheck.make gen) (fun (n_ops, seed) ->
      let st = Random.State.make [| seed |] in
      let b = G.Builder.create () in
      let x = G.Builder.add0 b (Op.Input "x") in
      let y = G.Builder.add0 b (Op.Input "y") in
      let words = ref [ x; y ] in
      let bits = ref [] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      for _ = 1 to n_ops do
        let candidates =
          List.filter
            (fun op ->
              Array.for_all
                (fun w -> (w = Op.Word && !words <> []) || (w = Op.Bit && !bits <> []))
                (Op.input_widths op))
            Op.all_compute
        in
        let op = pick candidates in
        let args =
          Array.map
            (fun w -> match w with Op.Word -> pick !words | Op.Bit -> pick !bits)
            (Op.input_widths op)
        in
        let id = G.Builder.add b op args in
        match Op.result_width op with
        | Op.Word -> words := id :: !words
        | Op.Bit -> bits := id :: !bits
      done;
      ignore (G.Builder.add1 b (Op.Output "o") (List.hd !words));
      let g = G.Builder.finish b in
      (match G.validate g with Ok () -> () | Error m -> failwith m);
      let env = Interp.random_env st g in
      let out = Interp.run g env in
      List.for_all (fun (_, v) -> v >= 0 && v <= 0xffff) out)

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_add_sub_roundtrip; prop_signed_roundtrip; prop_minmax;
      prop_commutative_ops; prop_abs_nonneg; prop_interp_total ]

let () =
  Alcotest.run "dfg"
    [ ( "graph",
        [ Alcotest.test_case "builder and validate" `Quick test_builder_validate;
          Alcotest.test_case "rejects bad arity" `Quick test_builder_rejects_bad_arity;
          Alcotest.test_case "rejects forward refs" `Quick test_builder_rejects_forward_ref;
          Alcotest.test_case "masks constants" `Quick test_builder_masks_constants;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "succs and fanout" `Quick test_succs_fanout;
          Alcotest.test_case "op histogram" `Quick test_histogram;
          Alcotest.test_case "map_ops" `Quick test_map_ops;
          Alcotest.test_case "dot export" `Quick test_dot_export ] );
      ( "interp",
        [ Alcotest.test_case "convolution" `Quick test_interp_conv;
          Alcotest.test_case "16-bit wraparound" `Quick test_interp_wraps;
          Alcotest.test_case "signed semantics" `Quick test_signed_ops ] );
      ("properties", props) ]
