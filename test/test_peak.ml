(* Tests for PE specifications, the functional model, the baseline PE
   library and Verilog emission. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Sem = Apex_dfg.Sem
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Merge = Apex_merging.Merge
module Spec = Apex_peak.Spec
module Library = Apex_peak.Library
module Cost = Apex_peak.Cost
module Verilog = Apex_peak.Verilog

let check = Alcotest.check
let int = Alcotest.int

let baseline_spec () = Spec.of_datapath ~name:"baseline" (Library.baseline ())

(* --- library --- *)

let test_baseline_valid () =
  let dp = Library.baseline () in
  match D.validate dp with
  | Ok () -> ()
  | Error m -> Alcotest.failf "baseline invalid: %s" m

let test_baseline_io () =
  let dp = Library.baseline () in
  check int "word inputs" 2 (D.n_word_inputs dp);
  check int "bit inputs" 3 (D.n_bit_inputs dp);
  Alcotest.(check bool) "has configs" true (List.length dp.configs > 20)

let test_baseline_area_sane () =
  let a = D.area (Library.baseline ()) in
  Alcotest.(check bool)
    (Printf.sprintf "baseline area %.1f in [700, 1400]" a)
    true
    (a > 700.0 && a < 1400.0)

let test_subset_smaller () =
  let base = D.area (Library.baseline ()) in
  let sub = D.area (Library.subset ~ops:[ Op.Add; Op.Mul ]) in
  Alcotest.(check bool) "subset much smaller" true (sub < 0.6 *. base)

let test_subset_no_bits_without_lut () =
  let dp = Library.subset ~ops:[ Op.Add; Op.Mul ] in
  check int "no bit inputs" 0 (D.n_bit_inputs dp)

let test_ops_of_graph () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let c = G.Builder.add0 b (Op.Const 5) in
  let m = G.Builder.add2 b Op.Mul x c in
  let a = G.Builder.add2 b Op.Add m x in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  let ops = Library.ops_of_graph (G.Builder.finish b) in
  Alcotest.(check bool) "add and mul only" true
    (List.sort_uniq Op.compare ops = List.sort_uniq Op.compare [ Op.Add; Op.Mul ])

(* --- functional model: every baseline single-op config is correct --- *)

let eval_config_op spec (cfg : D.config) op a b =
  let instr = Spec.encode spec cfg in
  let word_ins = Spec.input_ports spec in
  let bit_ins = Spec.bit_input_ports spec in
  let env =
    List.mapi (fun i p -> (p, if i = 0 then a else b)) word_ins
    @ List.map (fun p -> (p, a land 1)) bit_ins
  in
  (* the PE drives every output position; the op's result is on
     position 0 for word ops and 1 for bit ops *)
  let pos = match Op.result_width op with Op.Word -> 0 | Op.Bit -> 1 in
  List.assoc pos (Spec.eval spec instr ~env)

let test_baseline_configs_correct () =
  let spec = baseline_spec () in
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun (cfg : D.config) ->
      (* plain configs only: constant variants read creg = 0 *)
      if not (String.contains cfg.label '$') then
        match cfg.fu_ops with
        | [ (_, op) ] when Op.arity op = 2 && op <> Op.Mux ->
            for _ = 1 to 25 do
              let a = Random.State.int st 0x10000
              and b = Random.State.int st 0x10000 in
              let expected = Sem.eval op [| a; b |] in
              let got = eval_config_op spec cfg op a b in
              if got <> expected then
                Alcotest.failf "%s(%d,%d): got %d want %d" cfg.label a b got
                  expected
            done
        | _ -> ())
    spec.dp.configs

let test_constant_variant_config () =
  let spec = baseline_spec () in
  let cfg =
    List.find (fun (c : D.config) -> String.equal c.label "add$c1")
      spec.dp.configs
  in
  (* instantiate the constant register at 42 *)
  let cfg = { cfg with D.consts = List.map (fun (cr, _) -> (cr, 42)) cfg.consts } in
  let instr = Spec.encode spec cfg in
  let w = Spec.input_ports spec in
  let env = List.map (fun p -> (p, 100)) w in
  let env = env @ List.map (fun p -> (p, 0)) (Spec.bit_input_ports spec) in
  check int "100 + 42" 142 (List.assoc 0 (Spec.eval spec instr ~env))

let test_decode_total () =
  let spec = baseline_spec () in
  (* all-zero instruction decodes and evaluates without raising *)
  let cfg = Spec.decode spec [] in
  Alcotest.(check bool) "has fu ops" true (cfg.fu_ops <> []);
  let env =
    List.map (fun p -> (p, 5)) (Spec.input_ports spec)
    @ List.map (fun p -> (p, 1)) (Spec.bit_input_ports spec)
  in
  let out = D.evaluate spec.dp cfg ~env in
  Alcotest.(check bool) "outputs" true (out <> [])

(* the nine apps of the paper's evaluation *)
let app_names () =
  List.map
    (fun (a : Apex_halide.Apps.t) -> a.name)
    (Apex_halide.Apps.evaluated () @ Apex_halide.Apps.unseen ())

(* PE Base plus merged datapaths: a two-subgraph PE, the two domain PEs
   and the DSE's pick for each app *)
let codec_specs () =
  baseline_spec ()
  :: List.map
       (fun name ->
         let v = Apex.Dse.variant_for name in
         Spec.of_datapath ~name:v.Apex.Variants.name v.dp)
       ([ "pek:camera:2"; "ip"; "ml" ]
       @ List.map (fun a -> "spec:" ^ a) (app_names ()))

let test_encode_decode_agree () =
  let st = Random.State.make [| 99 |] in
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun (cfg : D.config) ->
          let instr = Spec.encode spec cfg in
          let cfg' = Spec.decode spec instr in
          (* both configs must behave identically on the routed ports *)
          for _ = 1 to 10 do
            let env =
              List.map (fun p -> (p, Random.State.int st 0x10000)) (Spec.input_ports spec)
              @ List.map (fun p -> (p, Random.State.int st 2)) (Spec.bit_input_ports spec)
            in
            let v1 = D.evaluate spec.dp cfg ~env in
            let v2 = D.evaluate spec.dp cfg' ~env in
            List.iter
              (fun (pos, v) ->
                match List.assoc_opt pos v2 with
                | Some v' when v' = v -> ()
                | _ -> Alcotest.failf "%s: decode mismatch for %s" spec.name cfg.label)
              v1
          done)
        spec.dp.configs)
    (codec_specs ())

(* --- merged PE: provenance config encodes and evaluates --- *)

let mul_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add m z in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  Pattern.of_graph (G.Builder.finish b)

let test_merged_pe_spec () =
  let dp = Library.subset ~ops:[ Op.Add; Op.Mul ] in
  let merged, _ = Merge.merge dp (mul_add_pattern ()) in
  let spec = Spec.of_datapath ~name:"mac" merged in
  let cfg = List.nth merged.configs (List.length merged.configs - 1) in
  let instr = Spec.encode spec cfg in
  (* x*y + z with the pattern's input binding *)
  let env = List.map (fun (_, port) -> (port, 3)) cfg.inputs in
  (* give each input a distinct value instead *)
  let env =
    List.mapi (fun i (p, _) -> (p, [| 3; 5; 7 |].(i mod 3))) env
  in
  match Spec.eval spec instr ~env with
  | [ (_, v) ] ->
      (* inputs bound in pattern order x,y,z = 3,5,7 -> 3*5+7 = 22 *)
      check int "mac result" 22 v
  | _ -> Alcotest.fail "wrong outputs"

(* --- cost --- *)

let test_config_delay_mul_heavier () =
  let spec = baseline_spec () in
  let find l = List.find (fun (c : D.config) -> String.equal c.label l) spec.dp.configs in
  let dadd = Cost.config_delay spec.dp (find "add") in
  let dmul = Cost.config_delay spec.dp (find "mul") in
  Alcotest.(check bool) "mul slower than add" true (dmul > dadd);
  Alcotest.(check bool) "delays positive" true (dadd > 0.0)

let test_config_energy_positive () =
  let spec = baseline_spec () in
  List.iter
    (fun (cfg : D.config) ->
      Alcotest.(check bool) (cfg.label ^ " energy > 0") true
        (Cost.config_energy spec.dp cfg > 0.0))
    spec.dp.configs

let test_critical_path_is_max () =
  let dp = Library.baseline () in
  let cp = Cost.critical_path dp in
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "cp >= config delay" true
        (cp >= Cost.config_delay dp cfg))
    dp.configs

(* --- verilog --- *)

let test_verilog_structure () =
  let spec = baseline_spec () in
  let v = Verilog.emit spec in
  let contains s =
    let re = Str.regexp_string s in
    try ignore (Str.search_forward re v 0); true with Not_found -> false
  in
  Alcotest.(check bool) "module header" true (contains ("module " ^ Verilog.module_name spec));
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "config port" true (contains "config_data");
  Alcotest.(check bool) "data input" true (contains "data_in_0");
  Alcotest.(check bool) "output" true (contains "res_0")

let test_verilog_mentions_all_fields () =
  let spec = baseline_spec () in
  let v = Verilog.emit spec in
  (* every configuration bit must be read somewhere: check that every
     field's slice appears *)
  let slices = ref 0 in
  let lo = ref 0 in
  List.iter
    (fun (f : Spec.field) ->
      let hi = !lo + f.bits - 1 in
      let s = Printf.sprintf "config_data[%d:%d]" hi !lo in
      let re = Str.regexp_string s in
      (try
         ignore (Str.search_forward re v 0);
         incr slices
       with Not_found -> Alcotest.failf "field %s (%s) unused" f.name s);
      lo := !lo + f.bits)
    spec.fields;
  check int "all fields used" (List.length spec.fields) !slices

let test_verilog_deterministic () =
  let v1 = Verilog.emit (baseline_spec ()) in
  let v2 = Verilog.emit (baseline_spec ()) in
  Alcotest.(check bool) "deterministic" true (String.equal v1 v2)

let test_port_list () =
  let spec = baseline_spec () in
  let ports = Verilog.port_list spec in
  Alcotest.(check bool) "clk first" true (fst (List.hd ports) = "clk");
  Alcotest.(check bool) "has config port" true
    (List.exists (fun (n, _) -> n = "config_data") ports)

(* --- golden layout census --- *)

(* MD5 of the configuration layout and the pipelined PE RTL of PE Base,
   the domain PEs and the two-subgraph PE of each of the nine apps: the
   spec's fields (name, bits, choices), the encoding of every registered
   config, [n_config_bits], the mux points (as a set: sorted before
   hashing) and the Verilog at the stages the PE plan assigns.  Recorded
   when the select menus moved into [Datapath]; any change to how the
   configuration word is laid out or emitted must reproduce it. *)
let golden_layout_digest = "1013ca98f268a2ef733c14f4485cac6c"

let test_golden_layout () =
  let census name =
    let v = Apex.Dse.variant_for name in
    let dp = v.Apex.Variants.dp in
    let spec = Spec.of_datapath ~name:v.name dp in
    let plan = Apex_pipelining.Pe_pipeline.plan dp in
    let stages =
      if plan.stages > 1 then
        Apex_pipelining.Pe_pipeline.assign_stages dp ~period_ps:plan.period_ps
          ~stages:plan.stages
      else None
    in
    Marshal.to_string
      ( name,
        List.map (fun (f : Spec.field) -> (f.name, f.bits, f.choices)) spec.fields,
        List.map (Spec.encode spec) dp.configs,
        D.n_config_bits dp,
        List.sort compare (D.mux_points dp),
        Verilog.emit ?stages spec )
      [ Marshal.No_sharing ]
  in
  let names =
    [ "base"; "ip"; "ip2"; "ip3"; "ml" ]
    @ List.map (fun a -> "pek:" ^ a ^ ":2") (app_names ())
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat "" (List.map census names)))
  in
  Alcotest.(check string) "golden layout census" golden_layout_digest digest

(* --- properties --- *)

let prop_decode_never_raises =
  QCheck.Test.make ~name:"random instructions decode and evaluate" ~count:200
    QCheck.(int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let spec = baseline_spec () in
      let instr =
        List.map
          (fun (f : Spec.field) -> (f.name, Random.State.int st (max 1 f.choices)))
          spec.fields
      in
      let env =
        List.map (fun p -> (p, Random.State.int st 0x10000)) (Spec.input_ports spec)
        @ List.map (fun p -> (p, Random.State.int st 2)) (Spec.bit_input_ports spec)
      in
      match Spec.eval spec instr ~env with
      | out -> List.for_all (fun (_, v) -> v >= 0 && v <= 0xffff) out
      | exception (Failure _ | Invalid_argument _) -> true)

let props = List.map QCheck_alcotest.to_alcotest [ prop_decode_never_raises ]

let () =
  Alcotest.run "peak"
    [ ( "library",
        [ Alcotest.test_case "baseline valid" `Quick test_baseline_valid;
          Alcotest.test_case "baseline io" `Quick test_baseline_io;
          Alcotest.test_case "baseline area" `Quick test_baseline_area_sane;
          Alcotest.test_case "subset smaller" `Quick test_subset_smaller;
          Alcotest.test_case "subset without bits" `Quick test_subset_no_bits_without_lut;
          Alcotest.test_case "ops_of_graph" `Quick test_ops_of_graph ] );
      ( "spec",
        [ Alcotest.test_case "baseline configs correct" `Quick test_baseline_configs_correct;
          Alcotest.test_case "constant-operand config" `Quick test_constant_variant_config;
          Alcotest.test_case "decode total" `Quick test_decode_total;
          Alcotest.test_case "encode/decode agree" `Quick test_encode_decode_agree;
          Alcotest.test_case "merged PE MAC" `Quick test_merged_pe_spec ] );
      ( "cost",
        [ Alcotest.test_case "mul slower than add" `Quick test_config_delay_mul_heavier;
          Alcotest.test_case "energy positive" `Quick test_config_energy_positive;
          Alcotest.test_case "critical path is max" `Quick test_critical_path_is_max ] );
      ( "verilog",
        [ Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "all fields used" `Quick test_verilog_mentions_all_fields;
          Alcotest.test_case "deterministic" `Quick test_verilog_deterministic;
          Alcotest.test_case "port list" `Quick test_port_list;
          Alcotest.test_case "golden layout census" `Quick test_golden_layout ] );
      ("properties", props) ]
