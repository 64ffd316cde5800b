(* Tests for the SAT solver, bit-vector layer and rewrite-rule
   synthesis. *)

module Sat = Apex_smt.Sat


(* --- SAT basics --- *)

let test_trivial_sat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  (match Sat.solve s with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "a true" true (Sat.model_value s a)

let test_trivial_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.neg a ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_empty_clause () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Sat.add_clause s [];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_implication_chain () =
  (* a & (a->b) & (b->c) & ... & (y -> z) & !z : UNSAT *)
  let s = Sat.create () in
  let vars = Array.init 26 (fun _ -> Sat.new_var s) in
  Sat.add_clause s [ Sat.pos vars.(0) ];
  for i = 0 to 24 do
    Sat.add_clause s [ Sat.neg vars.(i); Sat.pos vars.(i + 1) ]
  done;
  Sat.add_clause s [ Sat.neg vars.(25) ];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_pigeonhole () =
  (* PHP(4,3): 4 pigeons in 3 holes, UNSAT; small but requires real search *)
  let pigeons = 4 and holes = 3 in
  let s = Sat.create () in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "PHP should be UNSAT"

let test_graph_coloring_sat () =
  (* C5 cycle is 3-colorable *)
  let n = 5 and k = 3 in
  let s = Sat.create () in
  let v = Array.init n (fun _ -> Array.init k (fun _ -> Sat.new_var s)) in
  for i = 0 to n - 1 do
    Sat.add_clause s (List.init k (fun c -> Sat.pos v.(i).(c)));
    for c1 = 0 to k - 1 do
      for c2 = c1 + 1 to k - 1 do
        Sat.add_clause s [ Sat.neg v.(i).(c1); Sat.neg v.(i).(c2) ]
      done
    done
  done;
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    for c = 0 to k - 1 do
      Sat.add_clause s [ Sat.neg v.(i).(c); Sat.neg v.(j).(c) ]
    done
  done;
  match Sat.solve s with
  | Sat.Sat ->
      (* verify the model is a proper coloring *)
      let color i =
        let rec go c = if Sat.model_value s v.(i).(c) then c else go (c + 1) in
        go 0
      in
      for i = 0 to n - 1 do
        Alcotest.(check bool) "proper" true (color i <> color ((i + 1) mod n))
      done
  | _ -> Alcotest.fail "C5 is 3-colorable"

let test_conflict_budget () =
  (* PHP(7,6) is hard enough to exceed a tiny budget *)
  let pigeons = 7 and holes = 6 in
  let s = Sat.create () in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
  match Sat.solve ~conflict_budget:5 s with
  | Sat.Unknown -> ()
  | Sat.Unsat -> () (* acceptable if the solver is fast enough *)
  | Sat.Sat -> Alcotest.fail "PHP cannot be SAT"

(* fuzz vs brute force *)

let brute_force n clauses =
  let sat = ref false in
  for m = 0 to (1 lsl n) - 1 do
    if not !sat then begin
      let value v = m land (1 lsl v) <> 0 in
      let lit_true l =
        let v = l / 2 in
        if l land 1 = 0 then value v else not (value v)
      in
      if List.for_all (fun c -> List.exists lit_true c) clauses then sat := true
    end
  done;
  !sat

let prop_matches_brute_force =
  QCheck.Test.make ~name:"CDCL agrees with brute force on random 3-CNF"
    ~count:300 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 8 in
      let n_clauses = 1 + Random.State.int st (4 * n) in
      let clauses =
        List.init n_clauses (fun _ ->
            List.init
              (1 + Random.State.int st 3)
              (fun _ ->
                let v = Random.State.int st n in
                if Random.State.bool st then Sat.pos v else Sat.neg v)
            |> List.sort_uniq compare)
      in
      let s = Sat.create () in
      let vars = Array.init n (fun _ -> Sat.new_var s) in
      ignore vars;
      List.iter (Sat.add_clause s) clauses;
      let expected = brute_force n clauses in
      match Sat.solve s with
      | Sat.Sat ->
          expected
          && List.for_all
               (fun c ->
                 List.exists
                   (fun l ->
                     let v = l / 2 in
                     if l land 1 = 0 then Sat.model_value s v
                     else not (Sat.model_value s v))
                   c)
               clauses
      | Sat.Unsat -> not expected
      | Sat.Unknown -> false)

let prop_incremental_adds =
  QCheck.Test.make ~name:"adding clauses after SAT answers stays sound"
    ~count:100 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 4 + Random.State.int st 5 in
      let s = Sat.create () in
      let _ = Array.init n (fun _ -> Sat.new_var s) in
      let all = ref [] in
      let ok = ref true in
      for _ = 1 to 3 do
        let more =
          List.init
            (1 + Random.State.int st n)
            (fun _ ->
              List.init
                (1 + Random.State.int st 3)
                (fun _ ->
                  let v = Random.State.int st n in
                  if Random.State.bool st then Sat.pos v else Sat.neg v)
              |> List.sort_uniq compare)
        in
        List.iter (Sat.add_clause s) more;
        all := more @ !all;
        let expected = brute_force n !all in
        (match Sat.solve s with
        | Sat.Sat -> if not expected then ok := false
        | Sat.Unsat -> if expected then ok := false
        | Sat.Unknown -> ok := false)
      done;
      !ok)

let sat_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_matches_brute_force; prop_incremental_adds ]


(* --- bit-vector layer --- *)

module Bv = Apex_smt.Bv
module Op = Apex_dfg.Op
module Sem = Apex_dfg.Sem
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Merge = Apex_merging.Merge
module Library = Apex_peak.Library
module Spec = Apex_peak.Spec
module Verify = Apex_verif.Verify
module Synth = Apex_verif.Synth

let random_args st op bits =
  Array.map
    (fun w ->
      match (w : Op.width) with
      | Op.Word -> Random.State.int st (1 lsl bits)
      | Op.Bit -> Random.State.int st 2)
    (Op.input_widths op)

let prop_bv_constant_folding =
  (* constant inputs fold without touching the solver, and the result
     matches the 16-bit interpreter exactly at width 16 *)
  QCheck.Test.make ~name:"bv constant folding matches Sem at width 16"
    ~count:400 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let op = List.nth Op.all_compute (Random.State.int st (List.length Op.all_compute)) in
      let args = random_args st op 16 in
      let ctx = Bv.create ~word_width:16 () in
      let bvs =
        Array.mapi
          (fun i v ->
            let w = (Op.input_widths op).(i) in
            Bv.const ctx ~width:(match w with Op.Word -> 16 | Op.Bit -> 1) v)
          args
      in
      let out = Bv.eval_op ctx op bvs in
      Bv.model_of ctx out = Sem.eval op args)

let prop_bv_solver_path =
  (* fresh variables constrained to constants; requires actual solving *)
  QCheck.Test.make ~name:"bv through the solver matches Sem at width 16"
    ~count:100 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let op = List.nth Op.all_compute (Random.State.int st (List.length Op.all_compute)) in
      let args = random_args st op 16 in
      let ctx = Bv.create ~word_width:16 () in
      let bvs =
        Array.mapi
          (fun i v ->
            let w = (Op.input_widths op).(i) in
            let width = match w with Op.Word -> 16 | Op.Bit -> 1 in
            let x = Bv.fresh ctx width in
            Bv.assert_equal ctx x (Bv.const ctx ~width v);
            x)
          args
      in
      let out = Bv.eval_op ctx op bvs in
      match Apex_smt.Sat.solve (Bv.sat ctx) with
      | Apex_smt.Sat.Sat -> Bv.model_of ctx out = Sem.eval op args
      | _ -> false)

(* Exhaustive boundary cross-check: every operation with combinational
   semantics, every combination of boundary arguments (the values where
   wrap-around, sign and shift saturation change behaviour), Sem vs the
   bit-blasted encoding at the full 16-bit width.  Constant arguments
   fold at the gate level, so no solving is involved and the sweep is
   cheap; a mismatch names the offending operation and arguments. *)

let boundary_words = [ 0; 1; 0x7fff; 0x8000; 0xffff ]

let test_bv_sem_boundary_exhaustive () =
  let check_op op args =
    let ctx = Bv.create ~word_width:16 () in
    let bvs =
      Array.mapi
        (fun i v ->
          let width =
            match (Op.input_widths op).(i) with Op.Word -> 16 | Op.Bit -> 1
          in
          Bv.const ctx ~width v)
        args
    in
    let expected = Sem.eval op args in
    let got = Bv.model_of ctx (Bv.eval_op ctx op bvs) in
    if got <> expected then
      Alcotest.failf
        "%s disagrees with the bit-vector semantics on [%s]: Sem %#x, Bv %#x"
        (Op.mnemonic op)
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%#x") args)))
        expected got
  in
  let rec combos = function
    | [] -> [ [] ]
    | w :: rest ->
        let tails = combos rest in
        let vals =
          match (w : Op.width) with
          | Op.Word -> boundary_words
          | Op.Bit -> [ 0; 1 ]
        in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) vals
  in
  let ops =
    Op.all_compute
    @ [ Op.Lut 0x00; Op.Lut 0xff; Op.Lut 0x96; Op.Reg; Op.Reg_file 4;
        Op.Bit_const false; Op.Bit_const true ]
    @ List.map (fun v -> Op.Const v) boundary_words
  in
  List.iter
    (fun op ->
      List.iter
        (fun args -> check_op op (Array.of_list args))
        (combos (Array.to_list (Op.input_widths op))))
    ops

let test_equivalence_commutative () =
  (* x + y == y + x is UNSAT to refute *)
  let ctx = Bv.create ~word_width:8 () in
  let x = Bv.fresh ctx 8 and y = Bv.fresh ctx 8 in
  let l = Bv.add ctx x y and r = Bv.add ctx y x in
  Bv.assert_not_equal ctx [ l ] [ r ];
  match Apex_smt.Sat.solve (Bv.sat ctx) with
  | Apex_smt.Sat.Unsat -> ()
  | _ -> Alcotest.fail "x+y must equal y+x"

let test_equivalence_noncommutative () =
  let ctx = Bv.create ~word_width:8 () in
  let x = Bv.fresh ctx 8 and y = Bv.fresh ctx 8 in
  let l = Bv.sub ctx x y and r = Bv.sub ctx y x in
  Bv.assert_not_equal ctx [ l ] [ r ];
  match Apex_smt.Sat.solve (Bv.sat ctx) with
  | Apex_smt.Sat.Sat ->
      let xv = Bv.model_of ctx x and yv = Bv.model_of ctx y in
      Alcotest.(check bool) "real cex" true
        ((xv - yv) land 0xff <> (yv - xv) land 0xff)
  | _ -> Alcotest.fail "x-y differs from y-x somewhere"

let test_mul_equivalence_8bit () =
  (* distributivity: x*(y+z) == x*y + x*z; three structurally different
     multipliers make this a real miter, so run it at 6 bits *)
  let ctx = Bv.create ~word_width:6 () in
  let x = Bv.fresh ctx 6 and y = Bv.fresh ctx 6 and z = Bv.fresh ctx 6 in
  let l = Bv.mul ctx x (Bv.add ctx y z) in
  let r = Bv.add ctx (Bv.mul ctx x y) (Bv.mul ctx x z) in
  Bv.assert_not_equal ctx [ l ] [ r ];
  match Apex_smt.Sat.solve ~conflict_budget:500_000 (Bv.sat ctx) with
  | Apex_smt.Sat.Unsat -> ()
  | Apex_smt.Sat.Sat -> Alcotest.fail "distributivity violated?!"
  | Apex_smt.Sat.Unknown -> Alcotest.fail "budget exceeded"

(* --- rewrite-rule verification --- *)

let add_pattern = Synth.op_pattern Op.Add

let bound_config dp label =
  (* bind the library config's inputs to the op pattern's inputs *)
  let cfg = List.find (fun (c : D.config) -> c.D.label = label) dp.D.configs in
  let in_ports =
    Array.to_list dp.D.nodes
    |> List.filter_map (fun (n : D.node) ->
           match n.D.kind with D.In_port -> Some n.id | _ -> None)
  in
  { cfg with D.inputs = List.mapi (fun i p -> (i, p)) (List.filteri (fun i _ -> i < 2) in_ports) }

let test_verify_add_rule () =
  let dp = Library.subset ~ops:[ Op.Add; Op.Sub ] in
  let cfg = bound_config dp "add" in
  match Verify.verify_config dp cfg add_pattern with
  | Verify.Proved _ -> ()
  | v -> Alcotest.failf "expected proof, got %s" (Format.asprintf "%a" Verify.pp_verdict v)

let test_verify_refutes_wrong_rule () =
  let dp = Library.subset ~ops:[ Op.Add; Op.Sub ] in
  let cfg = bound_config dp "sub" in
  (* claim that the sub config implements add: must be refuted *)
  match Verify.verify_config dp cfg add_pattern with
  | Verify.Refuted _ -> ()
  | v -> Alcotest.failf "expected refutation, got %s" (Format.asprintf "%a" Verify.pp_verdict v)

(* --- synthesis --- *)

let test_structural_synthesizes_all_ops () =
  let ops = [ Op.Add; Op.Sub; Op.Mul; Op.Smax; Op.Lshr; Op.Slt ] in
  let dp = Library.subset ~ops in
  List.iter
    (fun op ->
      match Synth.structural dp (Synth.op_pattern op) with
      | None -> Alcotest.failf "no rule for %s" (Op.mnemonic op)
      | Some rule -> (
          match rule.verdict with
          | Verify.Proved _ | Verify.Tested -> ()
          | Verify.Refuted _ -> Alcotest.failf "refuted rule for %s" (Op.mnemonic op)))
    ops

let test_structural_fails_for_missing_op () =
  let dp = Library.subset ~ops:[ Op.Add ] in
  match Synth.structural dp (Synth.op_pattern Op.Mul) with
  | None -> ()
  | Some _ -> Alcotest.fail "mul cannot exist on an add-only PE"

let mul_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add m z in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  Pattern.of_graph (G.Builder.finish b)

let test_structural_on_merged_pe () =
  let dp = Library.subset ~ops:[ Op.Add; Op.Mul ] in
  let merged, _ = Merge.merge dp (mul_add_pattern ()) in
  (* the complex pattern has a provenance config: must verify *)
  (match Synth.structural merged (mul_add_pattern ()) with
  | None -> Alcotest.fail "no rule for merged pattern"
  | Some rule -> (
      match rule.verdict with
      | Verify.Proved _ | Verify.Tested -> ()
      | Verify.Refuted _ -> Alcotest.fail "provenance rule refuted"));
  (* plain ops must still be synthesizable on the merged PE *)
  match Synth.structural merged (Synth.op_pattern Op.Add) with
  | None -> Alcotest.fail "no add rule on merged PE"
  | Some _ -> ()

let test_structural_rules_for_ops () =
  let ops = [ Op.Add; Op.Sub; Op.Smin ] in
  let dp = Library.subset ~ops in
  List.iter
    (fun op ->
      match Synth.structural dp (Synth.op_pattern op) with
      | Some _ -> ()
      | None -> Alcotest.failf "missing rule for %s" (Op.mnemonic op))
    ops

let bv_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bv_constant_folding; prop_bv_solver_path ]

let () =
  Alcotest.run "smt"
    [ ( "sat",
        [ Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
          Alcotest.test_case "graph coloring sat" `Quick test_graph_coloring_sat;
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget ] );
      ("sat-properties", sat_props);
      ( "bv",
        [ Alcotest.test_case "boundary exhaustive vs Sem" `Quick
            test_bv_sem_boundary_exhaustive;
          Alcotest.test_case "commutativity proved" `Quick test_equivalence_commutative;
          Alcotest.test_case "non-commutativity cex" `Quick test_equivalence_noncommutative;
          Alcotest.test_case "8-bit mul distributivity" `Quick test_mul_equivalence_8bit ] );
      ("bv-properties", bv_props);
      ( "verify",
        [ Alcotest.test_case "add rule proved" `Quick test_verify_add_rule;
          Alcotest.test_case "wrong rule refuted" `Quick test_verify_refutes_wrong_rule ] );
      ( "synth",
        [ Alcotest.test_case "structural: all ops" `Quick test_structural_synthesizes_all_ops;
          Alcotest.test_case "structural: missing op" `Quick test_structural_fails_for_missing_op;
          Alcotest.test_case "structural: merged PE" `Quick test_structural_on_merged_pe;
          Alcotest.test_case "rules for ops" `Quick test_structural_rules_for_ops ] ) ]
