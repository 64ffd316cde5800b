(* Tests for datapath construction and subgraph merging. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Merge = Apex_merging.Merge
module Clique = Apex_merging.Clique

let check = Alcotest.check
let int = Alcotest.int

(* Fig. 5a: a1 = add(a2, const); a2 = add(x, y) *)
let subgraph1 () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let c = G.Builder.add0 b (Op.Const 3) in
  let a2 = G.Builder.add2 b Op.Add x y in
  let a1 = G.Builder.add2 b Op.Add a2 c in
  ignore (G.Builder.add1 b (Op.Output "o") a1);
  Pattern.of_graph (G.Builder.finish b)

(* Fig. 5b: b2 = add(b3, const); b3 = add(mul(u,v), w) *)
let subgraph2 () =
  let b = G.Builder.create () in
  let u = G.Builder.add0 b (Op.Input "u") in
  let v = G.Builder.add0 b (Op.Input "v") in
  let w = G.Builder.add0 b (Op.Input "w") in
  let d = G.Builder.add0 b (Op.Const 7) in
  let m = G.Builder.add2 b Op.Mul u v in
  let b3 = G.Builder.add2 b Op.Add m w in
  let b2 = G.Builder.add2 b Op.Add b3 d in
  ignore (G.Builder.add1 b (Op.Output "o") b2);
  Pattern.of_graph (G.Builder.finish b)

let count_kind (dp : D.t) kind =
  Array.fold_left
    (fun acc (n : D.node) ->
      match (n.kind, kind) with
      | D.Fu k, `Fu k' when String.equal k k' -> acc + 1
      | D.Creg, `Creg -> acc + 1
      | D.In_port, `In -> acc + 1
      | D.Bit_in_port, `Bit_in -> acc + 1
      | _ -> acc)
    0 dp.nodes

(* evaluate a datapath config against the golden interpretation of the
   pattern it claims to implement *)
let config_matches_pattern dp (cfg : D.config) (p : Pattern.t) st =
  let pg = Pattern.graph p in
  let env_named = Interp.random_env st pg in
  let dp_env =
    List.map
      (fun (pat_input, port) ->
        let name =
          match (G.node pg pat_input).op with
          | Op.Input n | Op.Bit_input n -> n
          | _ -> assert false
        in
        (port, List.assoc name env_named))
      cfg.inputs
  in
  let golden = Interp.run pg env_named in
  let actual = D.evaluate dp cfg ~env:dp_env in
  List.for_all2
    (fun (_, expected) (_, got) -> expected = got)
    golden
    (List.sort compare actual)

(* --- datapath basics --- *)

let test_of_pattern_structure () =
  let dp = D.of_pattern (subgraph1 ()) in
  (match D.validate dp with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m);
  check int "alus" 2 (count_kind dp (`Fu "alu"));
  check int "cregs" 1 (count_kind dp `Creg);
  check int "inputs" 2 (count_kind dp `In);
  check int "configs" 1 (List.length dp.configs);
  check int "outputs" 1 (D.n_outputs dp)

let test_of_pattern_evaluates () =
  let p = subgraph1 () in
  let dp = D.of_pattern p in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    Alcotest.(check bool) "golden match" true
      (config_matches_pattern dp (List.hd dp.configs) p st)
  done

(* --- proven widths on datapath nodes --- *)

(* x&0xff + y&0xff: the adder FU is provably 9 bits wide *)
let narrow_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let m = G.Builder.add0 b (Op.Const 0xff) in
  let xl = G.Builder.add2 b Op.And x m in
  let yl = G.Builder.add2 b Op.And y m in
  let s = G.Builder.add2 b Op.Add xl yl in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  Pattern.of_graph (G.Builder.finish b)

let fu_widths (dp : D.t) kind =
  Array.to_list dp.nodes
  |> List.filter_map (fun (n : D.node) ->
         match n.kind with
         | D.Fu k when String.equal k kind -> Some n.width
         | _ -> None)

let test_of_pattern_widths () =
  let dp = D.of_pattern (narrow_pattern ()) in
  (match D.validate dp with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m);
  Alcotest.(check (list int)) "the And FUs carry 8 proven bits" [ 8; 8 ]
    (fu_widths dp "logic");
  Alcotest.(check (list int)) "the Add FU carries 9 proven bits" [ 9 ]
    (fu_widths dp "alu");
  (* full-width patterns keep natural widths *)
  let full = D.of_pattern (subgraph1 ()) in
  Alcotest.(check (list int)) "unmasked adds stay 16-bit" [ 16; 16 ]
    (fu_widths full "alu")

let test_merge_joins_widths () =
  (* merging a narrow pattern into a full-width datapath must keep the
     shared FU wide enough for both: widths join by max *)
  let wide = D.of_pattern (subgraph1 ()) in
  let merged, _ = Merge.merge wide (narrow_pattern ()) in
  (match D.validate merged with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid after merge: %s" m);
  List.iter
    (fun w -> check int "shared alu stays full width" 16 w)
    (fu_widths merged "alu");
  (* and the narrow direction: two narrow patterns merge narrow *)
  let narrow = D.of_pattern (narrow_pattern ()) in
  let merged2, _ = Merge.merge narrow (narrow_pattern ()) in
  Alcotest.(check bool) "narrow merge keeps the 9-bit adder" true
    (List.for_all (fun w -> w = 9) (fu_widths merged2 "alu"));
  (* width-aware area: the narrow datapath is cheaper than the same
     structure at full width *)
  Alcotest.(check bool) "narrow datapath is smaller" true
    (D.area narrow < D.area (D.of_pattern (subgraph1 ())))

(* --- Fig. 5 merge --- *)

let test_fig5_merge () =
  let p1 = subgraph1 () and p2 = subgraph2 () in
  let dp1 = D.of_pattern p1 in
  let merged, report = Merge.merge dp1 p2 in
  (match D.validate merged with
  | Ok () -> ()
  | Error m -> Alcotest.failf "merged invalid: %s" m);
  (* both adds of subgraph 2 share the adds of subgraph 1, the constants
     merge, and the mul is new: 2 ALUs + 1 MUL + 1 Creg *)
  check int "alus shared" 2 (count_kind merged (`Fu "alu"));
  check int "one mul" 1 (count_kind merged (`Fu "mul"));
  check int "cregs shared" 1 (count_kind merged `Creg);
  check int "two configs" 2 (List.length merged.configs);
  Alcotest.(check bool) "optimal clique" true report.optimal;
  Alcotest.(check bool) "found opportunities" true (report.n_opportunities > 3);
  Alcotest.(check bool) "saved area" true (report.clique_weight > 0.0)

let test_fig5_configs_still_work () =
  let p1 = subgraph1 () and p2 = subgraph2 () in
  let merged, _ = Merge.merge (D.of_pattern p1) p2 in
  let st = Random.State.make [| 7 |] in
  let cfg1 = List.nth merged.configs 0 and cfg2 = List.nth merged.configs 1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "config 1 (subgraph 1)" true
      (config_matches_pattern merged cfg1 p1 st);
    Alcotest.(check bool) "config 2 (subgraph 2)" true
      (config_matches_pattern merged cfg2 p2 st)
  done

let test_merged_area_below_union () =
  let p1 = subgraph1 () and p2 = subgraph2 () in
  let merged, _ = Merge.merge (D.of_pattern p1) p2 in
  let union, _ = Merge.merge ~strategy:Merge.No_sharing (D.of_pattern p1) p2 in
  Alcotest.(check bool) "merge saves area" true (D.area merged < D.area union)

let test_no_sharing_still_correct () =
  let p1 = subgraph1 () and p2 = subgraph2 () in
  let dp, _ = Merge.merge ~strategy:Merge.No_sharing (D.of_pattern p1) p2 in
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 20 do
    Alcotest.(check bool) "cfg1" true
      (config_matches_pattern dp (List.nth dp.configs 0) p1 st);
    Alcotest.(check bool) "cfg2" true
      (config_matches_pattern dp (List.nth dp.configs 1) p2 st)
  done

let test_commutative_merge () =
  (* add(x, mul(u,v)) and add(mul(u,v), x) should merge onto one
     add + one mul regardless of operand order *)
  let make swap =
    let b = G.Builder.create () in
    let x = G.Builder.add0 b (Op.Input "x") in
    let u = G.Builder.add0 b (Op.Input "u") in
    let v = G.Builder.add0 b (Op.Input "v") in
    let m = G.Builder.add2 b Op.Mul u v in
    let a = if swap then G.Builder.add2 b Op.Add m x else G.Builder.add2 b Op.Add x m in
    ignore (G.Builder.add1 b (Op.Output "o") a);
    Pattern.of_graph (G.Builder.finish b)
  in
  (* note: canonicalization already identifies these two, so force
     distinct patterns by changing one op *)
  let p1 = make false in
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let u = G.Builder.add0 b (Op.Input "u") in
  let v = G.Builder.add0 b (Op.Input "v") in
  let m = G.Builder.add2 b Op.Mul u v in
  let s = G.Builder.add2 b Op.Add m x in
  let t = G.Builder.add2 b Op.Sub s x in
  ignore (G.Builder.add1 b (Op.Output "o") t);
  let p2 = Pattern.of_graph (G.Builder.finish b) in
  let merged, _ = Merge.merge (D.of_pattern p1) p2 in
  check int "single mul" 1 (count_kind merged (`Fu "mul"));
  (* the adds share one ALU; the sub needs a second ALU slot or slice *)
  Alcotest.(check bool) "alus <= 2" true (count_kind merged (`Fu "alu") <= 2);
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "cfg1 ok" true
      (config_matches_pattern merged (List.nth merged.configs 0) p1 st);
    Alcotest.(check bool) "cfg2 ok" true
      (config_matches_pattern merged (List.nth merged.configs 1) p2 st)
  done

let test_merge_chain () =
  let dp, _ = Merge.merge (D.of_pattern (subgraph1 ())) (subgraph2 ()) in
  check int "configs" 2 (List.length dp.configs);
  match D.validate dp with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m

let test_datapath_dot () =
  let merged, _ = Merge.merge (D.of_pattern (subgraph1 ())) (subgraph2 ()) in
  let dot = D.to_dot ~name:"merged" merged in
  let contains s =
    let re = Str.regexp_string s in
    try ignore (Str.search_forward re dot 0); true with Not_found -> false
  in
  Alcotest.(check bool) "header" true (contains "digraph merged");
  Alcotest.(check bool) "alu block" true (contains "alu");
  Alcotest.(check bool) "creg" true (contains "creg");
  (* the Fig. 5 merge inserts a mux: some dashed (multi-source) edge *)
  Alcotest.(check bool) "mux edge" true (contains "style=dashed")

(* --- clique solver --- *)

let test_clique_simple () =
  (* triangle 0-1-2 with weights 1,1,1 plus isolated heavy vertex 3 (w=2.5) *)
  let adj =
    [| [| false; true; true; false |];
       [| true; false; true; false |];
       [| true; true; false; false |];
       [| false; false; false; false |] |]
  in
  let p = { Clique.n = 4; weight = [| 1.0; 1.0; 1.0; 2.5 |]; adj } in
  let s = Clique.solve p in
  Alcotest.(check (list int)) "triangle wins" [ 0; 1; 2 ] s.members;
  Alcotest.(check bool) "optimal" true s.optimal

let test_clique_greedy_can_be_suboptimal () =
  (* greedy picks the heavy vertex first and gets stuck *)
  let adj =
    [| [| false; true; true; false |];
       [| true; false; true; false |];
       [| true; true; false; false |];
       [| false; false; false; false |] |]
  in
  let p = { Clique.n = 4; weight = [| 1.0; 1.0; 1.0; 2.5 |]; adj } in
  let g = Clique.greedy p in
  Alcotest.(check (list int)) "greedy takes heavy" [ 3 ] g

let test_clique_empty () =
  let p = { Clique.n = 0; weight = [||]; adj = [||] } in
  let s = Clique.solve p in
  Alcotest.(check (list int)) "empty" [] s.members

(* --- property: merged datapaths always implement all their patterns --- *)

let random_pattern st =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let words = ref [ x; y ] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let word_ops = [| Op.Add; Op.Sub; Op.Mul; Op.And; Op.Or; Op.Xor; Op.Smax; Op.Umin; Op.Lshr |] in
  let n = 1 + Random.State.int st 4 in
  for _ = 1 to n do
    let op = word_ops.(Random.State.int st (Array.length word_ops)) in
    let a = pick !words and c = pick !words in
    let id = G.Builder.add2 b op a c in
    words := id :: !words
  done;
  ignore (G.Builder.add1 b (Op.Output "o") (List.hd !words));
  Pattern.of_graph (G.Builder.finish b)

let prop_merge_preserves_semantics =
  QCheck.Test.make ~name:"all configs of merged datapaths match golden model"
    ~count:60 QCheck.(int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let k = 2 + Random.State.int st 3 in
      let patterns = List.init k (fun _ -> random_pattern st) in
      let dp =
        List.fold_left
          (fun dp p -> fst (Merge.merge dp p))
          (D.of_pattern (List.hd patterns))
          (List.tl patterns)
      in
      (match D.validate dp with Ok () -> () | Error m -> failwith m);
      (* config i implements pattern i *)
      List.for_all2
        (fun cfg p ->
          List.for_all
            (fun _ -> config_matches_pattern dp cfg p st)
            (List.init 10 Fun.id))
        dp.configs patterns)

let props = List.map QCheck_alcotest.to_alcotest [ prop_merge_preserves_semantics ]

let () =
  Alcotest.run "merging"
    [ ( "datapath",
        [ Alcotest.test_case "of_pattern structure" `Quick test_of_pattern_structure;
          Alcotest.test_case "of_pattern evaluates" `Quick test_of_pattern_evaluates;
          Alcotest.test_case "of_pattern proves widths" `Quick test_of_pattern_widths ] );
      ( "merge",
        [ Alcotest.test_case "Fig. 5: shares adds and consts" `Quick test_fig5_merge;
          Alcotest.test_case "Fig. 5: both configs work" `Quick test_fig5_configs_still_work;
          Alcotest.test_case "merge saves area vs union" `Quick test_merged_area_below_union;
          Alcotest.test_case "no-sharing strategy correct" `Quick test_no_sharing_still_correct;
          Alcotest.test_case "commutative operands merge" `Quick test_commutative_merge;
          Alcotest.test_case "merge chain" `Quick test_merge_chain;
          Alcotest.test_case "datapath dot" `Quick test_datapath_dot;
          Alcotest.test_case "merge joins widths" `Quick test_merge_joins_widths ] );
      ( "clique",
        [ Alcotest.test_case "exact beats heavy vertex" `Quick test_clique_simple;
          Alcotest.test_case "greedy suboptimal case" `Quick test_clique_greedy_can_be_suboptimal;
          Alcotest.test_case "empty problem" `Quick test_clique_empty ] );
      ("properties", props) ]
