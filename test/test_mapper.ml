(* Tests for rewrite rules and instruction selection, including the
   post-mapping functional check against the golden interpreter. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Pattern = Apex_mining.Pattern
module Analysis = Apex_mining.Analysis
module D = Apex_merging.Datapath
module Merge = Apex_merging.Merge
module Library = Apex_peak.Library
module Rules = Apex_mapper.Rules
module Cover = Apex_mapper.Cover
module Apps = Apex_halide.Apps

let check = Alcotest.check
let int = Alcotest.int

let baseline = Library.baseline ()

let baseline_rules = Rules.single_op_rules baseline

(* --- rules --- *)

let test_single_op_rules_exist () =
  (* one plain rule per baseline op plus const variants for binary ops *)
  let labels = List.map (fun (r : Rules.t) -> r.config.D.label) baseline_rules in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("rule " ^ l) true (List.mem l labels))
    [ "add"; "sub"; "mul"; "smax"; "lshr"; "add$c0"; "add$c1"; "mul$c1"; "mux" ]

let test_const_rules_are_wild () =
  List.iter
    (fun (r : Rules.t) ->
      let is_const_variant =
        match String.index_opt r.config.D.label '$' with
        | Some i -> r.config.D.label.[i + 1] = 'c'
        | None -> false
      in
      Alcotest.(check bool) (r.config.D.label ^ " wildness") is_const_variant
        r.wild_consts)
    baseline_rules

let test_pattern_rule_from_merge () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add m z in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  let p = Pattern.of_graph (G.Builder.finish b) in
  let dp = Library.subset ~ops:[ Op.Add; Op.Mul ] in
  let merged, _ = Merge.merge dp p in
  match Rules.pattern_rule merged p with
  | None -> Alcotest.fail "no rule for merged pattern"
  | Some r -> check int "covers 2 ops" 2 r.size

(* --- mapping applications with the baseline PE --- *)

let golden_env st g =
  Interp.random_env st g

let map_and_check ?(n_tests = 25) app_name rules dp =
  let app = (Apps.by_name app_name).graph in
  let mapped = Cover.map_app ~rules app in
  (* every mapped app must simulate identically to the golden model *)
  let st = Random.State.make [| 77 |] in
  for _ = 1 to n_tests do
    let env = golden_env st app in
    let golden = List.sort compare (Interp.run app env) in
    let actual = List.sort compare (Cover.run mapped dp env) in
    if golden <> actual then
      Alcotest.failf "%s: mapped simulation diverges from golden" app_name
  done;
  mapped

let test_map_gaussian_baseline () =
  let mapped = map_and_check "gaussian" baseline_rules baseline in
  Alcotest.(check bool) "uses PEs" true (Cover.n_pes mapped > 10);
  check int "covers everything" (List.length (G.compute_ids (Apps.by_name "gaussian").graph))
    (Cover.ops_covered mapped)

let test_map_all_apps_baseline () =
  List.iter
    (fun (a : Apps.t) ->
      ignore (map_and_check ~n_tests:5 a.name baseline_rules baseline))
    (Apps.evaluated () @ Apps.unseen ())

let test_map_specialized_fewer_pes () =
  (* merge the top mined patterns of gaussian into its PE 1 and check
     that mapping needs fewer PEs with at least the same coverage *)
  let app = Apps.by_name "gaussian" in
  let ranked, _ = Analysis.analyze app.graph in
  let top =
    List.filteri (fun i _ -> i < 2) ranked
    |> List.map (fun r -> r.Analysis.pattern)
  in
  let pe1 = Library.subset ~ops:(Library.ops_of_graph app.graph) in
  let merged =
    List.fold_left (fun dp p -> fst (Merge.merge dp p)) pe1 top
  in
  let rules = Rules.rule_set merged ~patterns:top in
  let base_rules =
    Rules.single_op_rules pe1
  in
  let mapped_base = Cover.map_app ~rules:base_rules app.graph in
  let mapped_spec = Cover.map_app ~rules app.graph in
  Alcotest.(check bool)
    (Printf.sprintf "specialized %d < baseline %d PEs" (Cover.n_pes mapped_spec)
       (Cover.n_pes mapped_base))
    true
    (Cover.n_pes mapped_spec < Cover.n_pes mapped_base);
  (* still functionally correct *)
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 20 do
    let env = golden_env st app.graph in
    let golden = List.sort compare (Interp.run app.graph env) in
    let actual = List.sort compare (Cover.run mapped_spec merged env) in
    if golden <> actual then Alcotest.fail "specialized mapping diverges"
  done

let test_unmappable_without_rules () =
  let app = Apps.by_name "gaussian" in
  let dp = Library.subset ~ops:[ Op.Add ] in
  let rules = Rules.single_op_rules dp in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cover.map_app ~rules app.graph);
       false
     with Cover.Unmappable _ -> true)

let test_simple_first_ablation () =
  let app = Apps.by_name "gaussian" in
  let ranked, _ = Analysis.analyze app.graph in
  let top =
    List.filteri (fun i _ -> i < 2) ranked
    |> List.map (fun r -> r.Analysis.pattern)
  in
  let pe1 = Library.subset ~ops:(Library.ops_of_graph app.graph) in
  let merged = List.fold_left (fun dp p -> fst (Merge.merge dp p)) pe1 top in
  let rules = Rules.rule_set merged ~patterns:top in
  let complex = Cover.map_app ~order:Cover.Complex_first ~rules app.graph in
  let simple = Cover.map_app ~order:Cover.Simple_first ~rules app.graph in
  Alcotest.(check bool)
    (Printf.sprintf "complex-first %d <= simple-first %d PEs"
       (Cover.n_pes complex) (Cover.n_pes simple))
    true
    (Cover.n_pes complex <= Cover.n_pes simple)

let test_utilization_metric () =
  let app = Apps.by_name "gaussian" in
  let mapped = Cover.map_app ~rules:baseline_rules app.graph in
  Alcotest.(check bool) "one op per PE on baseline" true
    (Cover.utilization mapped >= 0.99 && Cover.utilization mapped <= 1.01)

(* A probe shares the caller's successor table across every root.
   Sharing must not change what a probe finds: for every root of every
   app, the shared table yields the same bindings, in the same order, as
   a table built fresh for that one probe — and no probe mutates it. *)
let test_shared_succs_same_bindings () =
  let rule_sets =
    [ ("base", (Apex.Dse.variant_for "base").Apex.Variants.rules);
      ("spec:camera", (Apex.Dse.variant_for "spec:camera").Apex.Variants.rules) ]
  in
  List.iter
    (fun (vname, rules) ->
      List.iter
        (fun (app : Apps.t) ->
          let g = app.graph in
          let shared = G.succs g in
          List.iter
            (fun (rule : Rules.t) ->
              let wild_consts = rule.wild_consts in
              for root = 0 to G.length g - 1 do
                let a =
                  Apex_mining.Match.matches_at ~wild_consts ~succs:shared
                    rule.pattern g ~root
                in
                let b =
                  Apex_mining.Match.matches_at ~wild_consts
                    ~succs:(G.succs g) rule.pattern g ~root
                in
                if a <> b then
                  Alcotest.failf "%s/%s rule %s root %d: bindings differ" vname
                    app.name rule.config.D.label root
              done)
            rules;
          if shared <> G.succs g then
            Alcotest.failf "%s/%s: a probe mutated the successor table" vname
              app.name)
        (Apps.evaluated () @ Apps.unseen ()))
    rule_sets

let () =
  Alcotest.run "mapper"
    [ ( "rules",
        [ Alcotest.test_case "single op rules" `Quick test_single_op_rules_exist;
          Alcotest.test_case "const rules wild" `Quick test_const_rules_are_wild;
          Alcotest.test_case "merged pattern rule" `Quick test_pattern_rule_from_merge ] );
      ( "cover",
        [ Alcotest.test_case "gaussian on baseline" `Quick test_map_gaussian_baseline;
          Alcotest.test_case "all apps map and verify" `Slow test_map_all_apps_baseline;
          Alcotest.test_case "specialization reduces PEs" `Quick test_map_specialized_fewer_pes;
          Alcotest.test_case "unmappable detected" `Quick test_unmappable_without_rules;
          Alcotest.test_case "simple-first ablation" `Quick test_simple_first_ablation;
          Alcotest.test_case "utilization" `Quick test_utilization_metric;
          Alcotest.test_case "shared successor table" `Quick
            test_shared_succs_same_bindings ] ) ]
