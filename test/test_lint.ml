(* Lint engine tests: for every checker, a deliberately corrupted
   artifact must trip its specific APX code, and the nine built-in
   applications must come out clean (the `apex lint --all --werror`
   contract `make ci` relies on). *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Apps = Apex_halide.Apps
module Pattern = Apex_mining.Pattern
module Dp = Apex_merging.Datapath
module Rules = Apex_mapper.Rules
module Cover = Apex_mapper.Cover
module Pe_pipeline = Apex_pipelining.Pe_pipeline
module App_pipeline = Apex_pipelining.App_pipeline
module Diag = Apex_lint.Diagnostic
module Engine = Apex_lint.Engine

let check = Alcotest.check

let codes diags = List.map (fun (d : Diag.t) -> d.Diag.code) diags

let has code diags = List.mem code (codes diags)

let assert_emits what code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s emits %s (got: %s)" what code
       (String.concat "," (codes diags)))
    true (has code diags)

let assert_clean what diags =
  Alcotest.(check (list string)) (what ^ " is clean") [] (codes diags)

let node id op args = { G.id; op; args }

(* --- DFG checker --- *)

let good_graph () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Add x y in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  G.Builder.finish b

let test_dfg_clean () =
  assert_clean "valid graph" (Apex_lint.Checks_dfg.run (good_graph ()))

let test_dfg_id_mismatch () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||]; node 7 (Op.Output "o") [| 0 |] |]
  in
  assert_emits "id/index mismatch" "APX001" (Apex_lint.Checks_dfg.run g)

let test_dfg_arity () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 Op.Add [| 0 |];
         node 2 (Op.Output "o") [| 1 |] |]
  in
  assert_emits "wrong arity" "APX002" (Apex_lint.Checks_dfg.run g)

let test_dfg_topological_order () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 Op.Add [| 0; 2 |];
         node 2 (Op.Input "y") [||];
         node 3 (Op.Output "o") [| 1 |] |]
  in
  assert_emits "forward reference" "APX003" (Apex_lint.Checks_dfg.run g)

let test_dfg_width_mismatch () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 (Op.Input "y") [||];
         node 2 Op.Ult [| 0; 1 |];   (* produces a bit *)
         node 3 Op.Add [| 2; 0 |];   (* port 0 wants a word *)
         node 4 (Op.Output "o") [| 3 |] |]
  in
  assert_emits "bit into word port" "APX004" (Apex_lint.Checks_dfg.run g)

let test_dfg_duplicate_names () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 (Op.Input "x") [||];
         node 2 Op.Add [| 0; 1 |];
         node 3 (Op.Output "o") [| 2 |] |]
  in
  assert_emits "duplicate input name" "APX005" (Apex_lint.Checks_dfg.run g)

let test_dfg_dead_compute () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 (Op.Input "y") [||];
         node 2 Op.Mul [| 0; 1 |];   (* nothing consumes this *)
         node 3 Op.Add [| 0; 1 |];
         node 4 (Op.Output "o") [| 3 |] |]
  in
  assert_emits "dead compute node" "APX006" (Apex_lint.Checks_dfg.run g)

let test_dfg_dangling_input () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 (Op.Input "unused") [||];
         node 2 (Op.Output "o") [| 0 |] |]
  in
  assert_emits "dangling input" "APX007" (Apex_lint.Checks_dfg.run g)

let test_dfg_constant_range () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Const 0x1_0000) [||]; node 1 (Op.Output "o") [| 0 |] |]
  in
  assert_emits "oversized constant" "APX008" (Apex_lint.Checks_dfg.run g)

(* --- datapath checker ---

   A hand-built one-FU subtractor: ports 0 and 1 feed FU 2 both straight
   and crossed, so a config can be structurally valid yet functionally
   wrong (crossed routes compute b - a). *)

let sub_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "a") in
  let y = G.Builder.add0 b (Op.Input "b") in
  let s = G.Builder.add2 b Op.Sub x y in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  Pattern.of_graph (G.Builder.finish b)

let sub_dp () =
  let p = sub_pattern () in
  (* bind pattern inputs by the Sub node's operand order, so the straight
     routing below computes exactly the pattern regardless of how
     canonicalization numbered the inputs *)
  let sub_node =
    Array.to_list (G.nodes (Pattern.graph p))
    |> List.find (fun (nd : G.node) -> nd.G.op = Op.Sub)
  in
  let i0 = sub_node.G.args.(0) and i1 = sub_node.G.args.(1) in
  let nodes =
    [| { Dp.id = 0; kind = Dp.In_port; ops = []; width = 16 };
       { Dp.id = 1; kind = Dp.In_port; ops = []; width = 16 };
       { Dp.id = 2; kind = Dp.Fu (Op.kind Op.Sub); ops = [ Op.Sub ]; width = 16 } |]
  in
  let edges =
    [ { Dp.src = 0; dst = 2; port = 0 };
      { Dp.src = 1; dst = 2; port = 1 };
      { Dp.src = 1; dst = 2; port = 0 };
      { Dp.src = 0; dst = 2; port = 1 } ]
  in
  let cfg =
    { Dp.label = Pattern.code p;
      fu_ops = [ (2, Op.Sub) ];
      routes = [ ((2, 0), 0); ((2, 1), 1) ];
      consts = [];
      inputs = [ (i0, 0); (i1, 1) ];
      outputs = [ (0, 2) ] }
  in
  (p, cfg, { Dp.nodes; edges; configs = [ cfg ] })

let run_dp ?patterns dp = Apex_lint.Checks_datapath.run ?patterns dp

let test_dp_clean () =
  let p, _, dp = sub_dp () in
  assert_clean "valid datapath" (run_dp ~patterns:[ p ] dp)

let test_dp_duplicate_edge () =
  let p, _, dp = sub_dp () in
  let dp = { dp with Dp.edges = List.hd dp.Dp.edges :: dp.Dp.edges } in
  assert_emits "duplicate edge" "APX020" (run_dp ~patterns:[ p ] dp)

let test_dp_static_cycle () =
  let alu = Op.kind Op.Add in
  let dp =
    { Dp.nodes =
        [| { Dp.id = 0; kind = Dp.Fu alu; ops = [ Op.Add ]; width = 16 };
           { Dp.id = 1; kind = Dp.Fu alu; ops = [ Op.Add ]; width = 16 } |];
      edges =
        [ { Dp.src = 0; dst = 1; port = 0 }; { Dp.src = 1; dst = 0; port = 0 } ];
      configs = [] }
  in
  assert_emits "static cycle" "APX022" (run_dp dp)

let test_dp_missing_route_edge () =
  let p, cfg, dp = sub_dp () in
  let cfg = { cfg with Dp.routes = [ ((2, 0), 2); ((2, 1), 1) ] } in
  let dp = { dp with Dp.configs = [ cfg ] } in
  assert_emits "route over missing edge" "APX023" (run_dp ~patterns:[ p ] dp)

let test_dp_inexhaustive_selects () =
  let p, cfg, dp = sub_dp () in
  let cfg = { cfg with Dp.routes = [ ((2, 0), 0) ] } in
  let dp = { dp with Dp.configs = [ cfg ] } in
  assert_emits "port without route" "APX024" (run_dp ~patterns:[ p ] dp)

let test_dp_output_selects () =
  (* the two output-select faults that make a registered config
     undecodable: an exposed FU left inactive, and two nodes competing
     for one output position *)
  let p, cfg, dp = sub_dp () in
  let dead = { Dp.id = 3; kind = Dp.Fu (Op.kind Op.Mul); ops = [ Op.Mul ]; width = 16 } in
  let cfg = { cfg with Dp.outputs = [ (0, 2); (1, 3) ] } in
  let dp =
    { dp with Dp.nodes = Array.append dp.Dp.nodes [| dead |]; configs = [ cfg ] }
  in
  assert_emits "exposed inactive FU" "APX023" (run_dp ~patterns:[ p ] dp);
  let p, cfg, dp = sub_dp () in
  let cfg = { cfg with Dp.outputs = [ (0, 2); (0, 0) ] } in
  let dp = { dp with Dp.configs = [ cfg ] } in
  assert_emits "two nodes at one output position" "APX023"
    (run_dp ~patterns:[ p ] dp)

let test_dp_coverage () =
  let p, cfg, dp = sub_dp () in
  let cfg = { cfg with Dp.fu_ops = []; routes = [] } in
  let dp = { dp with Dp.configs = [ cfg ] } in
  assert_emits "coverage broken" "APX025" (run_dp ~patterns:[ p ] dp)

let test_dp_functional_mismatch () =
  (* crossed routes: structurally valid, computes b - a *)
  let p, cfg, dp = sub_dp () in
  let cfg = { cfg with Dp.routes = [ ((2, 0), 1); ((2, 1), 0) ] } in
  let dp = { dp with Dp.configs = [ cfg ] } in
  assert_emits "crossed routes" "APX026" (run_dp ~patterns:[ p ] dp)

let test_dp_dead_fu () =
  let p, _, dp = sub_dp () in
  let dead = { Dp.id = 3; kind = Dp.Fu (Op.kind Op.Mul); ops = [ Op.Mul ]; width = 16 } in
  let dp = { dp with Dp.nodes = Array.append dp.Dp.nodes [| dead |] } in
  assert_emits "dead FU" "APX027" (run_dp ~patterns:[ p ] dp)

let test_dp_constant_range () =
  let p, cfg, dp = sub_dp () in
  let creg = { Dp.id = 3; kind = Dp.Creg; ops = []; width = 16 } in
  let cfg = { cfg with Dp.consts = [ (3, 0x1_0000) ] } in
  let dp =
    { dp with
      Dp.nodes = Array.append dp.Dp.nodes [| creg |];
      configs = [ cfg ] }
  in
  assert_emits "oversized constant register" "APX028" (run_dp ~patterns:[ p ] dp)

(* --- rule checker --- *)

let sub_rule () =
  let p, cfg, dp = sub_dp () in
  (dp, { Rules.pattern = p; config = cfg; wild_consts = false; size = 1 })

let test_rules_clean () =
  let dp, r = sub_rule () in
  assert_clean "valid rule" (Apex_lint.Checks_rules.run ~dp [ r ])

let test_rules_bad_config () =
  let dp, r = sub_rule () in
  let r =
    { r with
      Rules.config =
        { r.Rules.config with Dp.routes = [ ((2, 0), 2); ((2, 1), 1) ] } }
  in
  let diags = Apex_lint.Checks_rules.run ~dp [ r ] in
  assert_emits "rule with broken config" "APX023" diags;
  (* the datapath's config checks, located at the rule *)
  Alcotest.(check bool) "APX023 located at the rule" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.code = "APX023"
         && d.Diag.loc = Diag.Rule r.Rules.config.Dp.label)
       diags)

let test_rules_unusable () =
  let dp, r = sub_rule () in
  let r = { r with Rules.config = { r.Rules.config with Dp.inputs = [] } } in
  assert_emits "unbound pattern inputs" "APX041"
    (Apex_lint.Checks_rules.run ~dp [ r ])

let test_rules_shadowed () =
  let dp, r = sub_rule () in
  assert_emits "duplicate rule" "APX042" (Apex_lint.Checks_rules.run ~dp [ r; r ])

let test_rules_wrong_semantics () =
  let dp, r = sub_rule () in
  let r =
    { r with
      Rules.config =
        { r.Rules.config with Dp.routes = [ ((2, 0), 1); ((2, 1), 0) ] } }
  in
  assert_emits "rule computing the wrong function" "APX043"
    (Apex_lint.Checks_rules.run ~dp [ r ])

let test_rules_library_not_shadowed () =
  (* $c0/$c1 const variants share a canonical code but match different
     concrete sites — the shadowing check must not flag them *)
  let v = Apex.Dse.baseline () in
  let diags =
    Apex_lint.Checks_rules.run ~dp:v.Apex.Variants.dp v.Apex.Variants.rules
  in
  Alcotest.(check (list string))
    "library rules unshadowed" []
    (codes (List.filter (fun (d : Diag.t) -> d.Diag.code = "APX042") diags))

(* --- pipeline checker (on the real flow's artifacts) --- *)

let gaussian_artifacts =
  lazy
    (let app = Apps.by_name "gaussian" in
     let v = Apex.Dse.pe_k app 2 in
     let plan = Pe_pipeline.plan v.Apex.Variants.dp in
     let mapped = Cover.map_app ~rules:v.Apex.Variants.rules app.Apps.graph in
     let aplan =
       App_pipeline.balance mapped ~pe_latency:plan.Pe_pipeline.stages
     in
     (v.Apex.Variants.dp, plan, mapped, aplan))

let test_pipe_clean () =
  let dp, plan, mapped, aplan = Lazy.force gaussian_artifacts in
  assert_clean "real PE plan" (Apex_lint.Checks_pipeline.run_pe dp plan);
  assert_clean "real app plan" (Apex_lint.Checks_pipeline.run_app mapped aplan)

let test_pipe_infeasible () =
  let dp, plan, _, _ = Lazy.force gaussian_artifacts in
  let bad = { plan with Pe_pipeline.stages = 1; period_ps = 1.0 } in
  assert_emits "infeasible plan" "APX060"
    (Apex_lint.Checks_pipeline.run_pe dp bad);
  let zero = { plan with Pe_pipeline.stages = 0 } in
  assert_emits "zero stages" "APX060" (Apex_lint.Checks_pipeline.run_pe dp zero)

let test_pipe_reg_accounting () =
  let dp, plan, _, _ = Lazy.force gaussian_artifacts in
  let bad =
    { plan with Pe_pipeline.regs_inserted = plan.Pe_pipeline.regs_inserted + 1 }
  in
  assert_emits "register miscount" "APX061"
    (Apex_lint.Checks_pipeline.run_pe dp bad)

let test_pipe_unbalanced () =
  let _, _, mapped, aplan = Lazy.force gaussian_artifacts in
  (* skew one input of a reconvergent instance by an extra register *)
  let idx =
    let found = ref (-1) in
    Array.iteri
      (fun i (inst : Cover.instance) ->
        if !found < 0 && List.length inst.Cover.inputs >= 2 then found := i)
      mapped.Cover.instances;
    !found
  in
  Alcotest.(check bool) "a reconvergent instance exists" true (idx >= 0);
  let port = fst (List.hd mapped.Cover.instances.(idx).Cover.inputs) in
  let prev =
    Option.value ~default:0
      (List.assoc_opt (idx, port) aplan.App_pipeline.edge_regs)
  in
  let bad =
    { aplan with
      App_pipeline.edge_regs =
        ((idx, port), prev + 1)
        :: List.remove_assoc (idx, port) aplan.App_pipeline.edge_regs }
  in
  assert_emits "unbalanced reconvergence" "APX063"
    (Apex_lint.Checks_pipeline.run_app mapped bad)

let test_pipe_depth () =
  let _, _, mapped, aplan = Lazy.force gaussian_artifacts in
  let bad =
    { aplan with
      App_pipeline.depth_cycles = aplan.App_pipeline.depth_cycles + 1 }
  in
  assert_emits "depth mismatch" "APX064"
    (Apex_lint.Checks_pipeline.run_app mapped bad)

let test_pipe_negative_chain () =
  let _, _, mapped, aplan = Lazy.force gaussian_artifacts in
  let bad =
    { aplan with
      App_pipeline.edge_regs = ((0, -99), -1) :: aplan.App_pipeline.edge_regs }
  in
  assert_emits "negative register chain" "APX065"
    (Apex_lint.Checks_pipeline.run_app mapped bad)

(* --- semantic analysis checker (abstract-interpretation backed) --- *)

let test_analysis_clean () =
  assert_clean "valid graph" (Apex_lint.Checks_analysis.run (good_graph ()))

let test_analysis_rejects_corrupt () =
  (* the analysis assumes a valid graph; corrupt input belongs to the
     structural checkers *)
  assert_clean "corrupt graph skipped"
    (Apex_lint.Checks_analysis.run
       (G.of_nodes_unchecked
          [| node 0 (Op.Input "x") [||]; node 1 Op.Add [| 0 |] |]))

let test_analysis_dead_mux_arm () =
  let b = G.Builder.create () in
  let s = G.Builder.add0 b (Op.Bit_const true) in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let m = G.Builder.add3 b Op.Mux s x y in
  ignore (G.Builder.add1 b (Op.Output "o") m);
  assert_emits "constant mux select" "APX100"
    (Apex_lint.Checks_analysis.run (G.Builder.finish b))

let test_analysis_decided_predicate () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let p = G.Builder.add2 b Op.Slt x x in
  ignore (G.Builder.add1 b (Op.Bit_output "p") p);
  assert_emits "x < x is always false" "APX101"
    (Apex_lint.Checks_analysis.run (G.Builder.finish b))

let test_analysis_saturating_shift () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let k = G.Builder.add0 b (Op.Const 20) in
  let s = G.Builder.add2 b Op.Shl x k in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  assert_emits "shift by 20 saturates" "APX102"
    (Apex_lint.Checks_analysis.run (G.Builder.finish b))

let test_analysis_duplicate_node () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let a1 = G.Builder.add2 b Op.Add x y in
  (* commutative arguments are normalized, so y + x duplicates x + y *)
  let a2 = G.Builder.add2 b Op.Add y x in
  let m = G.Builder.add2 b Op.Mul a1 a2 in
  ignore (G.Builder.add1 b (Op.Output "o") m);
  assert_emits "y + x duplicates x + y" "APX103"
    (Apex_lint.Checks_analysis.run (G.Builder.finish b))

(* --- engine, phase boundaries, catalog and the full-flow contract --- *)

let bad_dfg () =
  G.of_nodes_unchecked [| node 0 (Op.Input "x") [||]; node 1 Op.Add [| 0 |] |]

let test_engine_dispatch () =
  let report =
    Engine.run
      [ Engine.Dfg { label = "good"; graph = good_graph () };
        Engine.Dfg { label = "bad"; graph = bad_dfg () } ]
  in
  check Alcotest.int "two artifacts" 2 report.Engine.artifacts;
  (* each Dfg artifact is visited by the structural, analysis and width
     checkers *)
  check Alcotest.int "six checks" 6 report.Engine.checks;
  Alcotest.(check bool) "findings present" true (report.Engine.findings <> []);
  Alcotest.(check bool) "findings on bad only" true
    (List.for_all
       (fun (f : Engine.finding) -> f.Engine.artifact = "bad")
       report.Engine.findings);
  check Alcotest.int "exit 1 on errors" 1 (Engine.exit_code ~werror:false report);
  match Engine.report_to_json report with
  | Apex_telemetry.Json.Obj fields ->
      Alcotest.(check bool) "json has findings and summary" true
        (List.mem_assoc "findings" fields && List.mem_assoc "summary" fields)
  | _ -> Alcotest.fail "report_to_json must produce an object"

let test_engine_werror () =
  let g =
    G.of_nodes_unchecked
      [| node 0 (Op.Input "x") [||];
         node 1 (Op.Input "y") [||];
         node 2 Op.Mul [| 0; 1 |];
         node 3 Op.Add [| 0; 1 |];
         node 4 (Op.Output "o") [| 3 |] |]
  in
  let report = Engine.run [ Engine.Dfg { label = "warn"; graph = g } ] in
  check Alcotest.int "only warnings" 0 (Engine.errors report);
  check Alcotest.int "warnings do not fail" 0
    (Engine.exit_code ~werror:false report);
  check Alcotest.int "werror promotes" 1 (Engine.exit_code ~werror:true report)

let test_engine_counters () =
  Apex_telemetry.Registry.reset ();
  Apex_telemetry.Registry.enable ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  ignore (Engine.run [ Engine.Dfg { label = "g"; graph = good_graph () } ]);
  Alcotest.(check bool) "lint.checks_run counted" true
    (Apex_telemetry.Counter.get "lint.checks_run" > 0)

let test_engine_solver_free () =
  (* the SAT facts stay with the phases that prove them: building the
     artifacts may call the solver, linting them must not *)
  let module Store = Apex_exec.Store in
  let prev_enabled = Store.enabled () in
  Store.set_enabled false;
  Fun.protect ~finally:(fun () -> Store.set_enabled prev_enabled) @@ fun () ->
  let artifacts =
    Apex.Lint_run.base_artifacts ()
    @ Apex.Lint_run.artifacts_for (Apps.by_name "gaussian")
  in
  Apex_telemetry.Registry.enable ();
  Apex_telemetry.Registry.reset ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  ignore (Engine.run artifacts);
  check Alcotest.int "smt.solver_calls in Engine.run" 0
    (Apex_telemetry.Counter.get "smt.solver_calls")

let test_check_phase_boundary () =
  let bad = [ Engine.Dfg { label = "bad"; graph = bad_dfg () } ] in
  (* inert by default *)
  Apex.Check.verify "test" bad;
  Apex.Check.enable ();
  Fun.protect ~finally:Apex.Check.disable @@ fun () ->
  match Apex.Check.verify "test" bad with
  | () -> Alcotest.fail "Check.verify must abort on errors when enabled"
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the phase (got %S)" m)
        true
        (String.length m >= 11 && String.sub m 0 11 = "Check.test:")

let test_catalog_complete () =
  let catalog_codes =
    List.map (fun (i : Diag.info) -> i.Diag.code_info) Diag.catalog
  in
  Alcotest.(check bool) "codes unique" true
    (List.length catalog_codes
    = List.length (List.sort_uniq compare catalog_codes));
  (* every code the seeded-defect tests rely on is documented *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " in catalog") true (List.mem c catalog_codes))
    [ "APX001"; "APX002"; "APX003"; "APX004"; "APX005"; "APX006"; "APX007";
      "APX008"; "APX020"; "APX022"; "APX023"; "APX024"; "APX025"; "APX026";
      "APX027"; "APX028"; "APX041"; "APX042"; "APX043"; "APX060";
      "APX061"; "APX063"; "APX064"; "APX065"; "APX100"; "APX101"; "APX102";
      "APX103"; "APX110"; "APX111"; "APX112" ]

let test_all_apps_clean () =
  (* raw kernels: structurally clean; the semantic analysis checkers may
     legitimately warn about provable redundancy (camera's clamp chain),
     but only with APX1xx codes *)
  let report = Apex.Lint_run.run (Apex.Lint_run.all_apps ()) in
  check Alcotest.int "no errors on built-in apps" 0 (Engine.errors report);
  List.iter
    (fun (f : Engine.finding) ->
      Alcotest.(check bool)
        (Printf.sprintf "only analysis warnings on raw kernels (got %s)"
           f.Engine.diag.Diag.code)
        true
        (String.length f.Engine.diag.Diag.code = 6
        && String.sub f.Engine.diag.Diag.code 0 4 = "APX1"))
    report.Engine.findings

let test_all_apps_clean_optimized () =
  (* the `apex lint --all --optimize --werror` contract `make ci` relies
     on: optimized kernels are free of semantic redundancy too *)
  Apex.Optimize.enable ();
  Fun.protect ~finally:Apex.Optimize.disable @@ fun () ->
  let report = Apex.Lint_run.run (Apex.Lint_run.all_apps ()) in
  check Alcotest.int "no errors on optimized apps" 0 (Engine.errors report);
  check Alcotest.int "no warnings on optimized apps" 0 (Engine.warnings report);
  check Alcotest.int "werror-clean" 0 (Engine.exit_code ~werror:true report)

let test_lint_independent_of_store () =
  (* the first run misses a fresh store (merging runs width inference on
     the mined patterns), the second hits it (merging is skipped); with
     fresh memos each time, both must lint the same artifacts the same *)
  let module Store = Apex_exec.Store in
  let dir = Filename.temp_file "apex-lint-test" "" in
  Sys.remove dir;
  let prev_dir = Store.cache_dir () and prev_enabled = Store.enabled () in
  Store.set_dir dir;
  Store.set_enabled true;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () ->
      Store.set_dir prev_dir;
      Store.set_enabled prev_enabled;
      if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let lint () =
    Apex.Dse.with_local_memo @@ fun () ->
    Apex.Variants.with_local_memo @@ fun () ->
    (Apex.Lint_run.run [ Apps.by_name "fast" ]).Engine.findings
  in
  let cold = lint () in
  let warm = lint () in
  let show (f : Engine.finding) =
    Printf.sprintf "%s %s: %s" f.Engine.artifact f.Engine.diag.Diag.code
      f.Engine.diag.Diag.message
  in
  check
    Alcotest.(list string)
    "cold and warm store lint alike" (List.map show cold) (List.map show warm);
  Alcotest.(check bool) "identical findings" true (cold = warm)

(* --- width checker (APX11x) and code filters --- *)

(* x&0xff + y&0xff: the sum has 9 live bits, the masked inputs 8 *)
let narrowable_graph () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let m = G.Builder.add0 b (Op.Const 0xff) in
  let xl = G.Builder.add2 b Op.And x m in
  let yl = G.Builder.add2 b Op.And y m in
  let s = G.Builder.add2 b Op.Add xl yl in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  G.Builder.finish b

let test_width_opportunity_note () =
  (* unannotated narrowable graph: one aggregate APX110 note, nothing
     more severe *)
  let diags = Apex_lint.Checks_width.run (narrowable_graph ()) in
  assert_emits "narrowable unannotated graph" "APX110" diags;
  Alcotest.(check bool) "notes only" true
    (List.for_all (fun (d : Diag.t) -> d.Diag.severity = Diag.Note) diags)

let test_width_clean_after_inference () =
  (* a graph annotated by the inference itself carries no width errors *)
  let g = narrowable_graph () in
  let w = Apex_analysis.Width.infer g in
  let g = G.with_widths g w.Apex_analysis.Width.widths in
  let diags = Apex_lint.Checks_width.run g in
  Alcotest.(check bool)
    (Printf.sprintf "no errors after inference (got: %s)"
       (String.concat "," (codes diags)))
    true
    (List.for_all (fun (d : Diag.t) -> d.Diag.severity <> Diag.Error) diags)

let test_width_truncation () =
  let g = narrowable_graph () in
  let w = Array.make (G.length g) 16 in
  (* the Add (node 5) provably needs 9 live bits; claiming 4 is unsound *)
  w.(5) <- 4;
  let g = G.with_widths g w in
  assert_emits "truncating annotation" "APX111" (Apex_lint.Checks_width.run g)

let test_width_out_of_range () =
  let g = narrowable_graph () in
  let w = Array.make (G.length g) 16 in
  w.(0) <- 0;
  let g = G.with_widths g w in
  assert_emits "width 0" "APX111" (Apex_lint.Checks_width.run g)

let test_width_mux_inconsistent () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add0 b (Op.Bit_input "s") in
  let m = G.Builder.add3 b Op.Mux s x y in
  ignore (G.Builder.add1 b (Op.Output "o") m);
  let g = G.Builder.finish b in
  let w = Array.make (G.length g) 16 in
  w.(s) <- 1;
  (* full-width arms through a 4-bit mux *)
  w.(m) <- 4;
  let g = G.with_widths g w in
  assert_emits "narrow mux, wide arms" "APX112"
    (Apex_lint.Checks_width.run g)

let finding code severity =
  { Engine.artifact = "a"; checker = "c";
    diag = Diag.make severity ~code "seeded" }

let test_filter_report () =
  let r =
    { Engine.findings =
        [ finding "APX001" Diag.Error; finding "APX110" Diag.Note;
          finding "APX111" Diag.Error; finding "APX101" Diag.Warning ];
      artifacts = 1; checks = 1 }
  in
  let codes_of r =
    List.map (fun (f : Engine.finding) -> f.Engine.diag.Diag.code)
      r.Engine.findings
  in
  check
    Alcotest.(list string)
    "--only exact" [ "APX001" ]
    (codes_of (Engine.filter_report ~only:[ "APX001" ] r));
  check
    Alcotest.(list string)
    "--only family wildcard" [ "APX110"; "APX111" ]
    (codes_of (Engine.filter_report ~only:[ "APX11x" ] r));
  check
    Alcotest.(list string)
    "--except drops" [ "APX001"; "APX101" ]
    (codes_of (Engine.filter_report ~except:[ "APX11x" ] r));
  check
    Alcotest.(list string)
    "--only then --except" [ "APX111" ]
    (codes_of
       (Engine.filter_report ~only:[ "APX11x" ] ~except:[ "APX110" ] r));
  (* counts and exit codes follow the filtered findings *)
  let f = Engine.filter_report ~only:[ "APX110" ] r in
  check Alcotest.int "filtered errors" 0 (Engine.errors f);
  check Alcotest.int "filtered exit" 0 (Engine.exit_code ~werror:true f);
  check Alcotest.int "counts preserved" 1 f.Engine.artifacts

let test_validate_code () =
  Alcotest.(check bool) "exact code ok" true
    (Result.is_ok (Engine.validate_code "APX110"));
  Alcotest.(check bool) "family ok" true
    (Result.is_ok (Engine.validate_code "APX11x"));
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Engine.validate_code "APX999"));
  Alcotest.(check bool) "unknown family rejected" true
    (Result.is_error (Engine.validate_code "APX9x"));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Engine.validate_code "bogus"))

let () =
  Alcotest.run "lint"
    [ ( "dfg",
        [ Alcotest.test_case "clean" `Quick test_dfg_clean;
          Alcotest.test_case "id mismatch" `Quick test_dfg_id_mismatch;
          Alcotest.test_case "arity" `Quick test_dfg_arity;
          Alcotest.test_case "topological order" `Quick
            test_dfg_topological_order;
          Alcotest.test_case "width mismatch" `Quick test_dfg_width_mismatch;
          Alcotest.test_case "duplicate names" `Quick test_dfg_duplicate_names;
          Alcotest.test_case "dead compute" `Quick test_dfg_dead_compute;
          Alcotest.test_case "dangling input" `Quick test_dfg_dangling_input;
          Alcotest.test_case "constant range" `Quick test_dfg_constant_range ] );
      ( "datapath",
        [ Alcotest.test_case "clean" `Quick test_dp_clean;
          Alcotest.test_case "duplicate edge" `Quick test_dp_duplicate_edge;
          Alcotest.test_case "static cycle" `Quick test_dp_static_cycle;
          Alcotest.test_case "missing route edge" `Quick
            test_dp_missing_route_edge;
          Alcotest.test_case "inexhaustive selects" `Quick
            test_dp_inexhaustive_selects;
          Alcotest.test_case "output selects" `Quick test_dp_output_selects;
          Alcotest.test_case "coverage" `Quick test_dp_coverage;
          Alcotest.test_case "functional mismatch" `Quick
            test_dp_functional_mismatch;
          Alcotest.test_case "dead FU" `Quick test_dp_dead_fu;
          Alcotest.test_case "constant range" `Quick test_dp_constant_range ] );
      ( "rules",
        [ Alcotest.test_case "clean" `Quick test_rules_clean;
          Alcotest.test_case "bad config" `Quick test_rules_bad_config;
          Alcotest.test_case "unusable" `Quick test_rules_unusable;
          Alcotest.test_case "shadowed" `Quick test_rules_shadowed;
          Alcotest.test_case "wrong semantics" `Quick test_rules_wrong_semantics;
          Alcotest.test_case "library not shadowed" `Quick
            test_rules_library_not_shadowed ] );
      ( "pipeline",
        [ Alcotest.test_case "clean" `Quick test_pipe_clean;
          Alcotest.test_case "infeasible" `Quick test_pipe_infeasible;
          Alcotest.test_case "reg accounting" `Quick test_pipe_reg_accounting;
          Alcotest.test_case "unbalanced" `Quick test_pipe_unbalanced;
          Alcotest.test_case "depth" `Quick test_pipe_depth;
          Alcotest.test_case "negative chain" `Quick test_pipe_negative_chain ] );
      ( "analysis",
        [ Alcotest.test_case "clean" `Quick test_analysis_clean;
          Alcotest.test_case "rejects corrupt" `Quick
            test_analysis_rejects_corrupt;
          Alcotest.test_case "dead mux arm" `Quick test_analysis_dead_mux_arm;
          Alcotest.test_case "decided predicate" `Quick
            test_analysis_decided_predicate;
          Alcotest.test_case "saturating shift" `Quick
            test_analysis_saturating_shift;
          Alcotest.test_case "duplicate node" `Quick
            test_analysis_duplicate_node ] );
      ( "width",
        [ Alcotest.test_case "opportunity note" `Quick
            test_width_opportunity_note;
          Alcotest.test_case "clean after inference" `Quick
            test_width_clean_after_inference;
          Alcotest.test_case "truncation" `Quick test_width_truncation;
          Alcotest.test_case "out of range" `Quick test_width_out_of_range;
          Alcotest.test_case "mux inconsistent" `Quick
            test_width_mux_inconsistent ] );
      ( "filters",
        [ Alcotest.test_case "filter report" `Quick test_filter_report;
          Alcotest.test_case "validate code" `Quick test_validate_code ] );
      ( "engine",
        [ Alcotest.test_case "dispatch" `Quick test_engine_dispatch;
          Alcotest.test_case "werror" `Quick test_engine_werror;
          Alcotest.test_case "telemetry counters" `Quick test_engine_counters;
          Alcotest.test_case "solver-free" `Quick test_engine_solver_free;
          Alcotest.test_case "phase boundary" `Quick test_check_phase_boundary;
          Alcotest.test_case "catalog" `Quick test_catalog_complete;
          Alcotest.test_case "all apps clean" `Quick test_all_apps_clean;
          Alcotest.test_case "all apps clean (optimized)" `Quick
            test_all_apps_clean_optimized;
          Alcotest.test_case "cold and warm store alike" `Quick
            test_lint_independent_of_store ] ) ]
