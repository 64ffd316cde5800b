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

(* the mapped graph [m] of [g] on [dp] gives the golden model's outputs
   on [n] random environments *)
let agrees_with_golden ?(n = 5) st g m dp =
  List.for_all
    (fun _ ->
      let env = golden_env st g in
      List.sort compare (Interp.run g env)
      = List.sort compare (Cover.run m dp env))
    (List.init n Fun.id)

let map_and_check ?(n_tests = 25) app_name rules dp =
  let app = (Apps.by_name app_name).graph in
  let mapped = Cover.map_app ~rules app in
  (* every mapped app must simulate identically to the golden model *)
  if not (agrees_with_golden ~n:n_tests (Random.State.make [| 77 |]) app mapped dp)
  then Alcotest.failf "%s: mapped simulation diverges from golden" app_name;
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
  if
    not
      (agrees_with_golden ~n:20 (Random.State.make [| 3 |]) app.graph
         mapped_spec merged)
  then Alcotest.fail "specialized mapping diverges"

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

(* --- the cover invariant: an acyclic PE netlist, each node once --- *)

(* every compute node is covered by exactly one instance, no other node
   by any, and the instances' From_pe drivers admit a topological order *)
let check_cover label app (m : Cover.t) =
  let times = Array.make (G.length app) 0 in
  Array.iter
    (fun (i : Cover.instance) ->
      List.iter (fun a -> times.(a) <- times.(a) + 1) i.covered)
    m.instances;
  Array.iter
    (fun (nd : G.node) ->
      let want = if Op.is_compute nd.op then 1 else 0 in
      if times.(nd.id) <> want then
        Alcotest.failf "%s: node %d (%s) covered %d times" label nd.id
          (Op.mnemonic nd.op) times.(nd.id))
    (G.nodes app);
  let k = Cover.n_pes m in
  let waiting = Array.make k 0 and readers = Array.make k [] in
  Array.iter
    (fun (i : Cover.instance) ->
      List.iter
        (function
          | _, Cover.From_pe (j, _) ->
              waiting.(i.id) <- waiting.(i.id) + 1;
              readers.(j) <- i.id :: readers.(j)
          | _, Cover.From_input _ -> ())
        i.inputs)
    m.instances;
  let ready = ref (List.filter (fun i -> waiting.(i) = 0) (List.init k Fun.id)) in
  let ordered = ref 0 in
  while !ready <> [] do
    let i = List.hd !ready in
    ready := List.tl !ready;
    incr ordered;
    List.iter
      (fun r ->
        waiting.(r) <- waiting.(r) - 1;
        if waiting.(r) = 0 then ready := r :: !ready)
      readers.(i)
  done;
  if !ordered <> k then
    Alcotest.failf "%s: PE netlist has a cycle (%d of %d instances ordered)"
      label !ordered k

let test_cover_invariant_kernels () =
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun vname ->
          let v = Apex.Dse.variant_for vname in
          check_cover (vname ^ "/" ^ app.name) app.graph
            (Cover.map_app ~rules:v.Apex.Variants.rules app.graph))
        [ "base"; "ip"; "ml"; "spec:" ^ app.name ])
    (Apps.evaluated () @ Apps.unseen () @ Apps.extended ())

(* the two-sink pattern a = x op0 y feeding b = a op1 z and
   c = a op2 w *)
let fork op0 op1 op2 =
  let b = G.Builder.create () in
  let input s = G.Builder.add0 b (Op.Input s) in
  let x = input "x" and y = input "y" and z = input "z" and w = input "w" in
  let a = G.Builder.add2 b op0 x y in
  ignore (G.Builder.add1 b (Op.Output "b") (G.Builder.add2 b op1 a z));
  ignore (G.Builder.add1 b (Op.Output "c") (G.Builder.add2 b op2 a w));
  Pattern.of_graph (G.Builder.finish b)

(* [patterns] merged into the PE of [ops], with the patterns' rules and
   the single-op ones *)
let pe_with ~ops patterns =
  let dp =
    List.fold_left
      (fun dp p -> fst (Merge.merge dp p))
      (Library.subset ~ops) patterns
  in
  (dp, List.filter_map (Rules.pattern_rule dp) patterns @ Rules.single_op_rules dp)

(* The fork rule add(add, add) on an app where b also reaches c through
   a mul outside the match: grouping {a, b, c} would put the PE on both
   ends of the mul, a netlist cycle.  The match is rejected and
   single-op rules cover the three adds.  Without the path through the
   mul the same rule is taken. *)
let test_cycle_closing_match_rejected () =
  let dp, rules = pe_with ~ops:[ Op.Add; Op.Mul ] [ fork Op.Add Op.Add Op.Add ] in
  check int "fork rule synthesized" 3 (List.hd rules).size;
  let app ~through_b =
    let b = G.Builder.create () in
    let input s = G.Builder.add0 b (Op.Input s) in
    let x = input "x" and y = input "y" and z = input "z" and k = input "k" in
    let a = G.Builder.add2 b Op.Add x y in
    let bb = G.Builder.add2 b Op.Add a z in
    let m = G.Builder.add2 b Op.Mul (if through_b then bb else z) k in
    let c = G.Builder.add2 b Op.Add a m in
    ignore (G.Builder.add1 b (Op.Output "b") bb);
    ignore (G.Builder.add1 b (Op.Output "c") c);
    G.Builder.finish b
  in
  List.iter
    (fun (through_b, pes) ->
      let g = app ~through_b in
      let m = Cover.map_app ~rules g in
      let label = if through_b then "through b" else "beside b" in
      check_cover label g m;
      check int (label ^ ": PEs") pes (Cover.n_pes m);
      if not (agrees_with_golden (Random.State.make [| 5 |]) g m dp) then
        Alcotest.failf "%s: mapped simulation diverges" label)
    [ (true, 4); (false, 2) ]

(* A PE for random DAGs: every operation they draw, plus forks whose
   two sinks are alike.  Over the 600 seeded DAGs below, the covers
   take 124 forks and reject 16 that would close a cycle. *)
let fork_pe =
  lazy
    (let ops = [ Op.Add; Op.Sub; Op.Mul; Op.Smax; Op.And ] in
     pe_with
       ~ops:(Op.Slt :: Op.Mux :: ops)
       (List.concat_map
          (fun op0 -> List.map (fun op -> fork op0 op op) ops)
          [ Op.Add; Op.Sub; Op.Mul ]))

(* a random DAG the PE's single-op rules cover: a DAG with an
   operation on constants alone, or with a constant operand no
   $-variant takes, is redrawn.  Drawn without the fork rules, so a
   cycle-closing fork the cover rejects is never the reason for a
   redraw. *)
let rec coverable_dag st dp =
  let g = Dags.random ~size:150 st in
  match Cover.map_app ~rules:(Rules.single_op_rules dp) g with
  | _ -> g
  | exception Cover.Unmappable _ -> coverable_dag st dp

let prop_cover_invariant =
  QCheck.Test.make ~name:"random DAGs: acyclic netlist, exact cover, same outputs"
    ~count:600 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let dp, rules = Lazy.force fork_pe in
      let g = coverable_dag st dp in
      let m = Cover.map_app ~rules g in
      check_cover (Printf.sprintf "seed %d" seed) g m;
      agrees_with_golden st g m dp)

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
            test_shared_succs_same_bindings;
          Alcotest.test_case "netlist acyclic, cover exact: kernels" `Quick
            test_cover_invariant_kernels;
          Alcotest.test_case "cycle-closing match rejected" `Quick
            test_cycle_closing_match_rejected;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |])
            prop_cover_invariant ] ) ]
