(* Configuration-space static analysis: the SAT encoding's verdicts on
   the ready-made PE library, the validated-pruning contract (pruned
   datapaths stay structurally valid and functionally equivalent, any
   proof failure reverts), the mutual-exclusion gating facts the energy
   model consumes, the adversarial corners of [Datapath.evaluate] the
   analysis leans on, the survey's dead-resource facts, and the
   structural lint findings on an unrealizable config. *)

module D = Apex_merging.Datapath
module Op = Apex_dfg.Op
module Cs = Apex_verif.Configspace
module Library = Apex_peak.Library
module Engine = Apex_lint.Engine
module Json = Apex_telemetry.Json

let check = Alcotest.check

(* --- n_config_bits / mux_points consistency ---------------------- *)

(* Independent recomputation of the config-word price from the public
   accessors: FU op selects + narrowed Creg widths + mux selects (one
   per [mux_points] entry) + output selects + the active bit.  Guards
   the invariant the configspace encoding relies on: every bit
   [n_config_bits] prices corresponds to a select the SAT instance
   models. *)
let recomputed_config_bits (dp : D.t) =
  let log2ceil n =
    let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
    if n <= 1 then 0 else go 0 1
  in
  let fu_bits =
    Array.fold_left
      (fun acc (n : D.node) ->
        match n.D.kind with
        | D.Fu _ ->
            acc + log2ceil (List.length (List.sort_uniq Op.compare n.D.ops))
        | D.Creg -> acc + n.D.width
        | D.In_port | D.Bit_in_port -> acc)
      0 dp.D.nodes
  in
  let mux_bits =
    List.fold_left (fun acc (_, n) -> acc + log2ceil n) 0 (D.mux_points dp)
  in
  let out_bits =
    (* candidates per output position over all configs *)
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (c : D.config) ->
        List.iter
          (fun (pos, node) ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl pos) in
            if not (List.mem node prev) then Hashtbl.replace tbl pos (node :: prev))
          c.D.outputs)
      dp.D.configs;
    Hashtbl.fold (fun _ cands acc -> acc + log2ceil (List.length cands)) tbl 0
  in
  fu_bits + mux_bits + out_bits + 1

let test_config_bits_invariant () =
  let dps =
    [ ("baseline", Library.baseline ());
      ("alu-only", Library.subset ~ops:[ Op.Add; Op.Sub ]) ]
  in
  List.iter
    (fun (name, dp) ->
      check Alcotest.int name (recomputed_config_bits dp) (D.n_config_bits dp))
    dps

(* --- adversarial Datapath.evaluate corners ----------------------- *)

let tiny_dp () =
  (* in0, in1 -> alu(add); port 0 is a 2-way mux (in0 or in1) *)
  { D.nodes =
      [| { D.id = 0; kind = D.In_port; ops = []; width = 16 };
         { D.id = 1; kind = D.In_port; ops = []; width = 16 };
         { D.id = 2; kind = D.Fu "alu"; ops = [ Op.Add ]; width = 16 } |];
    edges =
      [ { D.src = 0; dst = 2; port = 0 };
        { D.src = 1; dst = 2; port = 0 };
        { D.src = 1; dst = 2; port = 1 } ];
    configs =
      [ { D.label = "t";
          fu_ops = [ (2, Op.Add) ];
          routes = [ ((2, 0), 0); ((2, 1), 1) ];
          consts = [];
          inputs = [ (0, 0); (1, 1) ];
          outputs = [ (0, 2) ] } ] }

let eval_raises dp cfg ~env frag =
  match D.evaluate dp cfg ~env with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" frag
  | exception Invalid_argument m ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S (got %S)" frag m)
        true
        (let re = Str.regexp_string frag in
         match Str.search_forward re m 0 with
         | _ -> true
         | exception Not_found -> false)

let test_evaluate_out_of_range () =
  let dp = tiny_dp () in
  let cfg = List.hd dp.D.configs in
  (* a route that names a node outside the table *)
  let bad_route = { cfg with D.routes = [ ((2, 0), 99); ((2, 1), 1) ] } in
  eval_raises dp bad_route ~env:[ (0, 1); (1, 2) ] "non-existent node 99";
  (* an output that names a node outside the table *)
  let bad_out = { cfg with D.outputs = [ (0, -3) ] } in
  eval_raises dp bad_out ~env:[ (0, 1); (1, 2) ] "non-existent node -3";
  (* unset input and inactive FU still raise with the documented text *)
  eval_raises dp cfg ~env:[ (1, 2) ] "input 0 unset";
  eval_raises dp { cfg with D.fu_ops = [] } ~env:[ (0, 1); (1, 2) ] "inactive"

let test_evaluate_first_match () =
  let dp = tiny_dp () in
  let cfg = List.hd dp.D.configs in
  (* duplicate env binding: the earliest wins *)
  let r = D.evaluate dp cfg ~env:[ (0, 10); (0, 99); (1, 5) ] in
  check Alcotest.(list (pair int int)) "env first match" [ (0, 15) ] r;
  (* duplicate route binding: the earliest wins (port 0 reads in1) *)
  let dup =
    { cfg with D.routes = [ ((2, 0), 1); ((2, 0), 0); ((2, 1), 1) ] }
  in
  let r = D.evaluate dp dup ~env:[ (0, 10); (1, 5) ] in
  check Alcotest.(list (pair int int)) "route first match" [ (0, 10) ] r

let test_evaluate_route_without_edge () =
  (* routes are followed whether or not a static edge exists; catching
     the mismatch is validate's job, not the evaluator's *)
  let dp = tiny_dp () in
  let cfg = List.hd dp.D.configs in
  let phantom = { cfg with D.routes = [ ((2, 0), 0); ((2, 1), 0) ] } in
  let r = D.evaluate dp phantom ~env:[ (0, 7); (1, 100) ] in
  check Alcotest.(list (pair int int)) "phantom route evaluates" [ (0, 14) ] r;
  let dp' = { dp with D.configs = [ phantom ] } in
  (match D.validate dp' with
  | Ok () -> Alcotest.fail "validate accepted a route with no static edge"
  | Error _ -> ());
  (* the config-space encoding refuses the phantom route too: no select
     variable exists for a source that has no edge *)
  Alcotest.(check (option bool))
    "phantom route unrealizable" (Some false)
    (Cs.config_realizable dp' phantom)

(* --- realizability and validated pruning on the PE library -------- *)

let test_library_realizable () =
  let dp = Library.baseline () in
  let s = Cs.survey dp in
  check Alcotest.(list string) "no unrealizable configs" [] s.Cs.unrealizable;
  check Alcotest.(list string) "no budget exhaustion" [] s.Cs.unknown;
  check Alcotest.int "every config realizable"
    (List.length dp.D.configs)
    (List.length s.Cs.realizable);
  (* the library's generic routing fabric carries arms no registered
     config selects: reachability must find them, and pruning them must
     save config bits *)
  Alcotest.(check bool) "dead arms found" true (s.Cs.unreachable <> []);
  Alcotest.(check bool) "bits saved" true (s.Cs.bits_reachable < s.Cs.bits_total)

let input_env (dp : D.t) (cfg : D.config) =
  (* Bind every input port.  Ports the config declares get a value
     keyed by the pattern-side id — stable across the pruning renumber
     — and undeclared ports (shared-input encodings read them without
     listing them) get the constant 1 on both sides. *)
  let declared port =
    List.find_opt (fun (_, p) -> p = port) cfg.D.inputs
  in
  Array.to_list dp.D.nodes
  |> List.filter_map (fun (n : D.node) ->
         match n.D.kind with
         | D.In_port | D.Bit_in_port ->
             let v =
               match declared n.D.id with
               | Some (pn, _) -> 0x2b + (31 * pn)
               | None -> 1
             in
             Some (n.D.id, v land ((1 lsl n.D.width) - 1))
         | D.Fu _ | D.Creg -> None)

let test_analyze_prunes_and_preserves () =
  let dp = Library.baseline () in
  let report, pruned = Cs.analyze ~label:"baseline" dp in
  Alcotest.(check bool) "not reverted" false report.Cs.reverted;
  Alcotest.(check bool) "not degraded" false report.Cs.degraded;
  Alcotest.(check bool) "edges pruned" true (report.Cs.pruned_edges > 0);
  check Alcotest.int "every config proven"
    (List.length dp.D.configs)
    report.Cs.proofs_proved;
  check Alcotest.int "no tested-only proofs" 0 report.Cs.proofs_tested;
  (match D.validate pruned with
  | Ok () -> ()
  | Error m -> Alcotest.failf "pruned datapath invalid: %s" m);
  Alcotest.(check bool) "cheaper encoding" true
    (D.n_config_bits pruned < D.n_config_bits dp);
  (* functional equivalence, config by config *)
  List.iter2
    (fun (c0 : D.config) (c1 : D.config) ->
      check Alcotest.string "config order preserved" c0.D.label c1.D.label;
      check
        Alcotest.(list (pair int int))
        ("config " ^ c0.D.label)
        (D.evaluate dp c0 ~env:(input_env dp c0))
        (D.evaluate pruned c1 ~env:(input_env pruned c1)))
    dp.D.configs pruned.D.configs

let test_report_deterministic () =
  let j () =
    Json.to_string
      (Cs.report_to_json (fst (Cs.analyze ~label:"det" (Library.baseline ()))))
  in
  check Alcotest.string "byte-identical reports" (j ()) (j ())

let test_fault_degrades_to_tested () =
  let dp = Library.baseline () in
  let _, pruned_clean = Cs.analyze ~label:"clean" dp in
  let report, pruned_faulted =
    Fun.protect
      ~finally:(fun () -> Apex_guard.Fault.disarm ())
      (fun () ->
        Apex_guard.Fault.arm "configspace-smt-exhaust";
        Cs.analyze ~label:"faulted" dp)
  in
  Alcotest.(check bool) "degraded" true report.Cs.degraded;
  Alcotest.(check bool) "not reverted" false report.Cs.reverted;
  check Alcotest.int "all proofs tested-only"
    (List.length dp.D.configs)
    report.Cs.proofs_tested;
  check Alcotest.int "no SMT proofs" 0 report.Cs.proofs_proved;
  (* the ladder's contract: differential evidence keeps the identical
     pruned datapath *)
  Alcotest.(check bool) "identical pruning" true
    (pruned_faulted = pruned_clean)

(* --- mutual exclusion feeds the energy model --------------------- *)

let test_gating_discount () =
  let dp = Library.baseline () in
  let gated = Cs.gated_fus dp in
  Alcotest.(check bool) "library has gated FUs" true (gated <> []);
  let cliques = Cs.exclusion_cliques dp in
  List.iter
    (fun c ->
      Alcotest.(check bool) "clique size >= 2" true (List.length c >= 2))
    cliques;
  let cfg = List.hd dp.D.configs in
  let e_plain = Apex_peak.Cost.config_energy dp cfg in
  let e_gated =
    Apex_peak.Cost.config_energy ~gated:(Cs.gated_predicate dp) dp cfg
  in
  Alcotest.(check bool)
    (Printf.sprintf "gating lowers config energy (%.3f < %.3f)" e_gated e_plain)
    true (e_gated < e_plain)

(* --- survey facts, and what lint reports of them ----------------- *)

module Diag = Apex_lint.Diagnostic

(* does linting [dp] report [code] at [loc] with [message]? *)
let lint_reports dp ~code ~loc ?message () =
  let report = Engine.run [ Engine.Datapath { label = "t"; dp; patterns = [] } ] in
  List.exists
    (fun (f : Engine.finding) ->
      let d = f.Engine.diag in
      d.Diag.code = code && d.Diag.loc = loc
      && Option.fold ~none:true ~some:(String.equal d.Diag.message) message)
    report.Engine.findings

let test_lint_unrealizable () =
  (* the config exposes FU 2 as an output but never activates it: no
     legal word satisfies both; lint names the same fault structurally *)
  let dp = tiny_dp () in
  let cfg = List.hd dp.D.configs in
  let dp = { dp with D.configs = [ { cfg with D.fu_ops = [] } ] } in
  let s = Cs.survey dp in
  check Alcotest.(list string) "unrealizable" [ "t" ] s.Cs.unrealizable;
  Alcotest.(check bool) "APX023 exposes an inactive FU" true
    (lint_reports dp ~code:"APX023" ~loc:(Diag.Config "t")
       ~message:"exposes FU 2, which the config leaves inactive" ())

let test_lint_dead_resources () =
  let dp = tiny_dp () in
  let dp =
    { dp with
      D.nodes =
        Array.append dp.D.nodes
          (* an isolated FU: no inputs can ever feed it, so it is
             SAT-dead, not merely unused-by-registered-configs *)
          [| { D.id = 3; kind = D.Fu "alu"; ops = [ Op.Add; Op.Sub ];
               width = 16 } |] }
  in
  let s = Cs.survey dp in
  Alcotest.(check bool) "dead FU" true
    (List.mem (Cs.Fu_r 3, Cs.Dead) s.Cs.unreachable);
  (* the in1 -> alu.0 mux arm is never routed *)
  let fanin = D.mux_points dp in
  Alcotest.(check bool) "dead mux arm" true
    (List.exists
       (function
         | Cs.Edge_r { dst; port; _ }, _ -> List.mem_assoc (dst, port) fanin
         | _ -> false)
       s.Cs.unreachable);
  Alcotest.(check bool)
    (Printf.sprintf "over-encoding (%d > %d bits)" s.Cs.bits_total
       s.Cs.bits_reachable)
    true
    (s.Cs.bits_total > s.Cs.bits_reachable);
  (* lint's structural view: no registered config uses the FU *)
  Alcotest.(check bool) "APX027 on the isolated FU" true
    (lint_reports dp ~code:"APX027" ~loc:(Diag.Node 3) ());
  (* and analyze removes all of it with proofs intact *)
  let report, pruned = Cs.analyze ~label:"dead" dp in
  Alcotest.(check bool) "not reverted" false report.Cs.reverted;
  check Alcotest.int "isolated FU pruned" 3 (Array.length pruned.D.nodes);
  Alcotest.(check bool) "pruned survey has nothing unreachable" true
    ((Cs.survey pruned).Cs.unreachable = [])

(* --- serve job kind ---------------------------------------------- *)

let test_jobs_roundtrip () =
  let job = Apex.Jobs.Configs { apps = [ "camera"; "harris" ] } in
  check Alcotest.string "kind" "configspace" (Apex.Jobs.kind job);
  Alcotest.(check bool) "wire roundtrip" true
    (Apex.Jobs.of_json (Apex.Jobs.to_json job) = job)

let () =
  Alcotest.run "configspace"
    [ ( "encoding",
        [ Alcotest.test_case "config-bits invariant" `Quick
            test_config_bits_invariant;
          Alcotest.test_case "library realizable" `Quick
            test_library_realizable ] );
      ( "evaluate",
        [ Alcotest.test_case "out-of-range references" `Quick
            test_evaluate_out_of_range;
          Alcotest.test_case "first-matching-key semantics" `Quick
            test_evaluate_first_match;
          Alcotest.test_case "route without static edge" `Quick
            test_evaluate_route_without_edge ] );
      ( "pruning",
        [ Alcotest.test_case "prunes and preserves" `Quick
            test_analyze_prunes_and_preserves;
          Alcotest.test_case "deterministic report" `Quick
            test_report_deterministic;
          Alcotest.test_case "fault degrades to tested" `Quick
            test_fault_degrades_to_tested ] );
      ( "gating",
        [ Alcotest.test_case "energy discount" `Quick test_gating_discount ] );
      ( "lint",
        [ Alcotest.test_case "unrealizable config" `Quick
            test_lint_unrealizable;
          Alcotest.test_case "dead resources" `Quick test_lint_dead_resources ] );
      ( "jobs",
        [ Alcotest.test_case "configspace job codec" `Quick
            test_jobs_roundtrip ] ) ]
