(* Integration tests for the top-level APEX DSE flow. *)

module Apps = Apex_halide.Apps
module Metrics = Apex.Metrics
module Variants = Apex.Variants
module Dse = Apex.Dse
module Pattern = Apex_mining.Pattern

let check = Alcotest.check
let int = Alcotest.int

let gaussian = Apps.by_name "gaussian"

(* --- variants --- *)

let test_baseline_variant () =
  let v = Dse.variant_for "base" in
  Alcotest.(check string) "name" "PE Base" v.Variants.name;
  Alcotest.(check bool) "has rules" true (List.length v.rules > 20);
  check int "no merged patterns" 0 (List.length v.patterns)

let test_pe1_smaller_than_base () =
  let base = Dse.variant_for "base" in
  let pe1 = Dse.variant_for "pe1:gaussian" in
  Alcotest.(check bool) "pe1 area < base" true
    (Apex_merging.Datapath.area pe1.Variants.dp
    < Apex_merging.Datapath.area base.Variants.dp)

let test_specialized_variant_patterns () =
  let v = Dse.variant_for "pek:gaussian:2" in
  check int "two merged subgraphs" 2 (List.length v.Variants.patterns);
  List.iter
    (fun p ->
      Alcotest.(check bool) "pattern is multi-op" true (Pattern.size p >= 2))
    v.patterns

let test_interesting_patterns_filter () =
  let ranked = Dse.analysis_of gaussian in
  let ps = Variants.interesting_patterns ranked in
  Alcotest.(check bool) "nonempty" true (ps <> []);
  List.iter
    (fun p -> Alcotest.(check bool) "size >= 2" true (Pattern.size p >= 2))
    ps

let variant_error_message spec =
  match Dse.variant_for spec with
  | _ -> Alcotest.failf "variant_for %S did not raise" spec
  | exception Invalid_argument msg -> msg

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_mentions spec needles =
  let msg = variant_error_message spec in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg needle)
        true (contains msg needle))
    needles

let test_variant_for_unknown () =
  (* the error names the offending string and lists the accepted forms *)
  check_mentions "nonsense" [ "\"nonsense\""; "accepted forms"; "pek:<app>:<k>" ]

let test_variant_for_unknown_app () =
  check_mentions "spec:nosuchapp" [ "unknown application"; "nosuchapp" ]

let test_variant_for_bad_subgraph_count () =
  check_mentions "pek:gaussian:abc" [ "malformed subgraph count"; "abc" ];
  check_mentions "pek:gaussian:-1" [ "negative subgraph count"; "-1" ]

(* --- metrics: the specialization story --- *)

let test_specialization_monotone_area () =
  (* total PE area must not grow as subgraphs are merged in MIS order
     for the first couple of steps (the Fig. 11 trend) *)
  let area k =
    let v = Dse.variant_for (Printf.sprintf "pek:gaussian:%d" k) in
    let pm, _ = Metrics.post_mapping v gaussian in
    pm.Metrics.total_pe_area
  in
  let a0 = area 0 and a1 = area 1 in
  Alcotest.(check bool)
    (Printf.sprintf "PE2 (%.0f) <= PE1 (%.0f)" a1 a0)
    true (a1 <= a0)

let test_pe_spec_beats_baseline () =
  let base, _ = Metrics.post_mapping (Dse.variant_for "base") gaussian in
  let spec, _ = Metrics.post_mapping (Dse.pe_spec gaussian) gaussian in
  Alcotest.(check bool) "area" true
    (spec.Metrics.total_pe_area < base.Metrics.total_pe_area);
  Alcotest.(check bool) "energy" true
    (spec.Metrics.pe_energy_per_output <= base.Metrics.pe_energy_per_output);
  Alcotest.(check bool) "fewer PEs" true
    (spec.Metrics.n_pes < base.Metrics.n_pes)

let test_post_pnr_includes_interconnect () =
  let v = Dse.variant_for "base" in
  let pnr, _ = Metrics.post_pnr ~effort:0 v gaussian in
  Alcotest.(check bool) "total > PE cores" true
    (pnr.Metrics.total_area > pnr.Metrics.pm.Metrics.total_pe_area);
  Alcotest.(check bool) "SB area positive" true (pnr.sb_area > 0.0);
  Alcotest.(check bool) "CB area positive" true (pnr.cb_area > 0.0);
  Alcotest.(check bool) "energy grows" true
    (pnr.total_energy_per_output > pnr.pm.Metrics.pe_energy_per_output)

(* camera on PE Base with the greedy placement stays 3 boundaries over
   capacity after all 30 negotiation rounds: still priced, but reported
   as a degraded pnr outcome *)
let test_post_pnr_overuse_degraded () =
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  Registry.reset ();
  Registry.enable ();
  Fun.protect ~finally:Registry.disable @@ fun () ->
  let pnr, _ =
    Metrics.post_pnr ~effort:0 (Dse.variant_for "base") (Apps.by_name "camera")
  in
  Alcotest.(check bool) "priced" true (pnr.Metrics.total_area > 0.0);
  check int "cgra.route_overuse" 3 (Counter.get "cgra.route_overuse");
  check int "guard.outcome.degraded" 1 (Counter.get "guard.outcome.degraded");
  check int "guard.degraded.pnr.fuel" 1 (Counter.get "guard.degraded.pnr.fuel");
  Registry.reset ();
  ignore (Metrics.post_pnr ~effort:0 (Dse.variant_for "base") gaussian);
  check int "legal routing: no overuse" 0 (Counter.get "cgra.route_overuse");
  check int "legal routing: not degraded" 0
    (Counter.get "guard.outcome.degraded")

let test_post_pipelining_performance () =
  let v = Dse.variant_for "base" in
  let r, _, _ = Metrics.post_pipelining ~effort:0 v gaussian in
  Alcotest.(check bool) "period at or under pre-pipelining" true
    (r.Metrics.period_ps <= r.Metrics.pre_period_ps);
  Alcotest.(check bool) "post perf >= pre perf" true
    (r.Metrics.perf_per_mm2 >= r.Metrics.pre_perf_per_mm2);
  Alcotest.(check bool) "cycles dominated by firings" true
    (r.Metrics.cycles_per_run > gaussian.outputs_per_run / gaussian.unroll)

let test_domain_variant_covers_all_ip () =
  let ip = Dse.pe_ip () in
  List.iter
    (fun (app : Apps.t) ->
      match Metrics.post_mapping ip app with
      | pm, _ ->
          Alcotest.(check bool)
            (app.name ^ " mapped")
            true
            (pm.Metrics.n_pes > 0)
      | exception Apex_mapper.Cover.Unmappable m ->
          Alcotest.failf "%s unmappable on PE IP: %s" app.name m)
    (Dse.ip_apps ())

let test_domain_generalizes_to_unseen () =
  (* the Fig. 13 claim: PE IP must map the three unseen applications *)
  let ip = Dse.pe_ip () in
  List.iter
    (fun (app : Apps.t) ->
      match Metrics.post_mapping ip app with
      | _, _ -> ()
      | exception Apex_mapper.Cover.Unmappable m ->
          Alcotest.failf "%s unmappable on PE IP: %s" app.name m)
    (Apps.unseen ())

let test_ml_variant_improves_ml () =
  let ml = Dse.pe_ml () in
  let base = Dse.variant_for "base" in
  List.iter
    (fun (app : Apps.t) ->
      let b, _ = Metrics.post_mapping base app in
      let m, _ = Metrics.post_mapping ml app in
      Alcotest.(check bool)
        (app.name ^ ": PE ML fewer PEs")
        true
        (m.Metrics.n_pes < b.Metrics.n_pes))
    (Dse.ml_apps ())

(* runs [f] against a fresh, enabled store in its own directory *)
let with_scratch_store f =
  let module Store = Apex_exec.Store in
  let dir = Filename.temp_file "apex-core-test" "" in
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
    f

let test_analysis_key_covers_config () =
  (* every mining config field is part of the memo and store keys:
     with constants kept exact, gaussian mines more patterns than the
     default (generalized) analysis already memoized and stored *)
  let exact =
    { Apex_mining.Miner.default_config with
      max_size = 4; generalize_consts = false }
  in
  let direct, _ = Apex_mining.Analysis.analyze ~config:exact gaussian.graph in
  with_scratch_store @@ fun () ->
  let exact_count () = List.length (Dse.analysis_of ~config:exact gaussian) in
  Dse.with_local_memo (fun () ->
      let default = Dse.analysis_of gaussian in
      Alcotest.(check bool)
        "exact constants give more patterns" true
        (List.length direct > List.length default);
      check int "memo keeps the configs apart" (List.length direct)
        (exact_count ()));
  Dse.with_local_memo (fun () ->
      ignore (Dse.analysis_of gaussian);
      check int "store keeps the configs apart" (List.length direct)
        (exact_count ()))

let test_configspace_memo () =
  (* the configuration-space analysis is store-memoized in
     Variants.make: a warm build serves it without a solver, replays
     its counters and labels the report with its own name; a degraded
     analysis is never stored *)
  let module Store = Apex_exec.Store in
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  let module Cs = Apex_verif.Configspace in
  Registry.enable ();
  Fun.protect ~finally:(fun () ->
      Apex_guard.Fault.disarm ();
      Registry.disable ();
      Registry.reset ())
  @@ fun () ->
  with_scratch_store @@ fun () ->
  let fresh f =
    Registry.reset ();
    Dse.with_local_memo f
  in
  let configspace_counters () =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"analysis.configspace." k)
      (Registry.snapshot ()).counters
  in
  let build () =
    fresh (fun () ->
        let vs = List.map Dse.variant_for [ "base"; "pek:camera:2"; "ip" ] in
        (vs, configspace_counters (), Counter.get "smt.solver_calls"))
  in
  let cold, cold_counters, cold_calls = build () in
  let warm, warm_counters, warm_calls = build () in
  List.iter2
    (fun (c : Variants.t) (w : Variants.t) ->
      Alcotest.(check bool) (c.name ^ ": datapath") true (c.dp = w.dp);
      Alcotest.(check bool) (c.name ^ ": rules") true (c.rules = w.rules);
      Alcotest.(check bool) (c.name ^ ": report") true
        (c.configspace = w.configspace))
    cold warm;
  Alcotest.(check (list (pair string int)))
    "configspace counters, cold and warm" cold_counters warm_counters;
  Alcotest.(check bool) "the cold builds prove" true (cold_calls > 0);
  check int "the warm builds make no solver call" 0 warm_calls;
  (* one datapath under two names: the second is a hit *)
  let dp = Apex_peak.Library.baseline () in
  let label name =
    match (Variants.make name dp []).configspace with
    | Some r -> r.Cs.label
    | None -> Alcotest.fail "no configspace report"
  in
  Alcotest.(check (pair string string)) "each name labels its report"
    ("A", "B") (label "A", label "B");
  (* a degraded analysis is recomputed, never served *)
  ignore (Store.gc ());
  let entries () =
    List.fold_left
      (fun n (s : Store.ns_stats) ->
        if s.ns = "configspace" then n + s.entries else n)
      0 (Store.stats ())
  in
  let spec () =
    fresh (fun () ->
        let v = Dse.variant_for "pek:camera:2" in
        (Option.get v.configspace, Counter.get "analysis.configspace.proofs_proved"))
  in
  Apex_guard.Fault.arm "configspace-smt-exhaust";
  let faulted, _ = spec () in
  Alcotest.(check bool) "the armed build is degraded" true faulted.Cs.degraded;
  check int "nothing stored" 0 (entries ());
  let clean, proved = spec () in
  Alcotest.(check bool) "the next build is exact" false clean.Cs.degraded;
  Alcotest.(check bool) "and proves again" true (proved > 0);
  check int "and is stored" 1 (entries ())

(* --- where parallelism lives --- *)

let test_only_pair_evaluation_fans_out () =
  (* variant construction (mining, merging, configspace, synthesis) is
     serial whatever --jobs is; only pair evaluation uses the pool *)
  let module Pool = Apex_exec.Pool in
  let module Store = Apex_exec.Store in
  let module Registry = Apex_telemetry.Registry in
  let parallel_batches () =
    Apex_telemetry.Counter.get "exec.pool_parallel_batches"
  in
  let store_was = Store.enabled () in
  let jobs_was = Pool.jobs () in
  Store.set_enabled false;
  Registry.enable ();
  Registry.reset ();
  Pool.set_jobs 4;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_jobs jobs_was;
      Registry.disable ();
      Registry.reset ();
      Store.set_enabled store_was)
  @@ fun () ->
  Dse.with_local_memo @@ fun () ->
  let camera = Apps.by_name "camera" in
  let v = Dse.pe_k camera 2 in
  check int "no parallel batch while building the variant" 0
    (parallel_batches ());
  ignore (Dse.evaluate_pairs ~effort:0 [ (v, camera); (v, gaussian) ]);
  Alcotest.(check bool)
    "pair evaluation runs a parallel batch" true
    (parallel_batches () >= 1)

(* --- DSE jobs: pipelined, deterministic, map once --- *)

let test_dse_job_deterministic_and_maps_once () =
  let module Pool = Apex_exec.Pool in
  let module Store = Apex_exec.Store in
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  let store_was = Store.enabled () in
  let jobs_was = Pool.jobs () in
  Store.set_enabled false;
  Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Pool.set_jobs jobs_was;
      Registry.disable ();
      Registry.reset ();
      Store.set_enabled store_was)
  @@ fun () ->
  let fresh f =
    Registry.reset ();
    Dse.with_local_memo f
  in
  (* the span tree without its timing: names, counts, child order *)
  let rec shape (sp : Registry.span) =
    Printf.sprintf "%s x%d [%s]" sp.name sp.count
      (String.concat "; " (List.map shape (Registry.children_in_order sp)))
  in
  let run job jobs =
    Pool.set_jobs jobs;
    fresh @@ fun () ->
    let results = Apex.Jobs.run job in
    let snap = Registry.snapshot () in
    ( Apex_telemetry.Json.to_string results,
      List.filter
        (fun (k, _) -> not (String.starts_with ~prefix:"exec." k))
        snap.counters,
      shape snap.spans )
  in
  (* the same job at --jobs 1 and 2: results, counters and span tree *)
  let same_at_widths ~apps ~variants =
    let job = Apex.Jobs.Dse { apps; variants } in
    let results1, counters1, spans1 = run job 1 in
    let results2, counters2, spans2 = run job 2 in
    Alcotest.(check string) "results at --jobs 1 and 2" results1 results2;
    Alcotest.(check (list (pair string int))) "counters at --jobs 1 and 2"
      counters1 counters2;
    Alcotest.(check string) "span tree at --jobs 1 and 2" spans1 spans2;
    (spans1, fun k -> Option.value ~default:0 (List.assoc_opt k counters1))
  in
  let spans1, counter =
    same_at_widths ~apps:[ "camera"; "gaussian" ] ~variants:[]
  in
  Alcotest.(check bool) "the tree holds construction and evaluation" true
    (contains spans1 "variant:spec:camera" && contains spans1 "pnr x4");
  check int "both spec pairs reuse the climb's cover" 2
    (counter "dse.covers_reused");
  (* PE 1 first: its pair is built before the climb scores PE 1, so at
     every width it maps PE 1 itself and only the spec pair reuses *)
  let _, pe1_first =
    same_at_widths ~apps:[ "camera" ] ~variants:[ "pe1:camera"; "spec:camera" ]
  in
  check int "only the spec pair reuses a cover" 1
    (pe1_first "dse.covers_reused");
  Pool.set_jobs 1;
  let climbs =
    fresh (fun () ->
        ignore (Dse.variant_for "spec:camera");
        ignore (Dse.variant_for "spec:gaussian");
        Counter.get "mapper.map_app_calls")
  in
  check int "the climbs' mappings plus the two PE Base pairs" (climbs + 2)
    (counter "mapper.map_app_calls");
  (* the covers go with their scope: a spec variant built in one scope
     is mapped again when evaluated in the next *)
  let camera = Apps.by_name "camera" in
  let spec = fresh (fun () -> Dse.variant_for "spec:camera") in
  fresh (fun () ->
      ignore (Dse.evaluate_pairs [ (spec, camera) ]);
      check int "a second scope maps again" 1
        (Counter.get "mapper.map_app_calls");
      check int "and reuses nothing" 0 (Counter.get "dse.covers_reused"))

let () =
  Alcotest.run "core"
    [ ( "variants",
        [ Alcotest.test_case "baseline" `Quick test_baseline_variant;
          Alcotest.test_case "pe1 smaller" `Quick test_pe1_smaller_than_base;
          Alcotest.test_case "specialized patterns" `Quick test_specialized_variant_patterns;
          Alcotest.test_case "interesting filter" `Quick test_interesting_patterns_filter;
          Alcotest.test_case "analysis key covers the config" `Quick
            test_analysis_key_covers_config;
          Alcotest.test_case "configspace memo" `Quick test_configspace_memo;
          Alcotest.test_case "unknown variant" `Quick test_variant_for_unknown;
          Alcotest.test_case "unknown application" `Quick test_variant_for_unknown_app;
          Alcotest.test_case "bad subgraph count" `Quick
            test_variant_for_bad_subgraph_count ] );
      ( "parallelism",
        [ Alcotest.test_case "DSE job deterministic, maps once" `Quick
            test_dse_job_deterministic_and_maps_once;
          Alcotest.test_case "only pair evaluation fans out" `Quick
            test_only_pair_evaluation_fans_out ] );
      ( "metrics",
        [ Alcotest.test_case "specialization shrinks area" `Quick
            test_specialization_monotone_area;
          Alcotest.test_case "PE Spec beats baseline" `Quick test_pe_spec_beats_baseline;
          Alcotest.test_case "post-PnR interconnect" `Quick test_post_pnr_includes_interconnect;
          Alcotest.test_case "post-PnR overuse degrades" `Quick
            test_post_pnr_overuse_degraded;
          Alcotest.test_case "post-pipelining performance" `Quick
            test_post_pipelining_performance ] );
      ( "domains",
        [ Alcotest.test_case "PE IP covers the domain" `Slow test_domain_variant_covers_all_ip;
          Alcotest.test_case "PE IP generalizes" `Slow test_domain_generalizes_to_unseen;
          Alcotest.test_case "PE ML improves ML" `Slow test_ml_variant_improves_ml ] ) ]
