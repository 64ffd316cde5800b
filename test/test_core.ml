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
   capacity after all 30 negotiation rounds: priced as is, and the
   overuse is part of the result, not a degraded outcome *)
let test_post_pnr_overuse_is_result () =
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  Registry.reset ();
  Registry.enable ();
  Fun.protect ~finally:Registry.disable @@ fun () ->
  let pnr, _ =
    Metrics.post_pnr ~effort:0 (Dse.variant_for "base") (Apps.by_name "camera")
  in
  Alcotest.(check bool) "priced" true (pnr.Metrics.total_area > 0.0);
  check int "overuse" 3 pnr.Metrics.overuse;
  check int "cgra.route_overuse" 3 (Counter.get "cgra.route_overuse");
  check int "not degraded" 0 (Counter.get "guard.outcome.degraded");
  Registry.reset ();
  let legal, _ = Metrics.post_pnr ~effort:0 (Dse.variant_for "base") gaussian in
  check int "legal routing: no overuse" 0 legal.Metrics.overuse;
  check int "legal routing: no counter" 0 (Counter.get "cgra.route_overuse")

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

let test_analyze_memo () =
  (* the analyze report is store-memoized on the kernel: a warm run
     serves it without a solver and replays the computing run's
     analysis counters, even when that run was untraced; a report with
     a degraded width inference is never stored *)
  let module Store = Apex_exec.Store in
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  let module Analyze_run = Apex.Analyze_run in
  let module Width = Apex_analysis.Width in
  Registry.enable ();
  Fun.protect ~finally:(fun () ->
      Apex_guard.Fault.disarm ();
      Registry.disable ();
      Registry.reset ())
  @@ fun () ->
  with_scratch_store @@ fun () ->
  let apps = List.map Apps.by_name [ "camera"; "gaussian"; "stereo" ] in
  let analyze apps =
    Registry.reset ();
    let reports = Analyze_run.run apps in
    ( reports,
      Apex_telemetry.Json.to_string (Analyze_run.to_json reports),
      List.filter
        (fun (k, _) ->
          String.starts_with ~prefix:"analysis." k
          || String.starts_with ~prefix:"guard." k)
        (Registry.snapshot ()).counters,
      Counter.get "smt.solver_calls",
      Counter.get "exec.cache_hits" )
  in
  let counters = Alcotest.(list (pair string int)) in
  let _, cold_json, cold_counters, cold_calls, _ = analyze apps in
  let _, warm_json, warm_counters, warm_calls, warm_hits = analyze apps in
  Alcotest.(check string) "report JSON, cold and warm" cold_json warm_json;
  Alcotest.check counters "analysis counters, cold and warm" cold_counters
    warm_counters;
  Alcotest.(check bool) "the cold run proves" true (cold_calls > 0);
  check int "the warm run makes no solver call" 0 warm_calls;
  check int "and hits once per app" 3 warm_hits;
  (* an entry written untraced replays what a traced cold run emits *)
  ignore (Store.gc ());
  Registry.disable ();
  ignore (Analyze_run.run apps);
  Registry.enable ();
  let _, json, replayed, calls, _ = analyze apps in
  check int "the untraced run stored the entries" 0 calls;
  Alcotest.(check string) "its report JSON" cold_json json;
  Alcotest.check counters "its counters" cold_counters replayed;
  (* a degraded report is recomputed, never served *)
  ignore (Store.gc ());
  let entries () =
    List.fold_left
      (fun n (s : Store.ns_stats) ->
        if s.ns = "analyze" then n + s.entries else n)
      0 (Store.stats ())
  in
  let gaussian = [ Apps.by_name "gaussian" ] in
  let width_exact () =
    match analyze gaussian with
    | [ r ], _, _, calls, _ ->
        (r.Analyze_run.width.Width.outcome = Exact, calls)
    | _ -> Alcotest.fail "one report"
  in
  Apex_guard.Fault.arm "width-smt-exhaust";
  let exact, _ = width_exact () in
  Alcotest.(check bool) "the armed run is degraded" false exact;
  check int "nothing stored" 0 (entries ());
  let exact, calls = width_exact () in
  Alcotest.(check bool) "the next run is exact" true exact;
  Alcotest.(check bool) "and proves again" true (calls > 0);
  check int "and is stored" 1 (entries ())

let test_degraded_mining_not_stored () =
  (* mining cut short by an expired phase deadline returns its
     best-so-far census, which is never stored: the next analysis
     equals a store-off run's *)
  let module Store = Apex_exec.Store in
  let camera = Apps.by_name "camera" in
  let census () =
    Dse.with_local_memo (fun () ->
        List.map
          (fun (r : Apex_mining.Analysis.ranked) ->
            (Pattern.code r.pattern, r.support, r.mis_size))
          (Dse.analysis_of camera))
  in
  let census_t = Alcotest.(list (triple string int int)) in
  with_scratch_store @@ fun () ->
  Store.set_enabled false;
  let reference = census () in
  Store.set_enabled true;
  Apex_guard.set_phase_deadline "mining" 0.0;
  let cut =
    Fun.protect ~finally:Apex_guard.clear_phase_deadlines census
  in
  Alcotest.(check bool) "the deadline cuts mining short" true
    (List.length cut < List.length reference);
  check int "nothing stored" 0
    (List.fold_left
       (fun n (s : Store.ns_stats) ->
         if s.ns = "analysis" then n + s.entries else n)
       0 (Store.stats ()));
  Alcotest.check census_t "the next analysis equals a store-off run"
    reference (census ())

let test_kernels_unchanged_by_jobs () =
  (* the kernel table is shared by every caller: a full DSE, analyze
     and lint job on an app, cold then warm, leaves every kernel equal
     to a fresh lowering *)
  with_scratch_store @@ fun () ->
  let jobs =
    Apex.Jobs.
      [ Dse { apps = [ "gaussian" ]; variants = [] };
        Analyze { apps = [ "gaussian" ] };
        Lint { apps = [ "gaussian" ] } ]
  in
  for _ = 1 to 2 do
    Dse.with_local_memo (fun () ->
        List.iter (fun j -> ignore (Apex.Jobs.run j)) jobs)
  done;
  List.iter
    (fun fresh ->
      let (f : Apps.t) = fresh () in
      Alcotest.(check bool)
        (f.name ^ " unchanged") true
        (Apps.by_name f.name = f))
    Apps.
      [ camera_pipeline; harris; gaussian; unsharp; resnet_layer;
        mobilenet_layer; laplacian; stereo; fast_corner; sobel; median3;
        resize ]

(* the entries the store holds in namespace [ns] *)
let stored ns =
  List.fold_left
    (fun n (s : Apex_exec.Store.ns_stats) ->
      if s.ns = ns then n + s.entries else n)
    0 (Apex_exec.Store.stats ())

(* store traffic and mapping work of [f ()], with telemetry on *)
let with_counters f =
  let module Registry = Apex_telemetry.Registry in
  Registry.enable ();
  Registry.reset ();
  Fun.protect ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())
    f

let traffic f =
  let module Counter = Apex_telemetry.Counter in
  let names =
    [ "exec.cache_hits"; "exec.cache_misses"; "mapper.map_app_calls";
      "smt.solver_calls" ]
  in
  let before = List.map Counter.get names in
  let r = f () in
  match List.map2 (fun n b -> Counter.get n - b) names before with
  | [ hits; misses; maps; solver_calls ] -> (r, hits, misses, maps, solver_calls)
  | _ -> assert false

let test_pair_key_follows_kernel () =
  (* a stored pair is keyed on the kernel it evaluated, not on the
     app's name: camera's optimized graph under camera's name misses
     and evaluates as a store-off run does, and a renamed copy of a
     stored kernel hits *)
  let module Store = Apex_exec.Store in
  with_counters @@ fun () ->
  with_scratch_store @@ fun () ->
  Dse.with_local_memo @@ fun () ->
  let camera = Apps.by_name "camera" in
  let optimized =
    { camera with graph = (Apex_analysis.Opt.run camera.graph).graph }
  in
  let base = Dse.baseline () in
  let eval app =
    match Dse.evaluate_pairs [ (base, app) ] with
    | [ Dse.Mapped pp ] -> pp
    | _ -> Alcotest.fail "the pair did not map"
  in
  Store.set_enabled false;
  let reference = eval optimized in
  Store.set_enabled true;
  let raw = eval camera in
  check int "the raw pair is stored" 1 (stored "pairs");
  Alcotest.(check bool) "the optimized kernel maps differently" true
    (raw <> reference);
  let got, _, misses, _, _ = traffic (fun () -> eval optimized) in
  Alcotest.(check bool) "the optimized kernel misses" true (misses >= 1);
  check int "and is stored apart" 2 (stored "pairs");
  Alcotest.(check bool) "equal to a store-off evaluation" true
    (got = reference);
  let got, hits, misses, _, _ =
    traffic (fun () -> eval { camera with name = "camera2" })
  in
  check int "a renamed kernel hits" 1 hits;
  check int "without a miss" 0 misses;
  Alcotest.(check bool) "with the stored result" true (got = raw)

let test_congested_pair_stored () =
  (* (PE Base, raw camera) at effort 0 routes 3 boundaries over
     capacity: the pair is stored like any other, and a second run
     reads it without placing or routing again *)
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  with_counters @@ fun () ->
  with_scratch_store @@ fun () ->
  let camera = Apps.by_name "camera" in
  let eval () =
    Dse.with_local_memo @@ fun () ->
    match Dse.evaluate_pairs ~effort:0 [ (Dse.baseline (), camera) ] with
    | [ Dse.Mapped pp ] -> pp
    | _ -> Alcotest.fail "the pair did not map"
  in
  let rec ran name (sp : Registry.span) =
    sp.name = name || List.exists (ran name) (Registry.children_in_order sp)
  in
  let cold = eval () in
  check int "congested" 3 cold.Metrics.pnr.Metrics.overuse;
  check int "not degraded" 0 (Counter.get "guard.outcome.degraded");
  check int "the pair is stored" 1 (stored "pairs");
  let cold_iterations = Counter.get "cgra.route_iterations" in
  Registry.reset ();
  let warm = eval () in
  Alcotest.(check bool) "the stored result" true (warm = cold);
  Alcotest.(check bool) "a hit" true (Counter.get "exec.cache_hits" >= 1);
  check int "no miss" 0 (Counter.get "exec.cache_misses");
  Alcotest.(check bool) "no place and route of its own" false
    (ran "pnr" (Registry.snapshot ()).spans);
  check int "route iterations only replayed" cold_iterations
    (Counter.get "cgra.route_iterations")

let test_mapping_memo () =
  (* [Dse.mapping] is what map and lint requests read: cold and warm
     give the same results, a warm request hits without a miss and
     replays the mapping's counters, the key follows the kernel, and
     an unmappable verdict is stored like a mapping *)
  with_counters @@ fun () ->
  with_scratch_store @@ fun () ->
  let run job () =
    Dse.with_local_memo (fun () ->
        Apex_telemetry.Json.to_string (Apex.Jobs.run job))
  in
  List.iter
    (fun job ->
      let kind = Apex.Jobs.kind job in
      let cold, _, cold_misses, cold_maps, _ = traffic (run job) in
      let warm, hits, misses, maps, _ = traffic (run job) in
      Alcotest.(check bool) (kind ^ ": cold misses") true (cold_misses >= 1);
      Alcotest.(check bool) (kind ^ ": cold maps") true (cold_maps >= 1);
      Alcotest.(check string) (kind ^ ": warm results equal cold") cold warm;
      Alcotest.(check bool) (kind ^ ": warm hits") true (hits >= 1);
      check int (kind ^ ": without a miss") 0 misses;
      check int (kind ^ ": mapper counters replayed") cold_maps maps)
    Apex.Jobs.
      [ Map { app = "camera"; variant = "base" }; Lint { apps = [ "camera" ] } ];
  check int "one cover each: (PE Base, camera) and (pek:2, camera)" 2
    (stored "cover");
  Dse.with_local_memo @@ fun () ->
  let camera = Apps.by_name "camera" in
  let base = Dse.baseline () in
  let stored = fst (Dse.mapping base camera) in
  let renamed, hits, misses, _, _ =
    traffic (fun () -> fst (Dse.mapping base { camera with name = "camera2" }))
  in
  check int "a renamed kernel hits" 1 hits;
  check int "without a miss" 0 misses;
  Alcotest.(check bool) "with the stored mapping" true (renamed = stored);
  let optimized =
    { camera with graph = (Apex_analysis.Opt.run camera.graph).graph }
  in
  let got, _, misses, _, _ =
    traffic (fun () -> fst (Dse.mapping base optimized))
  in
  Alcotest.(check bool) "the optimized kernel misses" true (misses >= 1);
  Alcotest.(check bool) "and maps as Metrics does" true
    (got = fst (Metrics.post_mapping base optimized));
  (* PE Spec for gaussian has no subtractor; harris needs one *)
  let spec = Dse.variant_for "spec:gaussian" in
  let harris = Apps.by_name "harris" in
  let verdict () =
    match Dse.mapping spec harris with
    | _ -> Alcotest.fail "spec:gaussian mapped harris"
    | exception Apex_mapper.Cover.Unmappable m -> m
  in
  let cold, _, cold_misses, _, _ = traffic verdict in
  let warm, hits, misses, _, _ = traffic verdict in
  Alcotest.(check bool) "unmappable: cold misses" true (cold_misses >= 1);
  check int "unmappable: warm hits" 1 hits;
  check int "unmappable: without a miss" 0 misses;
  Alcotest.(check string) "the same verdict" cold warm

let test_optimize_memo () =
  (* the validated rewrite is stored on the raw graph: another kernel
     with camera's graph (a fresh name, so the per-process table misses)
     reads it with no solver call; a deadline-degraded rewrite is never
     stored *)
  let module Store = Apex_exec.Store in
  let camera = Apps.by_name "camera" in
  let optimized name = (Apex.Optimize.app { camera with name }).graph in
  with_counters @@ fun () ->
  with_scratch_store @@ fun () ->
  Apex.Optimize.enable ();
  Fun.protect ~finally:Apex.Optimize.disable @@ fun () ->
  Store.set_enabled false;
  let reference = optimized "camera-opt-reference" in
  Store.set_enabled true;
  Apex_guard.set_phase_deadline "analysis" 0.0;
  Fun.protect ~finally:Apex_guard.clear_phase_deadlines (fun () ->
      ignore (optimized "camera-opt-cut"));
  check int "a degraded rewrite is not stored" 0 (stored "optimize");
  let cold, _, misses, _, cold_calls =
    traffic (fun () -> optimized "camera-opt-cold")
  in
  check int "cold misses" 1 misses;
  Alcotest.(check bool) "and proves its rewrites" true (cold_calls > 0);
  check int "and is stored" 1 (stored "optimize");
  let warm, hits, misses, _, calls =
    traffic (fun () -> optimized "camera-opt-warm")
  in
  check int "warm hits" 1 hits;
  check int "without a miss" 0 misses;
  check int "with no solver call" 0 calls;
  Alcotest.(check bool) "cold equals a store-off rewrite" true
    (cold = reference);
  Alcotest.(check bool) "warm equals a store-off rewrite" true
    (warm = reference)

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

(* A warm DSE job reads every pair from the store: at width 2 the
   producer resolves each stored pair itself and spawns no runner, and
   the job reports what it reports at width 1 and what the cold run
   computed.  A mining job reads back what it computed, from an
   analysis entry that holds no embeddings. *)
let test_warm_jobs_read_only () =
  let module Pool = Apex_exec.Pool in
  let module Registry = Apex_telemetry.Registry in
  let module Counter = Apex_telemetry.Counter in
  let jobs_was = Pool.jobs () in
  Registry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Pool.set_jobs jobs_was;
      Registry.disable ();
      Registry.reset ())
  @@ fun () ->
  with_scratch_store @@ fun () ->
  let rec shape (sp : Registry.span) =
    Printf.sprintf "%s x%d [%s]" sp.name sp.count
      (String.concat "; " (List.map shape (Registry.children_in_order sp)))
  in
  let run job jobs =
    Pool.set_jobs jobs;
    Registry.reset ();
    Dse.with_local_memo @@ fun () ->
    let results = Apex_telemetry.Json.to_string (Apex.Jobs.run job) in
    let snap = Registry.snapshot () in
    ( results,
      List.filter
        (fun (k, _) -> not (String.starts_with ~prefix:"exec." k))
        snap.counters,
      shape snap.spans,
      Counter.get "exec.pool_domains_spawned" )
  in
  let mine = Apex.Jobs.mine ~app:"camera" ~top:5 in
  let cold, _, _, _ = run mine 1 in
  let warm, _, _, _ = run mine 1 in
  Alcotest.(check string) "mine: warm results equal cold" cold warm;
  (match
     List.find_opt
       (fun (s : Apex_exec.Store.ns_stats) -> s.ns = "analysis")
       (Apex_exec.Store.stats ())
   with
  | Some { entries = 1; bytes; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "camera's analysis entry (%d bytes) under 16 KB" bytes)
        true (bytes < 16 * 1024)
  | _ -> Alcotest.fail "expected one stored analysis");
  let dse = Apex.Jobs.Dse { apps = [ "camera" ]; variants = [] } in
  let cold, _, _, cold_spawned = run dse 2 in
  let warm2, counters2, spans2, warm_spawned = run dse 2 in
  let warm1, counters1, spans1, _ = run dse 1 in
  Alcotest.(check bool) "a cold job spawns a runner" true (cold_spawned >= 1);
  check int "a warm job spawns none" 0 warm_spawned;
  Alcotest.(check string) "warm results equal cold" cold warm2;
  Alcotest.(check string) "warm results at --jobs 1 and 2" warm1 warm2;
  Alcotest.(check (list (pair string int))) "warm counters at --jobs 1 and 2"
    counters1 counters2;
  Alcotest.(check string) "warm span tree at --jobs 1 and 2" spans1 spans2

let () =
  Alcotest.run "core"
    [ ( "variants",
        [ Alcotest.test_case "baseline" `Quick test_baseline_variant;
          Alcotest.test_case "pe1 smaller" `Quick test_pe1_smaller_than_base;
          Alcotest.test_case "specialized patterns" `Quick test_specialized_variant_patterns;
          Alcotest.test_case "interesting filter" `Quick test_interesting_patterns_filter;
          Alcotest.test_case "configspace memo" `Quick test_configspace_memo;
          Alcotest.test_case "analyze memo" `Quick test_analyze_memo;
          Alcotest.test_case "degraded mining not stored" `Quick
            test_degraded_mining_not_stored;
          Alcotest.test_case "kernels unchanged by jobs" `Quick
            test_kernels_unchanged_by_jobs;
          Alcotest.test_case "pair key follows the kernel" `Quick
            test_pair_key_follows_kernel;
          Alcotest.test_case "congested pair stored" `Quick
            test_congested_pair_stored;
          Alcotest.test_case "warm jobs read, spawn nothing" `Quick
            test_warm_jobs_read_only;
          Alcotest.test_case "post-mapping cover memoized" `Quick
            test_mapping_memo;
          Alcotest.test_case "optimized kernel memoized" `Quick
            test_optimize_memo;
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
          Alcotest.test_case "post-PnR overuse is a result" `Quick
            test_post_pnr_overuse_is_result;
          Alcotest.test_case "post-pipelining performance" `Quick
            test_post_pipelining_performance ] );
      ( "domains",
        [ Alcotest.test_case "PE IP covers the domain" `Slow test_domain_variant_covers_all_ip;
          Alcotest.test_case "PE IP generalizes" `Slow test_domain_generalizes_to_unseen;
          Alcotest.test_case "PE ML improves ML" `Slow test_ml_variant_improves_ml ] ) ]
