(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus the ablations listed in
   DESIGN.md, and writes the committed benchmark snapshots.

   Usage:
     dune exec bench/main.exe                  run every experiment
     dune exec bench/main.exe -- table2 fig11  run selected experiments
     dune exec bench/main.exe -- --snapshot[=DIR]
                                 committable BENCH_<area>.json snapshots

   The pool width for pair evaluation comes from APEX_JOBS.  Absolute
   numbers come from our synthetic technology model; the point of each
   experiment is the paper's *shape*: who wins, by what factor, and
   where the crossovers sit.  EXPERIMENTS.md records both. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Analysis = Apex_mining.Analysis
module Miner = Apex_mining.Miner
module Mis = Apex_mining.Mis
module D = Apex_merging.Datapath
module Merge = Apex_merging.Merge
module Library = Apex_peak.Library
module Cover = Apex_mapper.Cover
module Rules = Apex_mapper.Rules
module Apps = Apex_halide.Apps
module Comparators = Apex_models.Comparators
module Metrics = Apex.Metrics
module Dse = Apex.Dse
module Variants = Apex.Variants
module Snapshot = Apex.Snapshot

let section title = Format.printf "@.=== %s ===@." title

(* memoized post-pipelining evaluation: several figures share it *)
let pp_cache : (string * string, Metrics.post_pipelining) Hashtbl.t =
  Hashtbl.create 32

let eval_pp (v : Variants.t) (app : Apps.t) =
  let key = (v.name, app.name) in
  match Hashtbl.find_opt pp_cache key with
  | Some r -> r
  | None ->
      let r, _, _ = Metrics.post_pipelining v app in
      Hashtbl.replace pp_cache key r;
      r

let pct base x = 100.0 *. (base -. x) /. base

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: application suite";
  Format.printf "%-12s %-7s %-45s %8s %7s@." "Application" "Domain"
    "Description" "ops/out" "unroll";
  List.iter
    (fun (a : Apps.t) ->
      Format.printf "%-12s %-7s %-45s %8d %7d@." a.name
        (match a.domain with
        | Apps.Image_processing -> "IP"
        | Apps.Machine_learning -> "ML")
        a.description
        (List.length (G.compute_ids a.graph) / a.unroll)
        a.unroll)
    (Apps.evaluated ())

(* ------------------------------------------------------------------ *)
(* Fig. 3 / Fig. 4: mining and MIS on the convolution example          *)
(* ------------------------------------------------------------------ *)

let conv_example () =
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

let fig3 () =
  section "Fig. 3: frequent subgraph mining on a convolution";
  let g = conv_example () in
  let found, _ =
    Miner.mine { Miner.default_config with max_size = 2 } g
  in
  Format.printf "most frequent 2-node subgraphs (paper: 3b/3c/3d with 4 each):@.";
  List.iteri
    (fun i (f : Miner.found) ->
      if i < 4 then
        Format.printf "  support=%d  %s@." f.support (Pattern.code f.pattern))
    found

let fig4 () =
  section "Fig. 4: maximal independent set analysis";
  let g = conv_example () in
  let found, _ = Miner.mine { Miner.default_config with max_size = 2 } g in
  List.iter
    (fun (f : Miner.found) ->
      let code = Pattern.code f.pattern in
      if String.length code >= 3 && String.sub code 0 3 = "add" then begin
        let mis = Mis.mis_size f.embeddings in
        Format.printf "  %s: %d occurrences, MIS = %d (paper: 4 -> 2)@." code
          f.support mis
      end)
    found

(* ------------------------------------------------------------------ *)
(* Fig. 5: merging two subgraphs                                       *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Fig. 5: datapath merging";
  let mk build =
    let b = G.Builder.create () in
    build b;
    Pattern.of_graph (G.Builder.finish b)
  in
  let s1 =
    mk (fun b ->
        let x = G.Builder.add0 b (Op.Input "x") in
        let y = G.Builder.add0 b (Op.Input "y") in
        let c = G.Builder.add0 b (Op.Const 3) in
        let a2 = G.Builder.add2 b Op.Add x y in
        let a1 = G.Builder.add2 b Op.Add a2 c in
        ignore (G.Builder.add1 b (Op.Output "o") a1))
  in
  let s2 =
    mk (fun b ->
        let u = G.Builder.add0 b (Op.Input "u") in
        let v = G.Builder.add0 b (Op.Input "v") in
        let w = G.Builder.add0 b (Op.Input "w") in
        let d = G.Builder.add0 b (Op.Const 7) in
        let m = G.Builder.add2 b Op.Mul u v in
        let b3 = G.Builder.add2 b Op.Add m w in
        let b2 = G.Builder.add2 b Op.Add b3 d in
        ignore (G.Builder.add1 b (Op.Output "o") b2))
  in
  let dp1 = D.of_pattern s1 in
  let merged, report = Merge.merge dp1 s2 in
  let union, _ = Merge.merge ~strategy:Merge.No_sharing dp1 s2 in
  Format.printf
    "  subgraph1 (add+add+const) + subgraph2 (mul+add+add+const)@.";
  Format.printf "  merge opportunities: %d, clique weight: %.1f um^2, optimal: %b@."
    report.Merge.n_opportunities report.Merge.clique_weight report.Merge.optimal;
  Format.printf "  merged datapath: %.1f um^2 vs disjoint union %.1f um^2 (%.0f%% saved)@."
    (D.area merged) (D.area union)
    (pct (D.area union) (D.area merged))

(* ------------------------------------------------------------------ *)
(* Table 2 / Fig. 11: specializing for the camera pipeline             *)
(* ------------------------------------------------------------------ *)

let camera_variant_list () =
  Dse.camera_variants () @ [ Dse.pe_spec (Apps.by_name "camera") ]

let table2 () =
  section "Table 2: camera pipeline PE variants (1.1 ns clock, 1080p frame)";
  let camera = Apps.by_name "camera" in
  Format.printf "%-8s %6s %14s %18s %22s@." "Variant" "#PEs" "Area/PE (um2)"
    "Total Area (um2)" "Perf (frames/ms/mm2)";
  List.iter
    (fun (v : Variants.t) ->
      let r = eval_pp v camera in
      let pm = r.Metrics.pnr.pm in
      (* Table 2 reports PE-core area only *)
      let perf =
        1.0 /. r.Metrics.runtime_ms /. (pm.Metrics.total_pe_area *. 1e-6)
      in
      Format.printf "%-8s %6d %14.2f %18.0f %22.2f@." v.name pm.Metrics.n_pes
        pm.Metrics.pe_area pm.Metrics.total_pe_area perf)
    (camera_variant_list ())

let fig11 () =
  section "Fig. 11: camera specialization, total PE area and energy";
  let camera = Apps.by_name "camera" in
  let rows =
    List.map
      (fun (v : Variants.t) -> (v.name, Metrics.post_mapping v camera))
      (camera_variant_list ())
  in
  let base_area, base_energy =
    match rows with
    | (_, (pm, _)) :: _ -> (pm.Metrics.total_pe_area, pm.Metrics.pe_energy_per_output)
    | [] -> assert false
  in
  Format.printf "%-8s %16s %10s %16s %10s@." "Variant" "PE area (um2)"
    "vs base" "energy/px (fJ)" "vs base";
  List.iter
    (fun (name, ((pm : Metrics.post_mapping), _)) ->
      Format.printf "%-8s %16.0f %9.1f%% %16.1f %9.1f%%@." name
        pm.Metrics.total_pe_area
        (pct base_area pm.Metrics.total_pe_area)
        pm.pe_energy_per_output
        (pct base_energy pm.pe_energy_per_output))
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 12: balancing the image-processing domain PE                   *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  section "Fig. 12: PE IP vs PE IP2 (over-merged) vs PE IP3 (camera-heavy)";
  let variants = [ Dse.pe_ip (); Dse.pe_ip2 (); Dse.pe_ip3 () ] in
  Format.printf "%-10s" "app";
  List.iter
    (fun (v : Variants.t) ->
      Format.printf " | %-8s area(um2) energy(fJ)" v.name)
    variants;
  Format.printf "@.";
  List.iter
    (fun (app : Apps.t) ->
      Format.printf "%-10s" app.name;
      List.iter
        (fun v ->
          match Metrics.post_mapping v app with
          | pm, _ ->
              Format.printf " | %8s %9.0f %10.1f" ""
                pm.Metrics.total_pe_area pm.Metrics.pe_energy_per_output
          | exception Cover.Unmappable _ -> Format.printf " | %8s %9s %10s" "" "-" "-")
        variants;
      Format.printf "@.")
    (Dse.ip_apps ());
  Format.printf
    "(PE IP2 merges one extra subgraph per app; extra hardware raises area \
     without more coverage.@. PE IP3 favors camera: better there, worse \
     elsewhere — the Fig. 12 story.)@."

(* ------------------------------------------------------------------ *)
(* Fig. 13: unseen applications on PE IP                               *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig. 13: applications not seen during analysis (PE IP vs baseline)";
  let base = Dse.variant_for "base" in
  let ip = Dse.pe_ip () in
  Format.printf "%-11s %16s %16s %10s %14s %14s %10s@." "app"
    "base area" "IP area" "area diff" "base fJ/out" "IP fJ/out" "energy diff";
  List.iter
    (fun (app : Apps.t) ->
      match (Metrics.post_mapping base app, Metrics.post_mapping ip app) with
      | (b, _), (i, _) ->
          Format.printf "%-11s %16.0f %16.0f %9.1f%% %14.1f %14.1f %9.1f%%@."
            app.name b.Metrics.total_pe_area i.Metrics.total_pe_area
            (pct b.Metrics.total_pe_area i.Metrics.total_pe_area)
            b.pe_energy_per_output i.pe_energy_per_output
            (pct b.pe_energy_per_output i.pe_energy_per_output)
      | exception Cover.Unmappable m ->
          Format.printf "%-11s unmappable: %s@." app.name m)
    (Apps.unseen ())

(* ------------------------------------------------------------------ *)
(* Fig. 14: post-mapping comparison across the suite                   *)
(* ------------------------------------------------------------------ *)

let domain_variant (app : Apps.t) =
  match app.domain with
  | Apps.Image_processing -> Dse.pe_ip ()
  | Apps.Machine_learning -> Dse.pe_ml ()

let fig14 () =
  section "Fig. 14: post-mapping PE area/energy (baseline / domain PE / PE Spec)";
  Format.printf "%-11s %10s | %10s %8s | %10s %8s@." "app" "base um2"
    "domain um2" "saved" "spec um2" "saved";
  List.iter
    (fun (app : Apps.t) ->
      let b, _ = Metrics.post_mapping (Dse.variant_for "base") app in
      let d, _ = Metrics.post_mapping (domain_variant app) app in
      let s, _ = Metrics.post_mapping (Dse.pe_spec app) app in
      Format.printf "%-11s %10.0f | %10.0f %7.1f%% | %10.0f %7.1f%%@." app.name
        b.Metrics.total_pe_area d.Metrics.total_pe_area
        (pct b.Metrics.total_pe_area d.Metrics.total_pe_area)
        s.Metrics.total_pe_area
        (pct b.Metrics.total_pe_area s.Metrics.total_pe_area))
    (Apps.evaluated ())

(* ------------------------------------------------------------------ *)
(* Fig. 15: post-place-and-route with interconnect                     *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  section "Fig. 15: post-PnR CGRA area/energy including interconnect";
  Format.printf "%-11s %-8s %10s %9s %9s %10s %12s %8s@." "app" "PE"
    "total um2" "SB um2" "CB um2" "fJ/out" "icn fJ/out" "route";
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun (v : Variants.t) ->
          let r = (eval_pp v app).Metrics.pnr in
          Format.printf "%-11s %-8s %10.0f %9.0f %9.0f %10.1f %12.1f %8d@."
            app.name v.name r.Metrics.total_area r.sb_area r.cb_area
            r.total_energy_per_output r.interconnect_energy_per_output
            r.routing_tiles)
        [ Dse.variant_for "base"; domain_variant app; Dse.pe_spec app ])
    (Apps.evaluated ())

(* ------------------------------------------------------------------ *)
(* Table 3: post-pipelining resource utilization                       *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: post-pipelining resource utilization";
  Format.printf "%-11s %-8s %6s %6s %6s %6s %6s %15s@." "app" "PE" "#PE"
    "#MEM" "#RF" "#IO" "#Reg" "#Routing tiles";
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun (v : Variants.t) ->
          let r = eval_pp v app in
          Format.printf "%-11s %-8s %6d %6d %6d %6d %6d %15d@." app.name
            v.name r.Metrics.pnr.pm.Metrics.n_pes app.mem_tiles
            r.Metrics.n_reg_files app.io_tiles r.Metrics.n_regs
            r.Metrics.pnr.routing_tiles)
        [ Dse.variant_for "base"; domain_variant app; Dse.pe_spec app ])
    (Apps.evaluated ())

(* ------------------------------------------------------------------ *)
(* Fig. 16: pre- vs post-pipelining                                    *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  section "Fig. 16: pre/post-pipelining period and performance/mm^2";
  Format.printf "%-11s %-8s %9s %9s %8s %14s %14s %8s@." "app" "PE"
    "pre ps" "post ps" "stages" "pre r/ms/mm2" "post r/ms/mm2" "gain";
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun (v : Variants.t) ->
          let r = eval_pp v app in
          Format.printf "%-11s %-8s %9.0f %9.0f %8d %14.3f %14.3f %7.1fx@."
            app.name v.name r.Metrics.pre_period_ps r.Metrics.period_ps
            r.Metrics.pe_stages r.Metrics.pre_perf_per_mm2
            r.Metrics.perf_per_mm2
            (r.Metrics.perf_per_mm2 /. Float.max 1e-9 r.Metrics.pre_perf_per_mm2))
        [ Dse.variant_for "base"; domain_variant app; Dse.pe_spec app ])
    (Apps.evaluated ())

(* ------------------------------------------------------------------ *)
(* Fig. 17: FPGA / CGRA / CGRA-IP / ASIC on image processing           *)
(* ------------------------------------------------------------------ *)

let fig17 () =
  section "Fig. 17: energy and runtime vs an FPGA and an ASIC (image processing)";
  Format.printf "%-11s %12s %12s %12s %12s %14s@." "app" "FPGA uJ"
    "CGRA uJ" "CGRA-IP uJ" "ASIC uJ" "IP vs FPGA";
  List.iter
    (fun (app : Apps.t) ->
      let profile = Apps.profile app in
      let fpga = Comparators.fpga profile in
      let asic = Comparators.asic profile in
      let energy v =
        let r = eval_pp v app in
        r.Metrics.pnr.total_energy_per_output
        *. float_of_int app.outputs_per_run *. 1e-9
      in
      let cgra = energy (Dse.variant_for "base") in
      let cgra_ip = energy (Dse.pe_ip ()) in
      Format.printf "%-11s %12.1f %12.1f %12.1f %12.1f %12.0fx@." app.name
        fpga.Comparators.energy_uj cgra cgra_ip asic.Comparators.energy_uj
        (fpga.Comparators.energy_uj /. cgra_ip))
    (Dse.ip_apps ())

(* ------------------------------------------------------------------ *)
(* Fig. 18: ML accelerator comparison                                  *)
(* ------------------------------------------------------------------ *)

let fig18 () =
  section "Fig. 18: machine learning vs FPGA and Simba";
  Format.printf "%-11s %12s %12s %12s %12s %16s@." "app" "FPGA uJ"
    "CGRA uJ" "CGRA-ML uJ" "Simba uJ" "Simba vs ML";
  List.iter
    (fun (app : Apps.t) ->
      let profile = Apps.profile app in
      let fpga = Comparators.fpga profile in
      let simba = Comparators.simba profile in
      let energy v =
        let r = eval_pp v app in
        r.Metrics.pnr.total_energy_per_output
        *. float_of_int app.outputs_per_run *. 1e-9
      in
      let cgra = energy (Dse.variant_for "base") in
      let cgra_ml = energy (Dse.pe_ml ()) in
      Format.printf "%-11s %12.1f %12.1f %12.1f %12.1f %14.1fx@." app.name
        fpga.Comparators.energy_uj cgra cgra_ml simba.Comparators.energy_uj
        (cgra_ml /. simba.Comparators.energy_uj))
    (Dse.ml_apps ())

(* ------------------------------------------------------------------ *)
(* Extension: further applications beyond the paper's suite            *)
(* ------------------------------------------------------------------ *)

let extension_apps () =
  section "Extension: additional image-processing applications on PE IP";
  let base = Dse.variant_for "base" in
  let ip = Dse.pe_ip () in
  Format.printf "%-9s %16s %16s %10s@." "app" "base area" "IP area" "area diff";
  List.iter
    (fun (app : Apps.t) ->
      match (Metrics.post_mapping base app, Metrics.post_mapping ip app) with
      | (b, _), (i, _) ->
          Format.printf "%-9s %16.0f %16.0f %9.1f%%@." app.name
            b.Metrics.total_pe_area i.Metrics.total_pe_area
            (pct b.Metrics.total_pe_area i.Metrics.total_pe_area)
      | exception Cover.Unmappable m ->
          Format.printf "%-9s unmappable: %s@." app.name m)
    (Apps.extended ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_mis () =
  section "Ablation: MIS ranking vs raw-frequency ranking (Section 3.2)";
  let camera = Apps.by_name "camera" in
  let ranked = Dse.analysis_of camera in
  let by_mis = Variants.interesting_patterns ranked in
  let by_support =
    List.filter_map
      (fun (r : Analysis.ranked) ->
        if Pattern.size r.pattern >= 2 then Some (r.support, r.pattern) else None)
      ranked
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let build name patterns =
    let dp = Library.subset ~ops:(Library.ops_of_graph camera.graph) in
    let patterns = List.filteri (fun i _ -> i < 3) patterns in
    let dp = List.fold_left (fun dp p -> fst (Merge.merge dp p)) dp patterns in
    let rules = Rules.rule_set dp ~patterns in
    let v = Variants.v name dp patterns rules in
    let pm, _ = Metrics.post_mapping v camera in
    Format.printf "  %-12s #PEs=%4d total area=%10.0f um2@." name
      pm.Metrics.n_pes pm.Metrics.total_pe_area
  in
  build "MIS-ranked" by_mis;
  build "raw-support" by_support

let ablation_merge () =
  section "Ablation: max-weight-clique merging vs greedy vs no sharing (Section 3.3)";
  let camera = Apps.by_name "camera" in
  let patterns =
    List.filteri (fun i _ -> i < 3)
      (Variants.interesting_patterns (Dse.analysis_of camera))
  in
  List.iter
    (fun (name, strategy) ->
      let dp = Library.subset ~ops:(Library.ops_of_graph camera.graph) in
      let dp =
        List.fold_left (fun dp p -> fst (Merge.merge ~strategy dp p)) dp patterns
      in
      Format.printf "  %-18s PE area %8.1f um2, %3d config bits@." name
        (D.area dp) (D.n_config_bits dp))
    [ ("max-weight clique", Merge.Max_weight_clique);
      ("greedy clique", Merge.Greedy_clique);
      ("no sharing", Merge.No_sharing) ]

let ablation_fifo () =
  section "Ablation: register-file FIFO cutoff (Section 4.3, Fig. 9)";
  let camera = Apps.by_name "camera" in
  let v = Dse.variant_for "base" in
  let _, mapped = Metrics.post_mapping v camera in
  List.iter
    (fun cutoff ->
      let plan =
        Apex_pipelining.App_pipeline.balance ~rf_cutoff:cutoff mapped
          ~pe_latency:2
      in
      Format.printf
        "  cutoff %5d: %5d interconnect regs, %4d register files (area %8.0f um2)@."
        cutoff plan.Apex_pipelining.App_pipeline.n_regs plan.n_reg_files
        (Apex_pipelining.App_pipeline.regs_area plan))
    [ 1; 2; 4; 8; 1_000_000 ]

let ablation_isel () =
  section "Ablation: complex-rules-first vs simple-first selection (Section 4.1.2)";
  let camera = Apps.by_name "camera" in
  let v = Dse.pe_spec camera in
  List.iter
    (fun (name, order) ->
      let mapped = Cover.map_app ~order ~rules:v.rules camera.graph in
      Format.printf "  %-14s #PEs=%4d (%.2f ops/PE)@." name (Cover.n_pes mapped)
        (Cover.utilization mapped))
    [ ("complex-first", Cover.Complex_first); ("simple-first", Cover.Simple_first) ]

(* ------------------------------------------------------------------ *)
(* --snapshot: committable phase benchmarks (BENCH_<area>.json)        *)
(* ------------------------------------------------------------------ *)

let snapshot dir =
  section "Benchmark snapshot: exact phase counters + per-layer allocation";
  List.iter
    (fun (name, area) ->
      let t = Snapshot.run area in
      let path = Snapshot.write ~dir t in
      Format.printf "  %-11s %3d counters, %2d layers, %9d kw -> %s@." name
        (List.length t.Snapshot.counters)
        (List.length t.Snapshot.alloc_kw)
        (List.fold_left (fun acc (_, kw) -> acc + kw) 0 t.Snapshot.alloc_kw)
        path)
    Snapshot.areas

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", table1); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("table2", table2); ("fig11", fig11); ("fig12", fig12); ("fig13", fig13);
    ("fig14", fig14); ("fig15", fig15); ("table3", table3); ("fig16", fig16);
    ("fig17", fig17); ("fig18", fig18); ("extension_apps", extension_apps);
    ("ablation_mis", ablation_mis); ("ablation_merge", ablation_merge);
    ("ablation_fifo", ablation_fifo); ("ablation_isel", ablation_isel) ]

let () =
  let after prefix a =
    String.sub a (String.length prefix) (String.length a - String.length prefix)
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--snapshot" ] -> snapshot "."
  | [ a ] when String.starts_with ~prefix:"--snapshot=" a ->
      snapshot (after "--snapshot=" a)
  | [] ->
      Format.printf "APEX evaluation harness: regenerating every table and figure.@.";
      List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Format.printf "unknown experiment %s; available: %s@." name
                (String.concat " " (List.map fst experiments)))
        names
