(* apex — command-line front end for the APEX design-space exploration
   flow.  See `apex --help`. *)

open Cmdliner

module Apps = Apex_halide.Apps
module Analysis = Apex_mining.Analysis
module Pattern = Apex_mining.Pattern
module G = Apex_dfg.Graph
module D = Apex_merging.Datapath
module Registry = Apex_telemetry.Registry
module Report = Apex_telemetry.Report
module Json = Apex_telemetry.Json

let app_arg =
  let doc = "Application name (see `apex apps`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* the positional APPs of a multi-app subcommand, or --all, as a job's
   [apps] field: --all is the empty list, which [Jobs] reads as "all".
   Resolved when the body calls it, so the body's own flag checks come
   first (and `lint --list-codes` needs no APP at all). *)
let apps_t cmd ~verb ~all_doc =
  let apps =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"APP"
          ~doc:(Printf.sprintf "Applications to %s (see `apex apps`)." verb))
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  let select apps all () =
    if all then []
    else if apps = [] then
      invalid_arg (cmd ^ ": name at least one application, or pass --all")
    else apps
  in
  Term.(const select $ apps $ all)

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let variant_arg =
  let doc =
    "PE variant: base, pe1:<app>, pek:<app>:<k>, spec:<app>, ip, ip2, ip3, ml."
  in
  Arg.(value & opt string "base" & info [ "variant"; "v" ] ~docv:"VARIANT" ~doc)

(* --- telemetry plumbing: a --trace[=FILE] flag shared by every
   subcommand.  --trace enables the registry and prints the span tree
   and counter table after the run; --trace=FILE (or the APEX_TRACE
   environment variable) additionally writes the JSON report. *)

let trace_arg =
  let doc =
    "Enable telemetry: print the span tree and counter table after the run. \
     With $(docv), also write the machine-readable JSON report there. The \
     APEX_TRACE environment variable enables the JSON report without the \
     flag."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

(* The one report writer.  [body] returns the subcommand's exit code
   and, for a Jobs-backed subcommand, the report's results section.
   Telemetry is on when --trace or APEX_TRACE asks for it, or when
   [always] is set; afterwards the span tree is printed ([print]
   defaults to "--trace was given") and the JSON report written, then
   the process exits with the body's code.  A body that raises still
   gets its report before the exception reaches the main handler's
   exit-code map. *)
let with_report ?(always = false) ?print trace body =
  (* an explicit --trace=FILE wins over APEX_TRACE *)
  let path =
    match trace with
    | Some file when file <> "" -> Some file
    | _ -> Report.env_trace_path ()
  in
  if not (always || trace <> None || path <> None) then exit (fst (body ()));
  Registry.enable ();
  Registry.reset ();
  let write ?results () =
    let snap = Registry.snapshot () in
    if Option.value print ~default:(trace <> None) then
      Format.printf "@.%a" Report.pp snap;
    match path with
    | None -> ()
    | Some path -> (
        (* a failed report write must not change the run's outcome *)
        match Report.write_file ?results path snap with
        | () -> Format.eprintf "telemetry: JSON report written to %s@." path
        | exception Sys_error m ->
            Format.eprintf "telemetry: cannot write JSON report: %s@." m)
  in
  let code, results =
    match body () with
    | outcome -> outcome
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        write ();
        Printexc.raise_with_backtrace e bt
  in
  write ?results ();
  exit code

(* --- phase-boundary verification: a --check flag shared by the flow
   subcommands.  LLVM -verify-each style: every phase hands its output
   IR to the lint engine; errors abort the run. *)

let check_arg =
  let doc =
    "Verify every intermediate artifact at phase boundaries (after mining, \
     merging, rule synthesis and pipelining) with the lint engine; abort on \
     invariant violations."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let set_check check = if check then Apex.Check.enable ()

(* --- validated graph optimization: an --optimize flag shared by the
   flow subcommands.  Application kernels are reduced by the
   abstract-interpretation optimizer (constant folding, identities, CSE,
   dead-node elimination) before mining, merging, mapping or linting. *)

let optimize_arg =
  let doc =
    "Optimize application kernels (SMT-validated constant folding, \
     algebraic identities, CSE, dead-node elimination) before they enter \
     the flow, so mining and merging run on reduced graphs."
  in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let set_optimize optimize = if optimize then Apex.Optimize.enable ()

(* --- execution runtime: --jobs / --no-cache flags shared by the flow
   subcommands.  Evaluated before the run function so every phase sees
   the configured pool width and cache state. *)

let jobs_arg =
  let doc =
    "Worker domains for DSE pair evaluation, the one parallel phase (each \
     (variant, app) pair is a task; mining, merging and rule synthesis run \
     serially). Defaults to the APEX_JOBS environment variable, else the \
     machine's core count. Results are bit-identical whatever $(docv) is."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc =
    "Disable the on-disk artifact cache (see APEX_CACHE_DIR): recompute \
     every phase and write nothing."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

(* --- resource governance: --deadline / --phase-deadline /
   --inject-fault, shared by every flow subcommand via [exec_t].
   Evaluated before the run function, so the root budget and any armed
   fault are in place before the first phase ticks. *)

let deadline_arg =
  let doc =
    "Wall-clock budget for the whole run, in seconds. Phases that overrun \
     degrade gracefully (best-so-far results, flagged as degraded in the \
     telemetry report) instead of aborting."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)

let phase_deadline_arg =
  let doc =
    "Per-phase wall-clock budget as PHASE=SEC (repeatable; phases: mining, \
     merging, synthesis, evaluate, analysis). Tightens the global \
     --deadline for that phase only."
  in
  Arg.(
    value & opt_all string []
    & info [ "phase-deadline" ] ~docv:"PHASE=SEC" ~doc)

let inject_fault_arg =
  let doc =
    "Deterministically inject one fault at the $(i,N)th occurrence of a \
     registered site (SITE or SITE:N; see DESIGN.md \"Degradation \
     semantics\"), to exercise the recovery ladders. The APEX_FAULT \
     environment variable is the equivalent setting."
  in
  Arg.(
    value & opt (some string) None
    & info [ "inject-fault" ] ~docv:"SITE[:N]" ~doc)

let known_phases = [ "mining"; "merging"; "synthesis"; "evaluate"; "analysis" ]

let setup_guard deadline phase_deadlines fault =
  (match deadline with
  | Some s when s > 0.0 ->
      Apex_guard.set_root (Apex_guard.Budget.v ~deadline_s:s ())
  | Some s -> invalid_arg (Printf.sprintf "--deadline: %g is not positive" s)
  | None -> ());
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i -> (
          let phase = String.sub spec 0 i in
          let secs = String.sub spec (i + 1) (String.length spec - i - 1) in
          if not (List.mem phase known_phases) then
            invalid_arg
              (Printf.sprintf "--phase-deadline: unknown phase %S (phases: %s)"
                 phase
                 (String.concat ", " known_phases));
          match float_of_string_opt secs with
          | Some s when s > 0.0 -> Apex_guard.set_phase_deadline phase s
          | _ ->
              invalid_arg
                (Printf.sprintf "--phase-deadline: malformed seconds %S in %S"
                   secs spec))
      | None ->
          invalid_arg
            (Printf.sprintf "--phase-deadline: expected PHASE=SEC, got %S" spec))
    phase_deadlines;
  match fault with
  | Some spec -> Apex_guard.Fault.arm spec
  | None -> Apex_guard.Fault.arm_from_env ()

let exec_t =
  let setup jobs no_cache deadline phase_deadlines fault =
    Option.iter
      (fun n ->
        if n < 1 then invalid_arg (Printf.sprintf "--jobs %d < 1" n);
        Apex_exec.Pool.set_jobs n)
      jobs;
    if no_cache then Apex_exec.Store.set_enabled false;
    setup_guard deadline phase_deadlines fault
  in
  Term.(
    const setup $ jobs_arg $ no_cache_arg $ deadline_arg $ phase_deadline_arg
    $ inject_fault_arg)

(* --- the Jobs-backed subcommands (dse, mine, map, analyze, lint):
   parse the flags into a [Jobs.t], run it through [Jobs.execute] — the
   code a served request runs — and render the typed result.  Text goes
   through the phases' pp functions; --json and the --trace=FILE
   report's results section are [Jobs.results_json], the bytes `apex
   submit` receives for the same job. *)

type view = { json : bool; widths : bool; werror : bool }

let text = { json = false; widths = false; werror = false }

(* print the text form of [result] (unless --json) and return the
   subcommand's exit code *)
let render view (result : Apex.Jobs.result) =
  let as_text = not view.json in
  match result with
  | Dse_rows rows ->
      if as_text then begin
        let count status =
          List.length
            (List.filter (fun (_, r) -> Apex.Dse.pair_status r = status) rows)
        in
        List.iter
          (fun ((_, (v : Apex.Variants.t), (a : Apps.t)), r) ->
            match Apex.Dse.mapped_opt r with
            | Some (pp : Apex.Metrics.post_pipelining) ->
                Format.printf
                  "dse %-10s on %-12s %8.2f runs/ms/mm^2  %3d PEs  %5d \
                   cycles/run@."
                  a.Apps.name v.name pp.Apex.Metrics.perf_per_mm2
                  pp.pnr.pm.n_pes pp.cycles_per_run
            | None ->
                Format.printf "dse %-10s on %-12s %s@." a.Apps.name v.name
                  (Apex.Dse.pair_status r))
          rows;
        Format.printf
          "dse: %d pairs — %d mapped, %d unmappable, %d skipped, %d failed@."
          (List.length rows) (count "mapped") (count "unmappable")
          (count "skipped") (count "failed")
      end;
      0
  | Analyze_reports reports ->
      if as_text then
        Format.printf "%a" (Apex.Analyze_run.pp ~width_table:view.widths) reports;
      (* a failed validation is a soundness bug in the optimizer (resp.
         the width-inference ladder) *)
      if
        List.for_all
          (fun (r : Apex.Analyze_run.app_report) ->
            r.validated && r.width.Apex_analysis.Width.validated)
          reports
      then 0
      else 1
  | Configs_reports reports ->
      if as_text then Format.printf "%a" Apex.Configspace_run.pp reports;
      (* an unrealizable registered config is a merge bug; a reverted
         pruning is a configspace-analysis soundness bug *)
      if Apex.Configspace_run.any_failed reports then 1 else 0
  | Lint_report report ->
      if as_text then Format.printf "%a" Apex_lint.Engine.pp_report report;
      Apex_lint.Engine.exit_code ~werror:view.werror report
  | Mapped { post = pm; cover; _ } ->
      if as_text then begin
        Format.printf "%a@." Apex_mapper.Cover.pp_stats cover;
        Format.printf
          "PE area %.1f um^2 -> total %.0f um^2; PE-core energy %.1f \
           fJ/output@."
          pm.pe_area pm.total_pe_area pm.pe_energy_per_output
      end;
      0
  | Mined { app; n_patterns; top; ranked } ->
      if as_text then begin
        Format.printf "%d frequent subgraphs for %s; top %d by MIS:@."
          n_patterns app.Apps.name top;
        List.iter (fun r -> Format.printf "  %a@." Analysis.pp_ranked r) ranked
      end;
      0
  | Slept _ -> 0

(* parse → Jobs → render: the body of every Jobs-backed subcommand,
   returning its exit code and the report's results section *)
let run_job ?(filter = Fun.id) view job =
  let result = filter (Apex.Jobs.execute job) in
  let results = Apex.Jobs.results_json result in
  if view.json then print_endline (Json.to_string results);
  (render view result, Some results)

(* --- apps --- *)

let apps_cmd =
  let run () =
    Format.printf "%-11s %-7s %9s %7s %6s %6s  %s@." "name" "domain" "compute"
      "unroll" "#mem" "#io" "description";
    List.iter
      (fun (a : Apps.t) ->
        Format.printf "%-11s %-7s %9d %7d %6d %6d  %s@." a.name
          (match a.domain with
          | Apps.Image_processing -> "IP"
          | Apps.Machine_learning -> "ML")
          (List.length (G.compute_ids a.graph))
          a.unroll a.mem_tiles a.io_tiles a.description)
      (Apps.evaluated () @ Apps.unseen () @ Apps.extended ())
  in
  Cmd.v
    (Cmd.info "apps" ~doc:"List the bundled applications (Table 1 plus unseen).")
    Term.(const run $ const ())

(* --- mine (frequent-subgraph analysis) --- *)

let mine_cmd =
  let run () trace optimize app top =
    with_report trace @@ fun () ->
    set_optimize optimize;
    run_job text (Apex.Jobs.mine ~app ~top)
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"How many subgraphs to print.")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Mine an application's frequent subgraphs and rank them by MIS size.")
    Term.(const run $ exec_t $ trace_arg $ optimize_arg $ app_arg $ top)

(* --- analyze (static analysis facts + validated reduction) --- *)

let analyze_cmd =
  let run () trace optimize apps json widths configs =
    with_report trace @@ fun () ->
    set_optimize optimize;
    run_job { text with json; widths }
      (let apps = apps () in
       if configs then Apex.Jobs.Configs { apps } else Apex.Jobs.Analyze { apps })
  in
  let apps =
    apps_t "analyze" ~verb:"analyze"
      ~all_doc:"Analyze all nine built-in applications."
  in
  let json = json_arg "Print the report as machine-readable JSON." in
  let widths =
    Arg.(
      value & flag
      & info [ "widths" ]
          ~doc:
            "Print the per-node width table: every node whose proven width \
             is below its natural hardware width, with its demanded and \
             live bit masks.  (--json always includes the table.)")
  in
  let configs =
    Arg.(
      value & flag
      & info [ "configs" ]
          ~doc:
            "Run the configuration-space analysis instead: for the baseline \
             PE and each application's specialized PE, report realizability \
             of every registered config, unreachable resources with their \
             SAT classification, the mutual-exclusion gating facts, and the \
             validated-pruning proof ledger.  Exits 1 on an unrealizable \
             config or a reverted pruning.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static-analysis framework over application kernels: \
          report value-range / known-bits facts, the validated node-count \
          reduction the optimizer achieves (constant folding, identities, \
          CSE, dead-node elimination), and the SMT-validated per-node \
          widths the demanded-bits analysis proves.  With $(b,--configs), \
          report the SAT-backed configuration-space analysis of the merged \
          datapaths instead (reachability, mutual exclusion, validated \
          pruning).")
    Term.(
      const run $ exec_t $ trace_arg $ optimize_arg $ apps $ json $ widths
      $ configs)

(* --- pe (show a variant) --- *)

let pe_cmd =
  let run () trace check optimize variant verilog dot =
    with_report trace @@ fun () ->
    set_check check;
    set_optimize optimize;
    let v = Apex.Dse.variant_for variant in
    Format.printf "variant %s: area %.1f um^2, %d FUs, %d configs, %d rules@."
      v.name (D.area v.dp)
      (Array.fold_left
         (fun acc (n : D.node) ->
           match n.kind with D.Fu _ -> acc + 1 | _ -> acc)
         0 v.dp.nodes)
      (List.length v.dp.configs) (List.length v.rules);
    List.iter
      (fun p -> Format.printf "  merged: %s@." (Pattern.code p))
      v.patterns;
    if verilog then begin
      let spec = Apex_peak.Spec.of_datapath ~name:v.name v.dp in
      (* pipeline the PE the way the flow would before emitting RTL *)
      let stages = Apex_pipelining.Pe_pipeline.rtl_stages v.dp in
      print_string (Apex_peak.Verilog.emit ?stages spec)
    end;
    if dot then print_string (D.to_dot ~name:(Apex_peak.Verilog.sanitize v.name) v.dp);
    (0, None)
  in
  let verilog =
    Arg.(value & flag & info [ "verilog" ] ~doc:"Emit the PE's (pipelined) Verilog.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the merged datapath as Graphviz.")
  in
  Cmd.v
    (Cmd.info "pe" ~doc:"Generate and describe a PE variant.")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ variant_arg
      $ verilog $ dot)

(* --- map --- *)

let map_cmd =
  let run () trace check optimize app variant =
    with_report trace @@ fun () ->
    set_check check;
    set_optimize optimize;
    run_job text (Apex.Jobs.Map { app; variant })
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Map an application onto a PE variant (post-mapping).")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ app_arg
      $ variant_arg)

(* --- evaluate --- *)

(* reads the DSE back end's store-memoized products: the post-mapping
   cover, or the pair's verdict *)
let evaluate_cmd =
  let run () trace check optimize app variant level =
    with_report trace @@ fun () ->
    set_check check;
    set_optimize optimize;
    let a = Apex.Jobs.app_by_name app in
    let v = Apex.Dse.variant_for variant in
    let evaluated () =
      match List.hd (Apex.Dse.evaluate_pairs [ (v, a) ]) with
      | Apex.Dse.Mapped pp -> pp
      | Unmappable m -> raise (Apex_mapper.Cover.Unmappable m)
      | Skipped m -> raise (Apex_guard.Cancelled m)
      | Failed m -> failwith m
    in
    (match level with
    | "mapping" ->
        let pm, _ = Apex.Dse.mapping v a in
        Format.printf
          "post-mapping: #PEs %d, area/PE %.2f, total %.0f um^2, %.1f fJ/out, %.2f ops/PE@."
          pm.Apex.Metrics.n_pes pm.pe_area pm.total_pe_area
          pm.pe_energy_per_output pm.utilization
    | "pnr" ->
        let pnr = (evaluated ()).Apex.Metrics.pnr in
        Format.printf
          "post-PnR: total %.0f um^2 (SB %.0f, CB %.0f, MEM %.0f), %.1f fJ/out, %d routing tiles@."
          pnr.Apex.Metrics.total_area pnr.sb_area pnr.cb_area pnr.mem_area
          pnr.total_energy_per_output pnr.routing_tiles
    | "pipeline" ->
        let pp = evaluated () in
        Format.printf
          "post-pipelining: %d PE stages @@ %.0f ps, %d regs + %d RFs, %d cycles/run, %.3f ms, %.2f runs/ms/mm^2@."
          pp.Apex.Metrics.pe_stages pp.period_ps pp.n_regs pp.n_reg_files
          pp.cycles_per_run pp.runtime_ms pp.perf_per_mm2
    | other ->
        invalid_arg
          (Printf.sprintf "evaluate: unknown level %S (mapping|pnr|pipeline)"
             other));
    (0, None)
  in
  let level =
    Arg.(value & opt string "mapping"
         & info [ "level"; "l" ] ~doc:"mapping, pnr or pipeline.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate an application on a PE variant.")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ app_arg
      $ variant_arg $ level)

(* --- verify (rewrite rules) --- *)

let verify_cmd =
  let run () trace variant =
    with_report trace @@ fun () ->
    let v = Apex.Dse.variant_for variant in
    Format.printf "verifying the %d rewrite rules of %s:@."
      (List.length v.rules) v.name;
    List.iter
      (fun (r : Apex_mapper.Rules.t) ->
        let verdict =
          Apex_verif.Verify.verify_config v.dp r.config r.pattern
        in
        Format.printf "  %-40s %a@." r.config.D.label Apex_verif.Verify.pp_verdict
          verdict)
      v.rules;
    (0, None)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Re-verify every rewrite rule of a variant with the SAT engine.")
    Term.(const run $ exec_t $ trace_arg $ variant_arg)

(* --- compile: the whole back end with bitstream and simulation --- *)

let compile_cmd =
  let run () trace check optimize app variant sim_frames emit_fabric =
    if sim_frames < 0 then
      invalid_arg (Printf.sprintf "compile: --sim %d is negative" sim_frames);
    with_report trace @@ fun () ->
    set_check check;
    set_optimize optimize;
    (* the DSE back end maps the optimized kernel, which is also what
       the golden simulation replays (identity when --optimize is off) *)
    let raw = Apex.Jobs.app_by_name app in
    let a = Apex.Optimize.app raw in
    let v = Apex.Dse.variant_for variant in
    let _, { Apex.Metrics.cover; fabric; placement; routes }, plan =
      Apex.Metrics.post_pipelining v raw
    in
    let spec = Apex_peak.Spec.of_datapath ~name:v.name v.dp in
    let bitstream = Apex_cgra.Bitstream.generate spec placement cover routes in
    Format.printf
      "compiled %s on %s:@.  %d PEs placed on a %dx%d fabric (HPWL %.0f)@.         %d nets, %d word hops, %d rip-up rounds, overuse %d@.  pipeline:        latency %d, depth %d cycles, %d regs + %d register files@.         bitstream: %d bits@."
      app v.name
      (Apex_mapper.Cover.n_pes cover)
      fabric.Apex_cgra.Fabric.width fabric.Apex_cgra.Fabric.height
      placement.Apex_cgra.Place.wirelength
      (List.length routes.Apex_cgra.Route.nets)
      routes.word_hops routes.iterations routes.overuse plan.pe_latency
      plan.depth_cycles plan.n_regs plan.n_reg_files bitstream.total_bits;
    let sim_ok =
      sim_frames = 0
      ||
      let st = Random.State.make [| 7 |] in
      let frames =
        List.init sim_frames (fun _ -> Apex_dfg.Interp.random_env st a.graph)
      in
      let report =
        Apex_cgra.Sim.run ~spec ~mapped:cover ~plan ~bitstream ~placement ~frames
      in
      let ok =
        List.for_all2
          (fun frame out ->
            List.sort compare (Apex_dfg.Interp.run a.graph frame)
            = List.sort compare out)
          frames report.outputs
      in
      Format.printf "  simulation: %d frames vs golden model -> %s@."
        sim_frames
        (if ok then "MATCH" else "MISMATCH");
      ok
    in
    if not sim_ok then (1, None)
    else begin
      if emit_fabric then print_string (Apex_cgra.Verilog_top.emit fabric spec);
      (0, None)
    end
  in
  let sim =
    Arg.(value & opt int 0
         & info [ "sim" ] ~doc:"Simulate N random frames against the golden model.")
  in
  let emit_fabric =
    Arg.(value & flag & info [ "fabric-verilog" ] ~doc:"Emit the full CGRA Verilog.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Map, place, route and generate the bitstream for an application.")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ app_arg
      $ variant_arg $ sim $ emit_fabric)

(* --- profile: the full DSE flow with telemetry always on --- *)

let profile_cmd =
  (* one DSE job per app: the variant under study against the
     single-op PE 1 baseline; when the variant is the default
     spec:<app>, its search already built PE 1, so that is a memo hit *)
  let profile_app variant (a : Apps.t) =
    let app = a.Apps.name in
    let vspec = Option.value variant ~default:("spec:" ^ app) in
    let job =
      Apex.Jobs.Dse { apps = [ app ]; variants = [ vspec; "pe1:" ^ app ] }
    in
    match Apex.Jobs.execute job with
    | Dse_rows ([ ((_, v, _), r); ((_, pe1, _), r_pe1) ] as rows) ->
        let v = v.Apex.Variants.name in
        (match (Apex.Dse.mapped_opt r, Apex.Dse.mapped_opt r_pe1) with
        | Some pp, Some pr ->
            Format.printf
              "profile %s on %s: %.2f runs/ms/mm^2 vs %.2f on %s (%.2fx); %d \
               PEs, %d cycles/run@."
              app v pp.Apex.Metrics.perf_per_mm2 pr.Apex.Metrics.perf_per_mm2
              pe1.Apex.Variants.name
              (pp.perf_per_mm2 /. Float.max 1e-9 pr.perf_per_mm2)
              pp.pnr.pm.n_pes pp.cycles_per_run
        | Some pp, None ->
            Format.printf
              "profile %s on %s: %.2f runs/ms/mm^2; %d PEs, %d cycles/run@." app
              v pp.Apex.Metrics.perf_per_mm2 pp.pnr.pm.n_pes pp.cycles_per_run
        | None, _ ->
            Format.printf "profile %s on %s: %s@." app v
              (Apex.Dse.pair_status r));
        rows
    | _ -> assert false
  in
  let run () trace check optimize apps variant chrome =
    set_check check;
    set_optimize optimize;
    let apps =
      match apps () with
      | [] -> Apps.evaluated ()
      | names -> List.map Apex.Jobs.app_by_name names
    in
    (* profile implies tracing: the whole point is the report *)
    with_report ~always:true ~print:true trace @@ fun () ->
    if chrome <> None then Registry.set_events true;
    let rows = List.concat_map (profile_app variant) apps in
    (match chrome with
    | None -> ()
    | Some path -> (
        let events = Registry.events () in
        Registry.set_events false;
        (match Apex_telemetry.Chrome.write_file path events with
        | () ->
            Format.eprintf "telemetry: Chrome trace (%d events) written to %s@."
              (List.length events) path
        | exception Sys_error m ->
            Format.eprintf "telemetry: cannot write Chrome trace: %s@." m);
        match Registry.events_dropped () with
        | 0 -> ()
        | n ->
            Format.eprintf
              "telemetry: %d span events dropped (per-run event cap)@." n));
    (* the results section is a served DSE job's results bytes, so
       `report-diff --results-only` compares a profile with a dse run *)
    (0, Some (Apex.Jobs.results_json (Dse_rows rows)))
  in
  let apps =
    apps_t "profile" ~verb:"profile"
      ~all_doc:"Profile all six evaluated applications (Table 1)."
  in
  let variant =
    let doc = "PE variant to profile (default: spec:<app>)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "variant"; "v" ] ~docv:"VARIANT" ~doc)
  in
  let chrome =
    let doc =
      "Also record one trace event per span occurrence and write them as a \
       Chrome trace-event (catapult) JSON file to $(docv); load it in \
       about://tracing or Perfetto. Spans run on pool worker domains land \
       on their own timeline rows (tid = domain id), so a --jobs 4 run \
       renders as a parallel timeline."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Evaluate each application on its PE variant and on PE 1 (one DSE \
          job per application: variant search, mapping, PnR and pipelining) \
          with telemetry enabled, print the perf ratio and the span tree and \
          counter tables, and write the JSON report — whose results section \
          is the DSE job's rows — with --trace=FILE or APEX_TRACE.")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ apps
      $ variant $ chrome)

(* --- dse: the (variant x application) evaluation fleet --- *)

let dse_cmd =
  let run () trace check optimize apps variants json =
    (* the fleet is the whole point: telemetry is always on, so the
       degradation outcome counters land in the report *)
    with_report ~always:true trace @@ fun () ->
    set_check check;
    set_optimize optimize;
    (* variants are built on this domain (they feed the memo scope)
       while the pairs built before them evaluate; one construction
       failure is a configuration error and aborts once those pairs
       finish, unlike per-pair evaluation failures, which never do *)
    run_job { text with json }
      (Apex.Jobs.Dse { apps = apps (); variants })
  in
  let apps =
    apps_t "dse" ~verb:"evaluate"
      ~all_doc:"Evaluate all six evaluated applications (Table 1)."
  in
  let variants =
    let doc =
      "PE variant to include in the fleet (repeatable; default: base and \
       spec:<app> per application)."
    in
    Arg.(value & opt_all string [] & info [ "variant"; "v" ] ~docv:"VARIANT" ~doc)
  in
  let json = json_arg "Print the per-pair results as JSON." in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Evaluate a fleet of (variant, application) pairs — mapping, PnR, \
          pipelining — under the resource governor. Per-pair failures are \
          isolated (skipped/failed status per pair, exit 0 for the fleet); \
          deadlines and injected faults degrade phases to their documented \
          fallbacks, flagged as guard.outcome.* in the telemetry report. \
          With the cache on, every run resumes: a pair an earlier run \
          (even an interrupted one) finished is restored from its \
          checkpoint (exec.cache_hits) instead of evaluated again.")
    Term.(
      const run $ exec_t $ trace_arg $ check_arg $ optimize_arg $ apps
      $ variants $ json)

(* --- lint: run the checker registry over the flow's artifacts --- *)

let lint_cmd =
  let parse_codes flag = function
    | None -> []
    | Some s ->
        let codes =
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun c -> c <> "")
        in
        if codes = [] then
          invalid_arg (Printf.sprintf "lint: %s needs at least one code" flag);
        List.iter
          (fun c ->
            match Apex_lint.Engine.validate_code c with
            | Ok () -> ()
            | Error msg -> invalid_arg (Printf.sprintf "lint: %s: %s" flag msg))
          codes;
        codes
  in
  let list_codes json =
    let module D = Apex_lint.Diagnostic in
    if json then
      print_endline
        (Json.to_string
           (Json.List
              (List.map
                 (fun (i : D.info) ->
                   Json.Obj
                     [ ("code", Json.String i.D.code_info);
                       ("layer", Json.String i.D.layer);
                       ( "severity",
                         Json.String (D.severity_string i.D.default_severity) );
                       ("invariant", Json.String i.D.invariant) ])
                 D.catalog)))
    else
      List.iter
        (fun (i : D.info) ->
          Format.printf "%-8s %-8s %-12s %s@." i.D.code_info
            (D.severity_string i.D.default_severity)
            i.D.layer i.D.invariant)
        D.catalog
  in
  let run () trace optimize apps json werror only except codes =
    with_report trace @@ fun () ->
    if codes then begin
      list_codes json;
      (0, None)
    end
    else begin
      set_optimize optimize;
      let only = parse_codes "--only" only
      and except = parse_codes "--except" except in
      let filter = function
        | Apex.Jobs.Lint_report r ->
            Apex.Jobs.Lint_report
              (Apex_lint.Engine.filter_report ~only ~except r)
        | r -> r
      in
      run_job ~filter { text with json; werror }
        (Apex.Jobs.Lint { apps = apps () })
    end
  in
  let apps =
    apps_t "lint" ~verb:"lint" ~all_doc:"Lint all nine built-in applications."
  in
  let json = json_arg "Print the report as machine-readable JSON." in
  let werror =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Exit non-zero on warnings, not just errors.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"CODES"
          ~doc:
            "Comma-separated diagnostic codes to keep (e.g. \
             $(b,APX101,APX11x)); a trailing $(b,x) is a family wildcard. \
             Codes are validated against the catalog.")
  in
  let except =
    Arg.(
      value
      & opt (some string) None
      & info [ "except" ] ~docv:"CODES"
          ~doc:
            "Comma-separated diagnostic codes to drop (same syntax as \
             $(b,--only); applied after it).")
  in
  let codes =
    Arg.(
      value & flag
      & info [ "list-codes" ]
          ~doc:
            "Print every registered APX diagnostic code — default severity, \
             owning layer, and the invariant it protects — and exit.  \
             Combines with $(b,--json); needs no application names.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check every artifact the flow produces for an application — DFG, \
          mined patterns, merged datapath, rewrite rules, pipeline plans — \
          against the APX invariant catalog (see DESIGN.md).  \
          $(b,--list-codes) prints the catalog itself.")
    Term.(
      const run $ exec_t $ trace_arg $ optimize_arg $ apps $ json $ werror
      $ only $ except $ codes)

(* read and parse a JSON file; [fail] gets the io error or the parse
   error, as a one-line message *)
let load_json ~fail file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error m -> fail m
  | contents -> (
      match Json.of_string contents with
      | Ok j -> j
      | Error m -> fail (Printf.sprintf "%s: invalid JSON: %s" file m))

(* --- trace-check: validate a JSON telemetry report (used by `make ci`) --- *)

let trace_check_cmd =
  let run file requires forbids =
    let die m =
      Format.printf "trace-check: %s@." m;
      exit 1
    in
    let fail fmt = Format.kasprintf (fun m -> die (file ^ ": " ^ m)) fmt in
    let json = load_json ~fail:die file in
    let schema =
      match Option.bind (Json.member "schema" json) Json.to_string_opt with
      | Some s -> s
      | None -> fail "missing \"schema\" field"
    in
    if schema <> Report.schema_version then fail "unknown schema %S" schema;
    let counters =
      match Json.member "counters" json with
      | Some (Json.Obj fields) -> fields
      | _ -> fail "missing counters object"
    in
    if counters = [] then fail "empty counters object";
    if Json.member "spans" json = None then fail "missing spans object";
    let value name =
      Option.bind (List.assoc_opt name counters) Json.to_int_opt
    in
    List.iter
      (fun name ->
        match value name with
        | Some n when n > 0 -> ()
        | Some _ -> fail "counter %s is zero" name
        | None -> fail "counter %s is missing" name)
      requires;
    List.iter
      (fun name ->
        match value name with
        | Some n when n > 0 ->
            fail "counter %s is %d (forbidden non-zero)" name n
        | Some _ | None -> ())
      forbids;
    Format.printf "trace-check: %s: ok (%d required, %d forbidden counters)@."
      file (List.length requires) (List.length forbids)
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSON telemetry report to validate.")
  in
  let requires =
    Arg.(
      value
      & opt_all string []
      & info [ "require" ] ~docv:"COUNTER"
          ~doc:"Fail unless $(docv) is present and non-zero (repeatable).")
  in
  let forbids =
    Arg.(
      value
      & opt_all string []
      & info [ "forbid" ] ~docv:"COUNTER"
          ~doc:
            "Fail if $(docv) is present with a non-zero value (repeatable); \
             absent or zero passes — e.g. a fully warm cached run must show \
             no $(b,exec.cache_misses).")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a telemetry JSON report written by --trace=FILE.")
    Term.(const run $ file $ requires $ forbids)

(* --- cache: inspect and prune the on-disk artifact store --- *)

let cache_cmd =
  let stats_cmd =
    let run () =
      let stats = Apex_exec.Store.stats () in
      Format.printf "cache %s@." (Apex_exec.Store.cache_dir ());
      if stats = [] then Format.printf "  (empty)@."
      else begin
        Format.printf "  %-12s %8s %12s@." "namespace" "entries" "bytes";
        List.iter
          (fun (s : Apex_exec.Store.ns_stats) ->
            Format.printf "  %-12s %8d %12d@." s.ns s.entries s.bytes)
          stats;
        let entries, bytes =
          List.fold_left
            (fun (e, b) (s : Apex_exec.Store.ns_stats) ->
              (e + s.entries, b + s.bytes))
            (0, 0) stats
        in
        Format.printf "  %-12s %8d %12d@." "total" entries bytes
      end
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Per-namespace entry counts and sizes.")
      Term.(const run $ const ())
  in
  let gc_cmd =
    let run budget_mb max_bytes ns =
      let budget_bytes =
        match max_bytes with
        | Some b when b >= 0 -> b
        | Some b -> invalid_arg (Printf.sprintf "--max-bytes %d: negative" b)
        | None when budget_mb >= 0 -> budget_mb * 1024 * 1024
        | None ->
            invalid_arg (Printf.sprintf "--budget-mb %d: negative" budget_mb)
      in
      let deleted, freed =
        match ns with
        | Some ns -> Apex_exec.Store.gc_ns ~ns ~budget_bytes ()
        | None -> Apex_exec.Store.gc ~budget_bytes ()
      in
      Format.printf
        "cache gc%s: %d entries deleted, %d bytes freed (budget %d bytes)@."
        (match ns with Some ns -> " [" ^ ns ^ "]" | None -> "")
        deleted freed budget_bytes
    in
    let budget =
      Arg.(
        value & opt int 0
        & info [ "budget-mb" ] ~docv:"MIB"
            ~doc:
              "Keep the newest entries up to $(docv) mebibytes; delete the \
               rest (default 0: delete everything).")
    in
    let max_bytes =
      Arg.(
        value & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES"
            ~doc:
              "Exact byte budget (overrides $(b,--budget-mb)): keep the \
               newest entries up to $(docv) bytes, delete the rest.")
    in
    let ns =
      Arg.(
        value & opt (some string) None
        & info [ "ns" ] ~docv:"NS"
            ~doc:
              "Confine eviction to one namespace (as listed by `apex cache \
               stats`); other namespaces are untouched.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Delete oldest cache entries until the store fits a size budget.")
      Term.(const run $ budget $ max_bytes $ ns)
  in
  let scrub_cmd =
    let run ns strict =
      let stats = Apex_exec.Store.scrub ?ns () in
      Format.printf "cache scrub %s@." (Apex_exec.Store.cache_dir ());
      if stats = [] then Format.printf "  (no entries)@."
      else begin
        Format.printf "  %-12s %8s %8s %8s %8s %12s@." "namespace" "checked"
          "ok" "corrupt" "stale" "quarantined";
        List.iter
          (fun (s : Apex_exec.Store.scrub_stats) ->
            Format.printf "  %-12s %8d %8d %8d %8d %10d B@." s.scrub_ns
              s.checked s.ok s.corrupt s.stale s.quarantined_bytes)
          stats
      end;
      let corrupt =
        List.fold_left
          (fun acc (s : Apex_exec.Store.scrub_stats) -> acc + s.corrupt)
          0 stats
      in
      if corrupt > 0 then begin
        Format.printf
          "cache scrub: %d corrupt entr%s quarantined under %s@." corrupt
          (if corrupt = 1 then "y" else "ies")
          (Filename.concat (Apex_exec.Store.cache_dir ()) "quarantine");
        if strict then exit 1
      end
    in
    let ns =
      Arg.(
        value & opt (some string) None
        & info [ "ns" ] ~docv:"NS"
            ~doc:
              "Confine the audit to one namespace (as listed by `apex \
               cache stats`).")
    in
    let strict =
      Arg.(
        value & flag
        & info [ "strict" ]
            ~doc:"Exit 1 when any corrupt entry is found (CI gating).")
    in
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Integrity audit: re-verify every entry's payload digest. \
            Corrupt entries are quarantined (moved under \
            $(i,cache)/quarantine/, never silently deleted) and counted; \
            stale-format entries are counted and left for gc.")
      Term.(const run $ ns $ strict)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Manage the content-addressed artifact cache (APEX_CACHE_DIR, \
          default ~/.cache/apex).")
    [ stats_cmd; gc_cmd; scrub_cmd ]

(* --- report-diff: compare two telemetry reports modulo timing (the CI
   determinism guard: --jobs N and cached runs must not change what the
   flow computes) --- *)

let report_diff_cmd =
  let run a_file b_file results_only =
    let fail fmt =
      Format.kasprintf
        (fun m ->
          Format.printf "report-diff: %s@." m;
          exit 2)
        fmt
    in
    let load = load_json ~fail:(fail "%s") in
    (* normalization: drop wall-clock and GC fields everywhere (both
       are measurements of *how* the run went, not *what* it computed),
       drop timing distributions (the `_ms` naming convention), and
       drop the runtime's own exec.* metrics — worker/cache bookkeeping
       is *expected* to differ across --jobs and cache configurations *)
    let exec_metric (k, _) = String.length k >= 5 && String.sub k 0 5 = "exec." in
    let timing_dist (k, _) = String.ends_with ~suffix:"_ms" k in
    let rec normalize = function
      | Json.Obj fields ->
          Json.Obj
            (List.filter_map
               (fun (k, v) ->
                 match (k, v) with
                 | "total_ms", _ -> None
                 | "gc", _ -> None
                 | ("counters" | "gauges"), Json.Obj fs ->
                     Some
                       ( k,
                         Json.Obj
                           (List.filter (fun f -> not (exec_metric f)) fs
                           |> List.map (fun (k2, v2) -> (k2, normalize v2))) )
                 | "distributions", Json.Obj fs ->
                     Some
                       ( k,
                         Json.Obj
                           (List.filter
                              (fun f ->
                                not (exec_metric f) && not (timing_dist f))
                              fs
                           |> List.map (fun (k2, v2) -> (k2, normalize v2))) )
                 | _ -> Some (k, normalize v))
               fields)
      | Json.List l -> Json.List (List.map normalize l)
      | j -> j
    in
    let project file j =
      if not results_only then normalize j
      else
        match Json.member "results" j with
        | Some r -> r
        | None -> fail "%s has no \"results\" section" file
    in
    let a = project a_file (load a_file) in
    let b = project b_file (load b_file) in
    if Json.to_string a = Json.to_string b then begin
      Format.printf "report-diff: %s and %s agree%s@." a_file b_file
        (if results_only then " (results)" else " (modulo timing)");
      exit 0
    end
    else begin
      Format.printf "report-diff: %s and %s DIFFER%s@." a_file b_file
        (if results_only then " (results)" else " (modulo timing)");
      exit 1
    end
  in
  let a_file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"First JSON telemetry report.")
  in
  let b_file =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Second JSON telemetry report.")
  in
  let results_only =
    Arg.(
      value & flag
      & info [ "results-only" ]
          ~doc:
            "Compare only the reports' \"results\" sections (for cold- vs \
             warm-cache runs, whose counters and spans legitimately differ).")
  in
  Cmd.v
    (Cmd.info "report-diff"
       ~doc:
         "Compare two telemetry JSON reports modulo timing fields and \
          runtime (exec.*) metrics; exit 0 when they agree, 1 when they \
          differ.")
    Term.(const run $ a_file $ b_file $ results_only)

(* --- bench-diff: the benchmark-trajectory regression gate (used by
   `make ci` against the committed BENCH_<area>.json baselines) --- *)

let bench_diff_cmd =
  let run old_file new_file =
    let fail fmt =
      Format.kasprintf
        (fun m ->
          Format.printf "bench-diff: %s@." m;
          exit 2)
        fmt
    in
    let load = load_json ~fail:(fail "%s") in
    let old_j = load old_file in
    let new_j = load new_file in
    match Apex.Snapshot.diff old_j new_j with
    | [] ->
        Format.printf
          "bench-diff: %s and %s agree (exact counters, per-layer allocation \
           within bounds)@."
          old_file new_file;
        exit 0
    | errs ->
        Format.printf "bench-diff: %s vs %s: %d regression finding%s@."
          old_file new_file (List.length errs)
          (if List.length errs = 1 then "" else "s");
        List.iter (fun e -> Format.printf "  %s@." e) errs;
        exit 1
  in
  let old_file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline snapshot (BENCH_<area>.json).")
  in
  let new_file =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Freshly generated snapshot to gate.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two benchmark snapshots written by `bench --snapshot`: \
          exit 1 on any exact-counter drift or a layer whose allocation \
          moved by more than the larger of 10% and 64 kw, 0 when the \
          trajectory holds.")
    Term.(const run $ old_file $ new_file)

(* --- serve / submit: the multi-tenant job daemon and its client --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix domain socket path the daemon listens on.")

let serve_cmd =
  let run trace socket jobs max_queue deadline quota_mb journal =
    with_report trace @@ fun () ->
    let config =
      { Apex_serve.Server.socket_path = socket;
        jobs;
        max_queue;
        default_deadline_s = deadline;
        tenant_quota_bytes = Option.map (fun mb -> mb * 1024 * 1024) quota_mb;
        journal_path = journal }
    in
    let t = Apex_serve.Server.start config in
    let stop _ = Apex_serve.Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Format.printf "apex serve: listening on %s (%d jobs, queue depth %d)@."
      socket jobs max_queue;
    Format.print_flush ();
    Apex_serve.Server.join t;
    Format.printf "apex serve: shut down@.";
    (0, None)
  in
  let jobs =
    Arg.(
      value & opt int 4
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Scheduler batch width: how many admitted requests are in \
             flight at once. Each request runs serially (the request is \
             the unit of parallelism).")
  in
  let max_queue =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"D"
          ~doc:
            "Admission cap: requests queued beyond $(docv) get a typed \
             over-capacity reject instead of waiting.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline cap in seconds (the effective deadline is \
             the smaller of this and the request's own deadline_s). Queue \
             wait counts against it.")
  in
  let quota_mb =
    Arg.(
      value & opt (some int) None
      & info [ "tenant-quota-mb" ] ~docv:"MIB"
          ~doc:
            "Per-tenant artifact-cache byte quota: after every request the \
             tenant's namespaces are trimmed oldest-first to $(docv) \
             mebibytes.")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead job journal: every admission is fsynced to \
             $(docv) before it enters the queue, and on startup \
             unfinished jobs from a previous incarnation (e.g. after \
             kill -9) are replayed ahead of new submissions.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant job daemon: \
          DSE/analyze/configspace/lint/map/mine jobs \
          as length-prefixed JSON over a Unix domain socket, with admission \
          control, per-tenant cache namespaces and per-request isolation. \
          SIGTERM/SIGINT shut down gracefully (queued requests are answered \
          cancelled, in-flight ones degrade via their guard outcomes). With \
          --trace=FILE the daemon writes its own serve.* telemetry report \
          on shutdown.")
    Term.(const run $ trace_arg $ socket_arg $ jobs $ max_queue $ deadline
          $ quota_mb $ journal)

let submit_cmd =
  let run socket tenant deadline out json_flag job_strs =
    let jobs =
      List.map
        (fun s ->
          match Json.of_string s with
          | Ok j -> Apex.Jobs.of_json j
          | Error m ->
              invalid_arg (Printf.sprintf "submit: job %S: invalid JSON: %s" s m))
        job_strs
    in
    if jobs = [] then invalid_arg "submit: provide at least one job spec";
    let c = Apex_serve.Client.connect socket in
    Fun.protect ~finally:(fun () -> Apex_serve.Client.close c) @@ fun () ->
    let exit_code = ref 0 in
    List.iteri
      (fun i job ->
        let resp =
          Apex_serve.Client.request c
            { Apex_serve.Proto.tenant; job; deadline_s = deadline }
        in
        match resp with
        | Apex_serve.Proto.Ok report ->
            (* several jobs sharing --out: the last report wins *)
            Option.iter (fun path -> Json.write_file path report) out;
            if json_flag then
              print_endline
                (Json.to_string
                   (Option.value ~default:Json.Null
                      (Json.member "results" report)))
            else
              Format.printf "submit[%d]: %s ok (tenant %s)@." i
                (Apex.Jobs.kind job) tenant
        | Apex_serve.Proto.Error e ->
            if json_flag then
              print_endline (Json.to_string (Apex_serve.Proto.error_to_json e))
            else Format.eprintf "submit[%d]: %s: %s@." i e.kind e.message;
            if !exit_code = 0 then exit_code := e.code)
      jobs;
    if !exit_code <> 0 then exit !exit_code
  in
  let tenant =
    Arg.(
      value & opt string "default"
      & info [ "tenant"; "t" ] ~docv:"NAME"
          ~doc:
            "Tenant namespace ([A-Za-z0-9_-]): requests of one tenant share \
             warm cache artifacts; tenants never see each other's.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:"Request deadline in seconds, queue wait included.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the response's embedded telemetry report (results \
             section included) to $(docv) — the same apex.telemetry/1 \
             schema --trace=FILE writes, so `apex trace-check` and `apex \
             report-diff` consume it directly.")
  in
  let json_flag =
    json_arg "Print the results section (or the error object) as JSON."
  in
  let job_specs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"JOB"
          ~doc:
            "Job spec as JSON, e.g. '{\"kind\":\"dse\",\"apps\":[\"camera\"]}' \
             (kinds: dse, analyze, configspace, lint, map, mine, sleep). \
             Repeatable; jobs \
             run sequentially on one connection.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit jobs to a running `apex serve` daemon and wait for the \
          results. Exits with the server error's code on failure (the same \
          five-way map the CLI uses).")
    Term.(
      const run $ socket_arg $ tenant $ deadline $ out $ json_flag $ job_specs)

(* --- chaos: run a flow under a seeded multi-shot fault schedule and
   check the results-identical-or-degraded contract --- *)

let chaos_cmd =
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let run app seed faults json =
    if faults < 1 then invalid_arg "chaos: --faults must be at least 1";
    ignore (Apex.Jobs.app_by_name app : Apps.t);
    Registry.enable ();
    (* serial, so the order in which fault sites are reached — and
       therefore which occurrence each shot hits — is deterministic;
       that plus the seeded schedule makes the whole report a pure
       function of (app, seed, faults) *)
    Apex_exec.Pool.set_jobs 1;
    let job = Apex.Jobs.Dse { apps = [ app ]; variants = [] } in
    let scratch tag =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "apex-chaos-%d-%s" (Unix.getpid ()) tag)
    in
    let base_dir = scratch "baseline" and chaos_dir = scratch "chaos" in
    (* both runs start cold in scratch caches: a warm hit would skip
       the very code paths the schedule is aimed at *)
    let run_flow cache =
      Apex_exec.Store.set_dir cache;
      Registry.reset ();
      match Apex.Jobs.run job with
      | results -> (results, Registry.snapshot (), None)
      | exception e ->
          (Json.Null, Registry.snapshot (),
           Some (Apex_serve.Proto.error_of_exn e))
    in
    Fun.protect ~finally:(fun () ->
        Apex_guard.Fault.disarm ();
        rm_rf base_dir;
        rm_rf chaos_dir)
    @@ fun () ->
    Apex_guard.Fault.disarm ();
    let base_results, _, base_err = run_flow base_dir in
    (match base_err with
    | Some (e : Apex_serve.Proto.error) ->
        invalid_arg
          (Printf.sprintf "chaos: fault-free baseline run failed (%s: %s)"
             e.kind e.message)
    | None -> ());
    Apex_guard.Fault.arm_seeded ~seed ~faults;
    let chaos_results, snap, chaos_err = run_flow chaos_dir in
    let schedule = Apex_guard.Fault.schedule () in
    let counters =
      match Json.member "counters" (Report.to_json snap) with
      | Some (Json.Obj fs) ->
          (* only deterministic counts: governance and flow counters,
             never timings — the --json report must be a pure function
             of (app, seed, faults) for the CI determinism check *)
          List.filter
            (fun (k, _) ->
              (String.starts_with ~prefix:"guard." k
              || String.starts_with ~prefix:"dse." k)
              && not (String.ends_with ~suffix:"_ms" k))
            fs
      | _ -> []
    in
    let cval k =
      match List.assoc_opt k counters with Some (Json.Int n) -> n | _ -> 0
    in
    let degraded_evidence =
      cval "guard.outcome.degraded" > 0 || cval "guard.outcome.skipped" > 0
    in
    let identical =
      chaos_err = None
      && String.equal
           (Json.to_string base_results)
           (Json.to_string chaos_results)
    in
    let verdict, exit_code =
      match chaos_err with
      | Some e ->
          (* the fault escaped every recovery ladder but still exits
             through the typed map — that *is* the exit-code contract *)
          ("error:" ^ e.kind, e.code)
      | None ->
          if identical then ("identical", 0)
          else if degraded_evidence then ("degraded", 0)
          else
            (* different results with no recorded degradation would be
               a silent-corruption bug: fail loudly *)
            ("diverged", 2)
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("schema", Json.String "apex.chaos/1");
                ("app", Json.String app);
                ("seed", Json.Int seed);
                ("faults", Json.Int faults);
                ( "schedule",
                  Json.List
                    (List.map
                       (fun (site, nth, fired) ->
                         Json.Obj
                           [ ("site", Json.String site);
                             ("nth", Json.Int nth);
                             ("fired", Json.Bool fired) ])
                       schedule) );
                ("verdict", Json.String verdict);
                ("exit_code", Json.Int exit_code);
                ("counters", Json.Obj counters) ]))
    else begin
      Format.printf "chaos %s: seed %d, %d shot%s@." app seed faults
        (if faults = 1 then "" else "s");
      List.iter
        (fun (site, nth, fired) ->
          Format.printf "  %-24s occurrence %d  %s@." site nth
            (if fired then "fired" else "not reached"))
        schedule;
      Format.printf "chaos %s: verdict %s (%d fault%s injected)@." app verdict
        (cval "guard.faults_injected")
        (if cval "guard.faults_injected" = 1 then "" else "s")
    end;
    if exit_code <> 0 then exit exit_code
  in
  let app_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application to run the flow on.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Schedule seed: the shots are drawn from a deterministic \
             generator keyed on $(docv), so the same seed always injects \
             the same faults at the same occurrences.")
  in
  let faults =
    Arg.(
      value & opt int 3
      & info [ "faults" ] ~docv:"N"
          ~doc:"How many (site, occurrence) shots to draw (default 3).")
  in
  let json =
    json_arg
      "Print the chaos report as JSON — deterministic for a given (APP, \
       --seed, --faults), which is what the CI determinism check compares."
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the DSE flow for one application twice — fault-free, then \
          under a seeded multi-shot fault schedule drawn over every \
          registered site — and check the crash-only contract: the faulted \
          run's results are byte-identical to the baseline or carry typed \
          degradation evidence (guard.outcome.*), and any escaped fault \
          exits through the five-way exit-code map. APEX_FAULT=seed:S:N is \
          the equivalent environment setting for any other subcommand.")
    Term.(const run $ app_arg $ seed $ faults $ json)

let main =
  let doc = "APEX: automated CGRA processing-element design-space exploration" in
  Cmd.group (Cmd.info "apex" ~version:"1.0.0" ~doc)
    [ apps_cmd; mine_cmd; analyze_cmd; pe_cmd; map_cmd; evaluate_cmd;
      verify_cmd; compile_cmd; profile_cmd; dse_cmd; lint_cmd;
      trace_check_cmd; cache_cmd; report_diff_cmd; bench_diff_cmd;
      serve_cmd; submit_cmd; chaos_cmd ]

let () =
  (* Error hygiene: every anticipated failure class gets a one-line
     structured error and its own exit code, never cmdliner's "internal
     error" banner or a backtrace.
       1  unmappable        the variant's rule set cannot cover the app
       2  invalid-argument  bad flag value, unknown app/variant, misuse
       3  io-error          filesystem trouble (reports, cache, inputs)
       4  cancelled         an uncaught budget cancellation
       5  fault-injected    an injected fault escaped every recovery
                            ladder (a guard bug by definition)
     When --json is anywhere on the command line the error is printed
     as a JSON object on stdout instead, so scripted callers parse one
     format for both success and failure. *)
  let fail code kind msg =
    if Array.exists (String.equal "--json") Sys.argv then
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("error", Json.String kind);
                ("message", Json.String msg);
                ("exit_code", Json.Int code) ]))
    else Format.eprintf "apex: %s: %s@." kind msg;
    exit code
  in
  try exit (Cmd.eval ~catch:false main) with
  | Invalid_argument msg | Failure msg -> fail 2 "invalid-argument" msg
  | Sys_error msg -> fail 3 "io-error" msg
  | Apex_guard.Cancelled msg -> fail 4 "cancelled" msg
  | Apex_guard.Fault.Injected site -> fail 5 "fault-injected" site
  | Apex_mapper.Cover.Unmappable msg -> fail 1 "unmappable" msg
