(* The `apex lint` driver, shared with the test suite.

   For each application it lints every artifact the flow produces on
   the way to a specialized PE: the application DFG, the mined pattern
   graphs, the merged pek:2 datapath with its synthesized rule set, the
   PE pipeline plan and the mapped, register-balanced application plan.
   The baseline PE's datapath, rules and plan are linted once. *)

module Apps = Apex_halide.Apps
module Pattern = Apex_mining.Pattern
module Pe_pipeline = Apex_pipelining.Pe_pipeline
module App_pipeline = Apex_pipelining.App_pipeline
module Engine = Apex_lint.Engine

(* enough merging to exercise every checker (complex configs, mux
   selects, SAT-verified rules) while keeping `lint --all` interactive *)
let n_subgraphs = 2

let artifacts_for (app : Apps.t) =
  let app = Optimize.app app in
  let v = Dse.pe_k app n_subgraphs in
  let label what = Printf.sprintf "%s/%s" app.Apps.name what in
  let dfgs =
    Engine.Dfg { label = app.Apps.name; graph = app.Apps.graph }
    :: List.map
         (fun p ->
           Engine.Dfg
             { label = label (Pattern.code p); graph = Pattern.graph p })
         v.Variants.patterns
  in
  let _, mapped = Dse.mapping v app in
  let pe_plan = Pe_pipeline.plan v.Variants.dp in
  let app_plan = App_pipeline.balance mapped ~pe_latency:pe_plan.stages in
  dfgs
  @ [ Engine.Datapath
        { label = label v.Variants.name;
          dp = v.Variants.dp;
          patterns = v.Variants.patterns };
      Engine.Rule_set
        { label = label v.Variants.name;
          dp = v.Variants.dp;
          rules = v.Variants.rules };
      Engine.Pe_plan
        { label = label v.Variants.name; dp = v.Variants.dp; plan = pe_plan };
      Engine.App_plan
        { label = label "mapped"; cover = mapped; plan = app_plan } ]

let base_artifacts () =
  let b = Dse.baseline () in
  [ Engine.Datapath
      { label = b.Variants.name; dp = b.Variants.dp; patterns = [] };
    Engine.Rule_set
      { label = b.Variants.name; dp = b.Variants.dp; rules = b.Variants.rules };
    Engine.Pe_plan
      { label = b.Variants.name;
        dp = b.Variants.dp;
        plan = Pe_pipeline.plan b.Variants.dp } ]

let all_apps () = Apps.evaluated () @ Apps.unseen ()

let run apps =
  Engine.run (base_artifacts () @ List.concat_map artifacts_for apps)
