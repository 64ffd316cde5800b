module Apps = Apex_halide.Apps
module Counter = Apex_telemetry.Counter
module Span = Apex_telemetry.Span
module Analysis = Apex_mining.Analysis
module Miner = Apex_mining.Miner
module Pattern = Apex_mining.Pattern
module Lint = Apex_lint.Engine

(* The memo scope of a job: the mining analyses, the built variants,
   and the post-mapping results (record and cover) the PE Spec climb's
   scoring computed, so a pair evaluation of the winning variant does
   not map it again.  Only the domain that builds variants touches it:
   the pool's producer looks a pair's cover up and hands it to the
   task ([evaluate_built]), and runners never read the scope. *)
type scope = {
  analyses : (string * string, Analysis.ranked list) Hashtbl.t;
  variants : (string, Variants.t) Hashtbl.t;
  covers : (string, Metrics.post_mapping * Apex_mapper.Cover.t) Hashtbl.t;
}

let new_scope () =
  { analyses = Hashtbl.create 16;
    variants = Hashtbl.create 16;
    covers = Hashtbl.create 16 }

let global_scope = new_scope ()

(* A server runs each request under [with_local_memo]: the request gets
   a fresh private memo scope instead of the process-global one, so two
   concurrent requests never race the unsynchronized tables, and
   artifacts cross requests only through the tenant-namespaced
   Exec.Store — never through ambient process memory that would bypass
   namespace isolation.  A long-lived process holds the scope's
   analyses, variants and covers no longer than the scope.
   Domain-local: whatever builds variants must run on the domain that
   opened the scope, as a pool's producer always does. *)
let local_key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_scope () =
  match !(Domain.DLS.get local_key) with Some s -> s | None -> global_scope

let with_local_memo f =
  let r = Domain.DLS.get local_key in
  let saved = !r in
  r := Some (new_scope ());
  Fun.protect f ~finally:(fun () -> r := saved)

let default_mining = { Miner.default_config with max_size = 4 }

let config_key (c : Miner.config) =
  Printf.sprintf "%d/%d/%b/%b/%d" c.min_support c.max_size c.include_consts
    c.generalize_consts c.max_subgraphs

let analysis_of ?(config = default_mining) (app : Apps.t) =
  let app = Optimize.app app in
  let key = (app.name, config_key config ^ Optimize.key_suffix ()) in
  let analyses = (current_scope ()).analyses in
  match Hashtbl.find_opt analyses key with
  | Some r ->
      Counter.incr "dse.analysis_cache_hits";
      r
  | None ->
      Counter.incr "dse.analysis_cache_misses";
      let ranked =
        (* keyed on the graph content, not the app name: a renamed but
           structurally identical kernel reuses the mined artifact *)
        Apex_exec.Store.memoize ~ns:"analysis"
          ~key:
            (Apex_exec.Store.key ~version:"analysis/1"
               [ Apex_exec.Store.fingerprint app.graph; config_key config ])
          (fun () -> fst (Analysis.analyze ~config app.graph))
      in
      (* lint verification runs warm or cold — it checks invariants of
         this build's IR, which a cached artifact may violate *)
      Check.verify "mining"
        (Lint.Dfg { label = app.name; graph = app.graph }
        :: List.map
             (fun (r : Analysis.ranked) ->
               Lint.Dfg
                 { label =
                     Printf.sprintf "%s/%s" app.name (Pattern.code r.pattern);
                   graph = Pattern.graph r.pattern })
             ranked);
      Hashtbl.replace analyses key ranked;
      ranked

let memo key f =
  (* optimized and raw flows must not alias a cached variant *)
  let key = key ^ Optimize.key_suffix () in
  let cache = (current_scope ()).variants in
  match Hashtbl.find_opt cache key with
  | Some v ->
      Counter.incr "dse.memo_hits";
      v
  | None ->
      Counter.incr "dse.memo_misses";
      let v = Span.with_ ("variant:" ^ key) f in
      Hashtbl.replace cache key v;
      v

let baseline () = memo "base" Variants.baseline

let pe_k (app : Apps.t) k =
  memo
    (Printf.sprintf "pek:%s:%d" app.name k)
    (fun () ->
      if k = 0 then { (Variants.pe1 app) with name = "PE 1" }
      else Variants.specialized app (analysis_of app) ~n_subgraphs:k)

let camera_variants () =
  let camera = Apps.by_name "camera" in
  baseline () :: List.init 4 (fun k -> pe_k camera k)

(* What any evaluation of [v] against [app] is a function of.  Keyed
   on the evaluation's *inputs*, never on structural fingerprints of
   derived artifacts: pattern graphs carry a lazily-filled width cache,
   so their marshalled form depends on what ran before in the process.
   The canonical pattern codes plus the (immutable) datapath determine
   the rule set too. *)
let eval_inputs (v : Variants.t) (app : Apps.t) =
  let module D = Apex_merging.Datapath in
  let dp = v.dp in
  [ Apex_exec.Store.fingerprint (dp.D.nodes, dp.D.edges, dp.D.configs);
    Apex_exec.Store.fingerprint (List.map Apex_mining.Pattern.code v.patterns);
    app.Apps.name;
    Optimize.key_suffix () ]

(* Store key for one evaluation of [eval_inputs]: bump the version tag
   when the synthesis or metrics pipeline changes what it produces. *)
let variant_eval_key ~version inputs effort =
  Apex_exec.Store.key ~version
    (inputs @ [ (match effort with None -> "d" | Some e -> string_of_int e) ])

(* pm-score/2: idle-FU energy honors configuration-space clock gating *)
let mapping_key inputs = variant_eval_key ~version:"pm-score/2" inputs None

(* area-energy score of a variant on one application, post-mapping.
   The mapping behind it is the costly step of the [pe_spec] climb, so
   the score is store-memoized like any other phase product; the
   structural [Unmappable] verdict is part of the cached result (an
   [Error] re-raises on every hit).  A computed mapping is also kept in
   the memo scope's covers, for the pair evaluations of variants built
   after it. *)
let score (v : Variants.t) app =
  let key = mapping_key (eval_inputs v app) in
  match
    Apex_exec.Store.memoize ~ns:"mapping" ~key (fun () ->
        match Metrics.post_mapping v app with
        | (pm, _) as mapping ->
            Hashtbl.replace (current_scope ()).covers key mapping;
            Ok (pm.Metrics.total_pe_area *. pm.Metrics.pe_energy_per_output)
        | exception Apex_mapper.Cover.Unmappable m -> Error m)
  with
  | Ok s -> s
  | Error m -> raise (Apex_mapper.Cover.Unmappable m)

(* the climb's cap on merged subgraphs; [spec:<app>] names its result *)
let max_spec_subgraphs = 5

let pe_spec (app : Apps.t) =
  memo
    (Printf.sprintf "spec:%s" app.name)
    (fun () ->
      let ranked = analysis_of app in
      let available =
        min max_spec_subgraphs
          (List.length (Variants.interesting_patterns ranked))
      in
      let rec climb k best best_score =
        if k > available then best
        else begin
          let cand = pe_k app k in
          match score cand app with
          | s when s < best_score -> climb (k + 1) cand s
          | _ -> best (* stop at the first non-improvement *)
          | exception Apex_mapper.Cover.Unmappable _ -> best
        end
      in
      let first = pe_k app 0 in
      let v = climb 1 first (score first app) in
      { v with name = "PE Spec" })

let ip_apps () =
  List.map Apps.by_name [ "camera"; "harris"; "gaussian"; "unsharp" ]

let ml_apps () = List.map Apps.by_name [ "resnet"; "mobilenet" ]

let domain ~name ~per_app apps =
  Variants.domain ~name ~per_app (List.map analysis_of apps)

let pe_ip () = memo "ip" (fun () -> domain ~name:"PE IP" ~per_app:2 (ip_apps ()))

let pe_ip2 () =
  memo "ip2" (fun () -> domain ~name:"PE IP2" ~per_app:4 (ip_apps ()))

let pe_ip3 () =
  memo "ip3" (fun () ->
      (* unbalanced merge: camera-heavy subgraph selection *)
      let camera = Apps.by_name "camera" in
      let camera_patterns =
        List.filteri (fun i _ -> i < 3)
          (Variants.interesting_patterns (analysis_of camera))
      in
      let domain = domain ~name:"PE IP3" ~per_app:1 (ip_apps ()) in
      let seeded =
        Apex_peak.Library.subset
          ~ops:
            (List.concat_map
               (fun (a : Apps.t) ->
                 Apex_peak.Library.ops_of_graph (Optimize.app a).graph)
               (ip_apps ())
            |> List.sort_uniq Apex_dfg.Op.compare)
      in
      let patterns =
        (* camera's top three, then whatever the balanced selection adds *)
        let seen = Hashtbl.create 8 in
        List.filter
          (fun p ->
            let code = Apex_mining.Pattern.code p in
            if Hashtbl.mem seen code then false
            else begin
              Hashtbl.replace seen code ();
              true
            end)
          (camera_patterns @ domain.patterns)
      in
      let dp =
        List.fold_left
          (fun dp p -> fst (Apex_merging.Merge.merge dp p))
          seeded patterns
      in
      Variants.make "PE IP3" dp patterns)

let pe_ml () =
  memo "ml" (fun () -> domain ~name:"PE ML" ~per_app:2 (ml_apps ()))

type pair_result =
  | Mapped of Metrics.post_pipelining
  | Unmappable of string
  | Skipped of string
  | Failed of string

(* Pair evaluations are pure in (variant, app, effort, optimize config),
   so their two *structural* verdicts are shared through the artifact
   store like any other phase product.  Budget trips and injected
   faults are run-local circumstances, never cached. *)
type cached_pair =
  | Cached_mapped of Metrics.post_pipelining
  | Cached_unmappable of string

let eval_pair ?effort ?mapping (v : Variants.t) (app : Apps.t) =
  let inputs = eval_inputs v app in
  (* pair-eval/2: idle-FU energy honors configuration-space clock gating *)
  let key = variant_eval_key ~version:"pair-eval/2" inputs effort in
  match Apex_exec.Store.lookup ~ns:"pairs" ~key with
  | Some c ->
      (* a pair-granularity checkpoint: this exact evaluation completed
         in some earlier (possibly killed) run and resumes for free *)
      Counter.incr "dse.pairs_resumed";
      (c : cached_pair)
  | None ->
      if Option.is_some mapping then Counter.incr "dse.covers_reused";
      let c =
        match Metrics.post_pipelining ?effort ?mapping v app with
        | pp, _, _ -> Cached_mapped pp
        | exception Apex_mapper.Cover.Unmappable m -> Cached_unmappable m
      in
      Apex_exec.Store.store ~ns:"pairs" ~key c;
      Counter.incr "dse.pairs_checkpointed";
      c

let mapped_opt = function Mapped pp -> Some pp | _ -> None

let pair_status = function
  | Mapped _ -> "mapped"
  | Unmappable _ -> "unmappable"
  | Skipped _ -> "skipped"
  | Failed _ -> "failed"

(* Per-pair isolation: one pathological pair must never abort the
   fleet.  [Unmappable] is the structural verdict (the variant's rule
   set cannot cover the app — expected for specialized PEs), [Skipped]
   a budget trip before the pair finished, [Failed] an unexpected
   per-pair error; the three are counted separately so a report cannot
   pass a died-silently run off as a coverage result. *)
let evaluate_pair ?effort ?mapping ((v : Variants.t), (app : Apps.t)) =
  Apex_guard.with_phase "evaluate" @@ fun () ->
  Counter.time "dse.pair_eval_ms" @@ fun () ->
  match
    Apex_guard.tick ();
    Apex_guard.Fault.inject "pair-eval";
    (* transient failures retry with bounded deterministic backoff;
       only exhaustion falls through to the Failed/Skipped ladder *)
    Apex_guard.Retry.run ~label:"pair_eval"
      ~retryable:(function
        | Apex_guard.Fault.Injected "pair-eval-transient" -> true
        | _ -> false)
      (fun () ->
        Apex_guard.Fault.inject "pair-eval-transient";
        eval_pair ?effort ?mapping v app)
  with
  | Cached_mapped pp ->
      Apex_guard.Outcome.record ~phase:"evaluate" Apex_guard.Outcome.Exact;
      Mapped pp
  | Cached_unmappable m ->
      Counter.incr "dse.unmappable_pairs";
      Unmappable m
  | exception Apex_guard.Cancelled msg ->
      Counter.incr "dse.skipped_pairs";
      Apex_guard.Outcome.record ~phase:"evaluate"
        (Apex_guard.Outcome.Skipped (Apex_guard.reason_of_message msg));
      Skipped msg
  | exception Apex_guard.Fault.Injected site ->
      Counter.incr "dse.failed_pairs";
      Apex_guard.Outcome.record ~phase:"evaluate"
        (Apex_guard.Outcome.Skipped (Apex_guard.Outcome.Fault site));
      Failed (Printf.sprintf "injected fault at site %s" site)
  | exception (Failure m | Invalid_argument m | Sys_error m) ->
      Counter.incr "dse.failed_pairs";
      Apex_guard.Outcome.record ~phase:"evaluate"
        (Apex_guard.Outcome.Skipped (Apex_guard.Outcome.Error m));
      Failed m

(* Evaluate (variant, app) pairs on the domain pool, each built by
   [build] on the calling domain while earlier pairs evaluate: variant
   *construction* feeds the domain-local memo scope, so it stays on the
   caller, while evaluation is pure per pair.  The producer also looks
   up the pair's cover, right after building it, and hands it to the
   task: a pair reuses the cover of a variant built before it, never
   one a later build scores while it runs, so what it reuses is the
   same at every pool width.  Results come back in submission order. *)
let evaluate_built ?effort ~build items =
  let produce x =
    let ((v, app) as pair) = build x in
    (* the optimized kernel, too, is built here rather than on a runner *)
    ignore (Optimize.app app : Apps.t);
    ( pair,
      Hashtbl.find_opt (current_scope ()).covers
        (mapping_key (eval_inputs v app)) )
  in
  Apex_exec.Pool.pipeline ~produce
    (fun (pair, mapping) -> (pair, evaluate_pair ?effort ?mapping pair))
    items

let evaluate_pairs ?effort pairs =
  List.map snd (evaluate_built ?effort ~build:Fun.id pairs)

let accepted_variant_forms =
  [ "base"; "ip"; "ip2"; "ip3"; "ml"; "spec:<app>"; "pe1:<app>"; "pek:<app>:<k>" ]

let variant_error spec detail =
  invalid_arg
    (Printf.sprintf "Dse.variant_for: %s in %S (accepted forms: %s)" detail
       spec
       (String.concat ", " accepted_variant_forms))

let app_for spec name =
  match Apps.by_name name with
  | app -> app
  | exception Not_found ->
      variant_error spec (Printf.sprintf "unknown application %S" name)

let variant_for name =
  match String.split_on_char ':' name with
  | [ "base" ] -> baseline ()
  | [ "ip" ] -> pe_ip ()
  | [ "ip2" ] -> pe_ip2 ()
  | [ "ip3" ] -> pe_ip3 ()
  | [ "ml" ] -> pe_ml ()
  | [ "spec"; app ] -> pe_spec (app_for name app)
  | [ "pe1"; app ] -> pe_k (app_for name app) 0
  | [ "pek"; app; k ] -> (
      match int_of_string_opt k with
      | Some n when n >= 0 -> pe_k (app_for name app) n
      | Some _ ->
          variant_error name
            (Printf.sprintf "negative subgraph count %S" k)
      | None ->
          variant_error name
            (Printf.sprintf "malformed subgraph count %S" k))
  | _ -> variant_error name (Printf.sprintf "unknown variant %S" name)
