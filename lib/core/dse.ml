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

let mining_config = { Miner.default_config with max_size = 4 }

let analysis_of (app : Apps.t) =
  let app = Optimize.app app in
  let key = (app.name, Optimize.key_suffix ()) in
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
            (Apex_exec.Store.key ~version:"analysis/2"
               (app.graph, mining_config))
          (fun () -> fst (Analysis.analyze ~config:mining_config app.graph))
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

(* A kernel's content as evaluation reads it, not its name.  Kernels are
   immutable process-lifetime values (Apps' table, Optimize's cache): each
   is digested once, then found by identity (a lost race digests twice). *)
let kernel_digests : (Apps.t * string) list Atomic.t = Atomic.make []

let kernel_digest (k : Apps.t) =
  let known = Atomic.get kernel_digests in
  match List.assq_opt k known with
  | Some d -> d
  | None ->
      let d =
        Apex_exec.Store.key ~version:"kernel/1"
          (k.graph, k.unroll, k.mem_tiles, k.io_tiles, k.outputs_per_run)
      in
      ignore (Atomic.compare_and_set kernel_digests known ((k, d) :: known));
      d

(* Store key of one evaluation of [v] against [app], on what it reads:
   the variant's datapath and rule set (digested when the variant was
   built), the kernel [Optimize.app] gives (a degraded rewrite keys the
   kernel it left) and the effort.  Not the merged patterns: a degraded
   synthesis gives the same patterns a different rule set.  Bump the
   version tag when synthesis or metrics change what they produce. *)
let eval_key ~version ?effort (v : Variants.t) (app : Apps.t) =
  Apex_exec.Store.key ~version
    (v.eval_digest, kernel_digest (Optimize.app app), effort)

let mapping_key v app = eval_key ~version:"pm-score/4" v app

(* [f ()] store-memoized with its structural verdict: an [Unmappable]
   is stored as [Error] and re-raised on every hit *)
let memo_verdict ~ns ~key f =
  match
    Apex_exec.Store.memoize ~ns ~key (fun () ->
        match f () with
        | x -> Ok x
        | exception Apex_mapper.Cover.Unmappable m -> Error m)
  with
  | Ok x -> x
  | Error m -> raise (Apex_mapper.Cover.Unmappable m)

(* area-energy score of a variant on one application, post-mapping:
   the costly step of the [pe_spec] climb.  A computed mapping is also
   kept in the memo scope's covers, for the pair evaluations of
   variants built after it.  Its store entry holds the score alone, so
   a warm climb reads a few bytes per step, not a cover. *)
let score (v : Variants.t) app =
  let key = mapping_key v app in
  memo_verdict ~ns:"mapping" ~key (fun () ->
      let ((pm, _) as mapping) = Metrics.post_mapping v app in
      Hashtbl.replace (current_scope ()).covers key mapping;
      pm.Metrics.total_pe_area *. pm.Metrics.pe_energy_per_output)

let mapping v app =
  memo_verdict ~ns:"cover"
    ~key:(eval_key ~version:"cover/2" v app)
    (fun () -> Metrics.post_mapping v app)

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

(* A pair's structural verdict, the metrics or the [Unmappable]
   message, is store-memoized like any other phase product: a stored
   pair is the checkpoint a killed run resumes from. *)
let pair_key ?effort v app = eval_key ~version:"pair-eval/5" ?effort v app

let eval_pair ?effort ?mapping (v : Variants.t) (app : Apps.t) =
  memo_verdict ~ns:"pairs" ~key:(pair_key ?effort v app)
    (fun () ->
      if Option.is_some mapping then Counter.incr "dse.covers_reused";
      let pp, _, _ = Metrics.post_pipelining ?effort ?mapping v app in
      pp)

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
    eval_pair ?effort ?mapping v app
  with
  | pp ->
      Apex_guard.Outcome.record ~phase:"evaluate" Apex_guard.Outcome.Exact;
      Mapped pp
  | exception Apex_mapper.Cover.Unmappable m ->
      Counter.incr "dse.unmappable_pairs";
      Unmappable m
  | exception Apex_guard.Cancelled msg ->
      Counter.incr "dse.skipped_pairs";
      Apex_guard.Outcome.record ~phase:"evaluate"
        (Apex_guard.Outcome.Skipped Apex_guard.Outcome.Deadline);
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
   same at every pool width.  A pair the store holds is a read of about
   0.1 ms, less than a runner's spawn and join: the producer probes for
   its entry and runs it inline.  Results come back in submission
   order. *)
let evaluate ?effort ~build items =
  let produce x =
    let ((v, app) as pair) = build x in
    (* the keys build the optimized kernel here rather than on a runner *)
    ( pair,
      Hashtbl.find_opt (current_scope ()).covers (mapping_key v app),
      Apex_exec.Store.exists ~ns:"pairs" ~key:(pair_key ?effort v app) )
  in
  Apex_exec.Pool.pipeline ~produce
    ~inline:(fun (_, _, stored) -> stored)
    (fun (pair, mapping, _) -> (pair, evaluate_pair ?effort ?mapping pair))
    items

let evaluate_built ~build items = evaluate ~build items

let evaluate_pairs ?effort pairs =
  List.map snd (evaluate ?effort ~build:Fun.id pairs)

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
