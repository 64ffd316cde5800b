(** The APEX design-space exploration flow (Fig. 6): canned variant
    families matching the paper's experiments, with memoization of the
    expensive steps (mining, merging, rule synthesis).

    A job has one in-process memo, this module's scope: the mining
    analyses, the built variants, and the post-mapping results (record
    and cover) of the PE Spec climb's scoring.  Only the domain that
    builds variants touches it — in {!evaluate_built}, the pool's
    producer — so it needs no lock.  Pool runners never read it: the
    producer looks each pair's cover up right after building the pair
    and hands it to the task.  Everything else crosses jobs through
    [Exec.Store]. *)

val with_local_memo : (unit -> 'a) -> 'a
(** Run [f] with a fresh, private memo scope instead of the
    process-global one (restored on exit); its analyses, variants and
    covers are dropped with it.  A multi-tenant server wraps each
    request in this so concurrent requests neither race the
    unsynchronized tables nor observe each other's in-memory artifacts
    — cross-request sharing goes through the namespaced [Exec.Store].
    Domain-local: the scope belongs to the domain that opened it, where
    the job's variants are built. *)

val analysis_of :
  ?config:Apex_mining.Miner.config ->
  Apex_halide.Apps.t ->
  Apex_mining.Analysis.ranked list
(** Per-application mining + MIS ranking of the optimized kernel
    ([config] defaults to subgraphs of at most 4 nodes): memoized in
    the scope ([dse.analysis_cache_hits] / [_misses]) and in the store
    (ns [analysis], keyed on the graph content), and lint-verified at
    the mining phase boundary on every scope miss.  Mining is the
    expensive step of the flow; every variant of the job shares it. *)

val baseline : unit -> Variants.t
(** The fully general PE Base (memoized). *)

val pe_k : Apex_halide.Apps.t -> int -> Variants.t
(** [pe_k app k] is the application PE with the top [k] mined subgraphs
    merged in; [pe_k app 0] is the op-subset PE 1 (memoized). *)

val camera_variants : unit -> Variants.t list
(** PE Base, PE 1 ... PE 4 for the camera pipeline (Section 5.1,
    Table 2 / Fig. 11). *)

val pe_spec : Apex_halide.Apps.t -> Variants.t
(** The most specialized PE for an application: starting from PE 1,
    the top k = 1, 2, ... (at most 5) mined subgraphs are merged in MIS
    order, and the climb stops at the first k whose post-mapping
    area × energy product does not improve on k − 1 (or that cannot
    map the app); the last improving variant wins.  This is the
    product, not Section 5's "without increasing the area or energy",
    and one mis-costed k hides every later one (ROADMAP item 4).
    Each scored mapping is kept in the memo scope for the pair
    evaluations of variants built after it. *)

val ip_apps : unit -> Apex_halide.Apps.t list
(** camera, harris, gaussian, unsharp. *)

val ml_apps : unit -> Apex_halide.Apps.t list
(** resnet, mobilenet. *)

val pe_ip : unit -> Variants.t
(** Balanced image-processing domain PE (Section 5.2). *)

val pe_ip2 : unit -> Variants.t
(** Over-merged variant: twice the subgraphs per application. *)

val pe_ip3 : unit -> Variants.t
(** Unbalanced variant specialized toward the camera pipeline. *)

val pe_ml : unit -> Variants.t
(** Machine-learning domain PE. *)

type pair_result =
  | Mapped of Metrics.post_pipelining  (** full evaluation completed *)
  | Unmappable of string
      (** the variant's rule set cannot cover the app — a structural
          verdict, expected for specialized PEs on foreign apps *)
  | Skipped of string
      (** the ambient {!Apex_guard} budget tripped before this pair
          finished; the rest of the fleet still ran *)
  | Failed of string
      (** unexpected per-pair failure, isolated so the fleet survives *)

val mapped_opt : pair_result -> Metrics.post_pipelining option
(** The metrics when [Mapped], for callers that treat every other
    class as absence. *)

val pair_status : pair_result -> string
(** ["mapped"], ["unmappable"], ["skipped"] or ["failed"] — the status
    tag reports and the CLI print per pair. *)

val evaluate_pairs :
  ?effort:int ->
  (Variants.t * Apex_halide.Apps.t) list ->
  pair_result list
(** Evaluate (variant, application) pairs — mapping, PnR, pipelining —
    on the execution pool ([--jobs] domains), returning results in
    submission order.  Per-pair failures are isolated: one pathological
    pair yields [Unmappable]/[Skipped]/[Failed] (counted separately as
    [dse.unmappable_pairs] / [dse.skipped_pairs] / [dse.failed_pairs])
    and never aborts the fleet.  A pair whose mapping the memo scope
    holds (a PE Spec climb scored it) is not mapped again
    ([dse.covers_reused]).  [evaluate_built ~build:Fun.id]. *)

val evaluate_built :
  ?effort:int ->
  build:('a -> Variants.t * Apex_halide.Apps.t) ->
  'a list ->
  ((Variants.t * Apex_halide.Apps.t) * pair_result) list
(** {!evaluate_pairs} over pairs that [build] constructs on the calling
    domain, in order, while earlier pairs already evaluate
    ([Exec.Pool.pipeline]): the variants need not exist up front.
    [Jobs] builds with {!variant_for}, so a [base; spec:<app>] job
    evaluates PE Base during the PE Spec climb.  A pair reuses the
    cover of a variant built before it (looked up on the calling
    domain right after [build]), never one a later build scores: the
    counters are the same at every pool width, so a [pe1:<app>;
    spec:<app>] job maps PE 1 for its first pair although the climb
    scores it next.  [build]'s first exception is raised after the
    pairs built before it finished. *)

val variant_for : string -> Variants.t
(** Lookup by the names used in the benches: "base", "spec:<app>",
    "ip", "ip2", "ip3", "ml", "pe1:<app>", "pek:<app>:<k>".
    @raise Invalid_argument on unknown names. *)
