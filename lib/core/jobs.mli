(** Job specifications shared by the CLI subcommands and the serve
    daemon, and the one code path that runs them.

    A job names one unit of flow work — a DSE fleet, a static-analysis
    run, a lint pass, a single mapping, a mining pass — plus its JSON
    spec encoding (the serve wire format's ["job"] object).  {!execute}
    runs it to a typed {!result}; {!results_json} serializes that.  The
    CLI's flow subcommands parse their flags into a job, {!execute} it
    and render the result (their [--json] output and [--trace=FILE]
    results section are {!results_json}); the daemon calls {!run}.  So
    `apex dse camera --json` and a served
    [{"kind":"dse","apps":["camera"]}] run the same code and print the
    same results bytes. *)

type t =
  | Dse of { apps : string list; variants : string list }
      (** [apps = []] means every evaluated application; [variants = []]
          means the per-app default (base + spec:<app>). *)
  | Analyze of { apps : string list }  (** [[]] = all nine built-ins *)
  | Configs of { apps : string list }
      (** configuration-space reports (base PE + pek:2 per app);
          [[]] = all nine built-ins *)
  | Lint of { apps : string list }     (** [[]] = all nine built-ins *)
  | Map of { app : string; variant : string }
  | Mine of { app : string; top : int }
  | Sleep of { seconds : float }
      (** Diagnostic load: holds a worker while ticking the ambient
          guard budget, so deadline/cancellation paths can be exercised
          without a heavyweight flow phase. *)

val kind : t -> string
(** The wire tag: "dse", "analyze", "configspace", "lint", "map",
    "mine", "sleep". *)

val to_json : t -> Apex_telemetry.Json.t
(** The job's wire spec, [{"kind": ...; ...}]. *)

val of_json : Apex_telemetry.Json.t -> t
(** Parse a wire spec.
    @raise Invalid_argument on unknown kinds or malformed fields,
    including a sleep whose [seconds] is not a finite number in
    [0, 3600] and a mine whose [top] is negative. *)

val mine : app:string -> top:int -> t
(** The [Mine] job as both {!of_json} and the CLI build it.
    @raise Invalid_argument when [top] is negative. *)

val app_by_name : string -> Apex_halide.Apps.t
(** @raise Invalid_argument on an unknown application name. *)

val dse_pairs :
  apps:Apex_halide.Apps.t list ->
  variants:string list ->
  (string * Variants.t * Apex_halide.Apps.t) list
(** The (spec, variant, app) fleet for a DSE job: [variants] per app,
    defaulting to [base] and [spec:<app>], each built up front.
    Variant construction is serial and memoized; it raises
    [Invalid_argument] on unknown variant specs.  {!execute} builds the
    same fleet, but each variant while the pairs before it evaluate. *)

type result =
  | Dse_rows of ((string * Variants.t * Apex_halide.Apps.t) * Dse.pair_result) list
      (** One row per {!dse_pairs} entry, in fleet order. *)
  | Analyze_reports of Analyze_run.app_report list
  | Configs_reports of Configspace_run.app_report list
  | Lint_report of Apex_lint.Engine.report
  | Mapped of {
      app : Apex_halide.Apps.t;
      variant : Variants.t;
      post : Metrics.post_mapping;
      cover : Apex_mapper.Cover.t;
    }
  | Mined of {
      app : Apex_halide.Apps.t;
      n_patterns : int;
      top : int;
      ranked : Apex_mining.Analysis.ranked list;  (** the first [top] *)
    }
  | Slept of float
(** A job's typed outcome: one constructor per job kind. *)

val execute : t -> result
(** Execute the job.  Raises what the flow raises — [Invalid_argument]
    on bad names, [Cover.Unmappable], [Apex_guard.Cancelled] — so front
    ends map failures onto the shared exit-code/error-object taxonomy. *)

val results_json : result -> Apex_telemetry.Json.t
(** The results section: DSE rows ({"app", "variant", "spec",
    "status"} plus the metric fields when mapped), the analyze,
    configspace and lint JSON reports, the map metrics, the mining
    ranking, or the slept time. *)

val run : t -> Apex_telemetry.Json.t
(** [results_json (execute job)]. *)
