(** The lint engine: a fixed set of checkers over every IR in the flow,
    and a driver that runs them and aggregates diagnostics.  The
    checkers are solver-free: facts a phase proves with SAT/SMT where it
    makes them (rewrite rules in [Rules.pattern_rule], the configuration
    space in [Configspace.analyze]) are reported by [apex verify] and
    [apex analyze --configs], not re-proved here.

    Artifacts name the IRs the flow produces — application / pattern
    DFGs, merged datapaths (optionally with the patterns their configs
    claim to implement), rewrite-rule sets, PE pipeline plans and mapped
    application pipeline plans.  {!run} dispatches every artifact to
    every checker of its kind and returns one flat, stably-sorted
    report.

    When telemetry is enabled ({!Apex_telemetry.Registry.enable}), a run
    counts [lint.checks_run], [lint.violations] and [lint.errors]. *)

type artifact =
  | Dfg of { label : string; graph : Apex_dfg.Graph.t }
  | Datapath of {
      label : string;
      dp : Apex_merging.Datapath.t;
      patterns : Apex_mining.Pattern.t list;
          (** mined patterns whose canonical codes may label configs;
              empty to skip coverage / realization checks *)
    }
  | Rule_set of {
      label : string;
      dp : Apex_merging.Datapath.t;
      rules : Apex_mapper.Rules.t list;
    }
  | Pe_plan of {
      label : string;
      dp : Apex_merging.Datapath.t;
      plan : Apex_pipelining.Pe_pipeline.plan;
    }
  | App_plan of {
      label : string;
      cover : Apex_mapper.Cover.t;
      plan : Apex_pipelining.App_pipeline.plan;
    }

type finding = {
  artifact : string;  (** label of the artifact the diagnostic is about *)
  checker : string;
  diag : Diagnostic.t;
}

type report = {
  findings : finding list;  (** sorted: most severe first, then code *)
  artifacts : int;          (** artifacts examined *)
  checks : int;             (** (checker, artifact) pairs that applied *)
}

val run : artifact list -> report
(** Run every applicable checker on every artifact: ["dfg"],
    ["analysis"] and ["width"] on DFGs, ["datapath"] on datapaths,
    ["rules"] on rule sets, ["pipeline"] on PE and application plans. *)

val count : report -> Diagnostic.severity -> int

val errors : report -> int

val warnings : report -> int

val pp_report : Format.formatter -> report -> unit
(** One line per finding ([<artifact>: error[APX023] ...]) followed by a
    summary line.  Prints ["no violations"] on a clean report. *)

val report_to_json : report -> Apex_telemetry.Json.t

val exit_code : werror:bool -> report -> int
(** 0 when clean, 1 on any error — or any warning under [~werror]. *)

val validate_code : string -> (unit, string) result
(** [Ok ()] when the pattern matches at least one catalog entry. *)

val filter_report :
  ?only:string list -> ?except:string list -> report -> report
(** Keep only findings whose code matches some [only] pattern (all, if
    [only] is empty) and no [except] pattern.  [artifacts]/[checks]
    counts are preserved; severity counts and {!exit_code} follow the
    filtered findings. *)
