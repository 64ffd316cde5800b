(** The `apex analyze` driver: static-analysis facts, validated
    node-count reductions and proven per-node widths per application. *)

type app_report = {
  app : string;
  graph : Apex_dfg.Graph.t;
  nodes : int;
  compute_nodes : int;
  const_facts : int;
  bounded_facts : int;
  stats : Apex_analysis.Opt.stats;
  validated : bool;
  width : Apex_analysis.Width.t;
}

val report_for : Apex_halide.Apps.t -> app_report
(** Store-memoized in namespace [analyze], keyed on the kernel graph's
    content ({!Apex_exec.Store.memoize}: a hit replays the computing
    run's counters and makes no solver call; a degraded report is not
    stored). *)

val run : Apex_halide.Apps.t list -> app_report list

val reduction : app_report -> int
(** Nodes eliminated by the optimizer. *)

val pp : ?width_table:bool -> Format.formatter -> app_report list -> unit
(** Per-app summary lines; [width_table] additionally prints one row
    per narrowed node (id, op, demanded mask, live mask, width). *)

val to_json : app_report list -> Apex_telemetry.Json.t
