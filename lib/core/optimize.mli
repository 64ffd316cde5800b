(** Opt-in graph optimization gate for the DSE flow ([--optimize]).

    When enabled, {!app} rewrites an application's graph through the
    validated optimizer ({!Apex_analysis.Opt.run}) before it enters
    mining, merging, mapping or linting.  Disabled, {!app} is the
    identity.  Set the flag once at process start: the per-application
    result is memoized in the process and in the store (ns [optimize],
    keyed on the raw graph, so a warm run makes no solver call), and
    {!key_suffix} lets in-process memo tables distinguish optimized
    from raw variants. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val key_suffix : unit -> string
(** [":opt"] when enabled, [""] otherwise — append to in-process memo
    keys.  Store keys digest the optimized kernel itself. *)

val app : Apex_halide.Apps.t -> Apex_halide.Apps.t
