(** PE variant generation — the candidate axis of the design-space
    exploration (Section 5: PE Base, PE 1, PE 2 ... PE Spec, PE IP,
    PE ML).

    A variant bundles the PE datapath with the complex patterns merged
    into it and the verified rewrite-rule set for mapping.  This module
    keeps no in-process memo: the builders take the mining analyses
    from {!Dse.analysis_of}, and {!Dse} memoizes what they build in its
    job scope. *)

type t = {
  name : string;
  dp : Apex_merging.Datapath.t;
  patterns : Apex_mining.Pattern.t list;  (** merged subgraphs, MIS order *)
  rules : Apex_mapper.Rules.t list;
  configspace : Apex_verif.Configspace.report option;
      (** the configuration-space gating report produced while building
          the variant; [None] only for hand-assembled variants *)
  eval_digest : string;
      (** digest of what evaluating the variant reads: the datapath and
          the rule set *)
}

val v : ?configspace:Apex_verif.Configspace.report -> string ->
  Apex_merging.Datapath.t -> Apex_mining.Pattern.t list ->
  Apex_mapper.Rules.t list -> t
(** [v name dp patterns rules]: the variant as given, its [eval_digest]
    computed; every variant, {!make}'s included, is built by it. *)

val make : string -> Apex_merging.Datapath.t -> Apex_mining.Pattern.t list -> t
(** Bundle a datapath with the patterns merged into it: runs the
    configuration-space analysis (validated dead-resource pruning —
    [dp] in the result is the pruned datapath; store-memoized on the
    datapath's content, a hit replays the analysis's counters and the
    report carries this variant's name), synthesizes the
    rewrite-rule set and, when {!Check.enable}d, lint-verifies the
    merged datapath and the rule set at the phase boundary. *)

val baseline : unit -> t
(** "PE Base": the general-purpose comparison PE (Fig. 1). *)

val pe1 : Apex_halide.Apps.t -> t
(** "PE 1": baseline structure restricted to the operations the
    application needs. *)

val interesting_patterns :
  Apex_mining.Analysis.ranked list -> Apex_mining.Pattern.t list
(** MIS-ordered patterns worth merging: at least 2 compute nodes and a
    MIS size of at least 4. *)

val specialized :
  Apex_halide.Apps.t -> Apex_mining.Analysis.ranked list -> n_subgraphs:int -> t
(** "PE k+1": PE 1 plus the top [n_subgraphs] subgraphs of the
    application's ranked analysis, merged in MIS order. *)

val domain :
  name:string -> ?per_app:int -> Apex_mining.Analysis.ranked list list -> t
(** "PE IP" / "PE ML": domain-level merge over the ranked analyses of
    several applications: the top [per_app] (default 2) interesting
    subgraphs of each application, round robin and deduplicated, merged
    into the full-baseline-ops PE. *)

val with_local_memo : (unit -> 'a) -> 'a
(** [with_local_memo f] is [f ()].  The job's memo scope is
    {!Dse.with_local_memo}. *)
