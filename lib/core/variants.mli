(** PE variant generation — the candidate axis of the design-space
    exploration (Section 5: PE Base, PE 1, PE 2 ... PE Spec, PE IP,
    PE ML).

    A variant bundles the PE datapath with the complex patterns merged
    into it and the verified rewrite-rule set for mapping. *)

type t = {
  name : string;
  dp : Apex_merging.Datapath.t;
  patterns : Apex_mining.Pattern.t list;  (** merged subgraphs, MIS order *)
  rules : Apex_mapper.Rules.t list;
  configspace : Apex_verif.Configspace.report option;
      (** the configuration-space gating report produced while building
          the variant; [None] only for hand-assembled variants *)
}

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
  ?min_mis:int -> Apex_mining.Analysis.ranked list -> Apex_mining.Pattern.t list
(** MIS-ordered patterns worth merging: at least 2 compute nodes and a
    MIS size of at least [min_mis] (default 4). *)

val specialized :
  ?config:Apex_mining.Miner.config -> Apex_halide.Apps.t -> n_subgraphs:int -> t
(** "PE k+1": PE 1 plus the top [n_subgraphs] mined subgraphs of the
    application, merged in MIS order. *)

val domain :
  ?config:Apex_mining.Miner.config ->
  name:string ->
  ?per_app:int ->
  Apex_halide.Apps.t list ->
  t
(** "PE IP" / "PE ML": domain-level analysis over several applications;
    merges the top domain-ranked subgraphs ([per_app] times the number
    of applications in total, default 1) into the union-of-ops PE 1. *)

val analysis_of :
  ?config:Apex_mining.Miner.config ->
  Apex_halide.Apps.t ->
  Apex_mining.Analysis.ranked list
(** Memoized per-application mining + MIS ranking (mining is the
    expensive step of the flow; every variant shares it). *)

val with_local_memo : (unit -> 'a) -> 'a
(** Run [f] with a fresh, private analysis memo instead of the
    process-global table (restored on exit) — see
    {!Dse.with_local_memo} for the isolation contract. *)
