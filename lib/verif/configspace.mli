(** Configuration-space static analysis of a merged datapath.

    Encodes the legal configuration words of a {!Apex_merging.Datapath.t}
    (FU op selects, mux source selects, output selects — the space
    [n_config_bits] prices) as a SAT instance and derives reachability,
    mutual-exclusion and validated-pruning facts from it.  See the
    "Configuration-space analysis" section of DESIGN.md for the
    encoding and the proof obligations. *)

type resource =
  | Fu_r of int
  | Creg_r of int
  | Port_r of int
  | Edge_r of { src : int; dst : int; port : int }

type cls =
  | Dead        (** no legal configuration word can observe the resource *)
  | Encodable   (** reachable by some word outside the registered set:
                    config-bit over-encoding *)

type survey = {
  realizable : string list;    (** registered config labels proven SAT *)
  unrealizable : string list;  (** registered configs with no legal word: merge bugs *)
  unknown : string list;       (** query budget exhausted *)
  unreachable : (resource * cls) list;
      (** resources no registered config uses, sorted, SAT-classified *)
  bits_total : int;            (** [n_config_bits] of the datapath *)
  bits_reachable : int;        (** [n_config_bits] after reachability pruning *)
  excl_pairs : (int * int) list;
      (** FU pairs both used somewhere but never co-active *)
  cliques : int list list;     (** mutually-exclusive FU cliques (size >= 2) *)
  gated : int list;            (** FUs inside some clique: clock-gating candidates *)
}

type report = {
  label : string;
  n_configs : int;
  survey : survey;
  pruned_nodes : int;
  pruned_edges : int;
  proofs_proved : int;   (** per-config SMT equivalence proofs (UNSAT) *)
  proofs_tested : int;   (** differential evidence only (budget or fault) *)
  reverted : bool;       (** a proof failed: pruning was rolled back *)
  degraded : bool;       (** fault-injected or deadline-cancelled run *)
}

val survey : Apex_merging.Datapath.t -> survey
(** The pure fact-finding pass: realizability of every registered
    config, unreachable-resource classification, config-bit accounting
    and FU mutual exclusion.  No pruning, no counters. *)

val analyze :
  ?label:string -> Apex_merging.Datapath.t -> report * Apex_merging.Datapath.t
(** [analyze dp] surveys [dp], deletes every unreachable resource, and
    proves each registered config equivalent on the pruned datapath
    (random differential evaluation, then an SMT equivalence proof per
    config — UNSAT required).  Any failed proof reverts to the original
    datapath.  Bumps the [analysis.configspace.*] counters and records
    a typed {!Apex_guard.Outcome}; the [configspace-smt-exhaust] fault
    site degrades proofs to differential evidence without changing the
    returned datapath.  A configless datapath is returned unchanged. *)

val config_realizable :
  Apex_merging.Datapath.t -> Apex_merging.Datapath.config -> bool option
(** Does any legal configuration word decode to this config's select
    decisions?  [None] when the SAT budget is exhausted. *)

val gated_fus : Apex_merging.Datapath.t -> int list
(** FUs that share a mutual-exclusion clique of size >= 2 — a cheap,
    SAT-free scan of the registered configs, safe on every datapath. *)

val gated_predicate : Apex_merging.Datapath.t -> int -> bool
(** [gated_predicate dp] is the membership test over {!gated_fus},
    shaped for {!Apex_peak.Cost.config_energy}'s [?gated]. *)

val exclusion_cliques : Apex_merging.Datapath.t -> int list list

val report_to_json : report -> Apex_telemetry.Json.t
(** The machine-readable gating report: deterministic field and element
    order, byte-identical across [--jobs] settings. *)

val pp_report : Format.formatter -> report -> unit
