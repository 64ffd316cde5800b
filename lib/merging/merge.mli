(** Datapath merging (Section 3.3, after Moreano et al. [18]).

    Merging folds a new pattern into an existing datapath: merge
    opportunities (node pairs implementable on one functional unit, and
    edge pairs that additionally share wiring) are enumerated, arranged
    in a compatibility graph weighted by saved area, and the
    maximum-weight clique selects the applied merges.  The merged
    datapath gains a configuration implementing the new pattern while
    every existing configuration is preserved verbatim. *)

type opportunity =
  | Node_merge of int * int
      (** (node of the accumulated datapath, node of the new pattern) *)
  | Edge_merge of Datapath.edge * Datapath.edge
      (** wiring shared between the two; implies merging both endpoints *)

type report = {
  n_opportunities : int;
  clique : opportunity list;   (** applied merges *)
  clique_weight : float;       (** estimated area saved, um^2 *)
  optimal : bool;              (** clique search completed *)
  cycles_repaired : int;       (** merges dropped to keep the graph acyclic *)
}

type strategy =
  | Max_weight_clique  (** the paper's algorithm *)
  | Greedy_clique      (** ablation baseline *)
  | No_sharing         (** disjoint union: only input ports are shared *)

val merge :
  ?strategy:strategy ->
  Datapath.t ->
  Apex_mining.Pattern.t ->
  Datapath.t * report
(** Fold one pattern into the datapath. *)
