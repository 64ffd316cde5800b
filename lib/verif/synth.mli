(** Rewrite-rule synthesis: find a PE configuration implementing a
    pattern (the [exists x forall y] query of Section 4.1.1).

    {!structural} is a directed backtracking search that maps the
    pattern's nodes onto the datapath's functional units and wiring.
    Every candidate it finds is formally checked with
    {!Verify.verify_config} before being returned. *)

type rule = {
  pattern : Apex_mining.Pattern.t;
  config : Apex_merging.Datapath.config;  (** with inputs/outputs bound *)
  verdict : Verify.verdict;
}

val structural :
  ?width:int ->
  Apex_merging.Datapath.t ->
  Apex_mining.Pattern.t ->
  rule option
(** Search for a configuration implementing the pattern.  Tries the
    datapath's stored configurations whose label equals the pattern's
    canonical code first (merge provenance), then the structural
    search.  Returns the first candidate that is [Proved] or [Tested];
    [None] if the pattern cannot be mapped. *)

val op_pattern : Apex_dfg.Op.t -> Apex_mining.Pattern.t
(** The single-operation pattern for a compute op. *)
