(** Application frequent-subgraph analysis (APEX step 1a, Fig. 6):
    mining followed by MIS ranking, producing the ordered list of
    candidate subgraphs that seeds PE generation. *)

type ranked = {
  pattern : Pattern.t;
  support : int;
      (** occurrences a PE could accelerate: those no external constant
          feeds *)
  mis_size : int;    (** non-overlapping occurrences (Section 3.2) *)
}

val analyze :
  ?config:Miner.config -> Apex_dfg.Graph.t -> ranked list * Miner.stats
(** Mine the graph and rank patterns by decreasing MIS size; ties broken
    by larger pattern, then by canonical code.  Patterns whose MIS size
    is below the miner's support threshold are dropped (their
    occurrences are mostly overlaps). *)

val pp_ranked : Format.formatter -> ranked -> unit
