(** Rooted subgraph-isomorphism matching of a pattern against an
    application graph — the matcher behind instruction selection
    (Section 4.1.2) and the test oracle for the miner.

    A match binds every internal (compute/constant) pattern node to a
    distinct application node with the same operation, such that every
    internal pattern edge is mirrored with the same port (argument
    orders of commutative operations may be swapped), and every pattern
    input is bound consistently to an application node (shared pattern
    inputs must bind to one application node).  With [wild_consts],
    constant values and LUT truth tables in the pattern match any
    constant/table in the graph. *)

type binding = {
  nodes : (int * int) list;
  (** internal pattern node id -> application node id *)
  inputs : (int * int) list;
  (** pattern input node id -> application node id feeding it *)
}

val matches_at :
  ?wild_consts:bool ->
  succs:int list array ->
  Pattern.t ->
  Apex_dfg.Graph.t ->
  root:int ->
  binding list
(** All bindings anchoring the pattern's last canonical internal node at
    application node [root].  [succs] is the application's successor
    table ({!Apex_dfg.Graph.succs}), built once by the caller and shared
    across probes, so a probe costs time in the pattern, not the
    application; a root whose operation cannot bind the anchor is
    rejected before any search state is allocated.
    Requires the pattern's internal nodes to be connected through
    internal edges, which holds for all mined patterns. *)

val occurrences : Pattern.t -> Apex_dfg.Graph.t -> int list list
(** Distinct occurrence node sets (sorted ids), sorted. *)
