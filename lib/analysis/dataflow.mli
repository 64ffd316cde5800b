(** Generic monotone-dataflow engine over {!Apex_dfg.Graph}.

    A problem supplies a fact per node, a direction and a transfer
    function; {!Make} supplies one sweep in direction order.  Node ids
    are topologically ordered (every argument id is smaller than its
    user's), so ids ascending for [Forward] and descending for
    [Backward] visit each node after every fact its transfer reads:
    each fact is final when computed and the sweep is the fixpoint.
    {!Absint} (forward reduced product) and {!Demand} (backward
    demanded bits) are the two instances.

    Determinism contract: for a fixed graph the visit order and the
    resulting fact array are identical on every run.  Each [solve]
    visits every node once and adds the node count to the
    [analysis.dataflow.visits] counter. *)

type direction = Forward | Backward

module type PROBLEM = sig
  type fact

  val direction : direction

  val init : Apex_dfg.Graph.t -> Apex_dfg.Graph.node -> fact
  (** Starting fact per node.  The sweep overwrites it with the node's
      transfer before any transfer reads it, unless the graph's ids
      break the topological order. *)

  val transfer :
    Apex_dfg.Graph.t ->
    succs:int list array ->
    Apex_dfg.Graph.node ->
    (int -> fact) ->
    fact
  (** [transfer g ~succs nd get] computes [nd]'s fact; [get j] is the
      fact of node id [j].  Forward problems read argument facts,
      backward problems read user facts (via [succs]); [g] is
      available for structural peeking (constant siblings, op shapes). *)
end

module Make (P : PROBLEM) : sig
  val solve : Apex_dfg.Graph.t -> P.fact array
  (** Fact per node id.
      @raise Apex_guard.Cancelled cooperatively under an expired
      budget. *)
end
