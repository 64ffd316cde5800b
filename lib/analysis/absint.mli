(** Forward abstract interpretation over {!Apex_dfg.Graph}.

    Runs the three domains ({!Itv}, {!Kbits}, constancy) as a reduced
    product per node, sweeping in topological order to a fixpoint.
    [Reg]/[Reg_file] nodes carry values across cycle boundaries, so
    their transfer widens to ⊤ — the analysis is sound for the
    multi-cycle hardware reading, not just the combinational
    interpreter. *)

type fact = { itv : Itv.t; kb : Kbits.t; cst : int option }

val of_const : int -> fact

val reduce : fact -> fact
(** Exchange information between the domains: a singleton interval or a
    fully-known bit mask becomes a constant, known bits tighten the
    interval and vice versa. *)

val join : fact -> fact -> fact

val transfer : Apex_dfg.Op.t -> (int -> fact) -> fact
(** [transfer op f] is the output fact of [op] given the fact [f i] of
    its [i]-th argument.  All-constant arguments fold through
    {!Apex_dfg.Sem.eval}. *)

val analyze : Apex_dfg.Graph.t -> fact array
(** Fact per node id.  Increments the [analysis.facts_computed]
    counter. *)

val is_top : Apex_dfg.Graph.node -> fact -> bool
(** Does the fact say nothing beyond the node's width? *)

val fact_to_string : fact -> string
