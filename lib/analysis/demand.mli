(** Backward demanded-bits + liveness analysis — the second
    {!Dataflow} instance, dual to the forward {!Absint} product.

    The fact for a node is the mask of its result bits that some
    consumer can observe: [Output]/[Bit_output] markers demand
    everything, arithmetic demands its argument columns at or below the
    highest demanded result column, constant shifts translate the mask,
    [Lut] and the [Mux] select demand a single bit, comparators demand
    full compare width, and [Reg]/[Reg_file] widen to full demand
    across the cycle boundary.  A node whose fixpoint demand is 0 is
    dead.

    Soundness: flipping any argument bit outside
    [demand_on_arg g u p d] cannot change the bits of [u]'s result
    selected by [d] (under {!Apex_dfg.Sem} semantics); transitively,
    flipping node bits outside [analyze g] cannot change any graph
    output. *)

val analyze : Apex_dfg.Graph.t -> int array
(** Demanded-bits mask per node id (bit-valued nodes use bit 0). *)

val is_live : int array -> int -> bool
(** [is_live (analyze g) id] — does any output transitively observe
    node [id]? *)

val from : int -> int
(** All bits at or above the lowest set bit of the mask. *)

val msb_index : int -> int
(** Index of the highest set bit, [-1] for 0. *)
