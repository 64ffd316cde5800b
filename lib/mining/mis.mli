(** Maximal independent set analysis of pattern occurrences
    (Section 3.2).

    Occurrences of a pattern that share application nodes cannot all be
    accelerated by fully-utilized PEs; the size of an independent set of
    the occurrence-overlap graph tells how many fully-utilized PEs a
    pattern is worth.  The flow ranks by a {e maximal} independent set,
    as the paper does: {!first_fit} computes one in a single pass over
    the embeddings, without building the overlap graph. *)

val first_fit : int list list -> int list
(** Greedy maximal independent set computed directly on the embedding
    lists (first fit in list order), without materializing the overlap
    graph — linear in total embedding size. *)

val mis_size : int list list -> int
(** [mis_size embeddings] is the size of the {!first_fit} maximal
    independent set — the paper's MIS ranking metric. *)
