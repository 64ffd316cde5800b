(** Canonical computational patterns (mined subgraphs).

    A pattern is a small connected dataflow graph whose boundary is made
    of fresh [Input] nodes; two patterns are equal iff their canonical
    codes are equal.  Equal codes mean isomorphic patterns (respecting
    operations, port order of non-commutative operations, and sharing of
    external sources).  The converse has one known gap: swapping the
    arguments of a commutative node whose two arguments are external
    inputs first used there can change the code. *)

type t

val of_graph : Apex_dfg.Graph.t -> t
(** Canonicalize a pattern graph.  The graph must be a valid dataflow
    graph; nodes that are not reachable from a compute node are fine. *)

val graph : t -> Apex_dfg.Graph.t
(** A representative graph of the isomorphism class, in canonical node
    order, with [Output] markers on every sink compute node. *)

val code : t -> string
(** Canonical code; equal codes imply isomorphic patterns (see above for
    the one case where isomorphic patterns can differ). *)

val size : t -> int
(** Number of compute nodes. *)

val n_inputs : t -> int
(** Number of word-level external inputs. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
